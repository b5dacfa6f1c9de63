import itertools
import random

import numpy as np
import pytest

import helpers
from alphacirc import (
    BaseNotSelfDual,
    ChainRing,
    ChainRingError,
    CodeSpec,
    SearchConfig,
    is_self_dual,
    nested_lift,
    self_dual_lifts,
)
from alphacirc import lifting
from alphacirc.lifting import build_lift_system, section_lift_spec, solve_lift_system
from alphacirc.search import enumerate_base_codes

Z2 = ChainRing(2, 1)
Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
F3 = ChainRing(3, 1)
Z9 = ChainRing(3, 2)


def lift_system(base, ring, alpha):
    return build_lift_system(section_lift_spec(base, ring, alpha))


class TestSolveLiftSystem:
    def test_pivot_free_layout(self):
        # pivots at columns 0 and 2, column 1 free: the particular solution
        # has 0 at the free column, the basis vector 1 there and -1 at pivot 0
        sols = solve_lift_system(np.array([[1, 1, 0], [1, 1, 1]]), np.array([1, 2]), 3)
        assert sols.tolist() == [[1, 0, 1], [0, 1, 1], [2, 2, 1]]

    def test_solve_unique(self):
        sols = solve_lift_system(np.array([[1, 0], [0, 1]]), np.array([1, 2]), 3)
        assert sols.tolist() == [[1, 2]]

    def test_solve_inconsistent(self):
        sols = solve_lift_system(np.array([[1, 1], [1, 1]]), np.array([0, 1]), 2)
        assert sols.shape == (0, 2)

    def test_zero_system_full_kernel(self):
        sols = solve_lift_system(np.zeros((2, 3), dtype=np.int64), np.zeros(2, dtype=np.int64), 2)
        assert sols.tolist() == [list(x) for x in itertools.product(range(2), repeat=3)]

    def test_no_rows(self):
        sols = solve_lift_system(np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64), 3)
        assert sols.tolist() == [list(x) for x in itertools.product(range(3), repeat=2)]

    def test_random_solutions_satisfy_system(self):
        rng = random.Random(0)
        for _ in range(200):
            q = rng.choice([2, 3])
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            A = np.array([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
            b = np.array([rng.randrange(q) for _ in range(rows)])
            sols = solve_lift_system(A, b, q)
            expected = {
                x
                for x in itertools.product(range(q), repeat=cols)
                if not (A @ np.array(x) % q - b % q).any()
            }
            got = [tuple(int(x) for x in row) for row in sols]
            assert sols.shape == (len(got), cols)
            assert len(set(got)) == len(got)
            assert set(got) == expected


class TestLiftSystem:
    def test_known_eight_solution_case(self):
        base = CodeSpec(Z2, 1, (1, 1, 1, 0))
        sols = solve_lift_system(*lift_system(base, Z4, 3), 2)
        # 8 distinct solutions: a 3-dimensional affine space over F2
        assert sols.shape == (8, 4)
        assert len(set(map(tuple, sols.tolist()))) == 8
        # the solvable constraint collapses to u0 + u2 = 1
        for u in sols:
            assert (u[0] + u[2]) % 2 == 1

    def test_known_lift_appears(self):
        base = CodeSpec(Z2, 1, (1, 1, 1, 0))
        lifts = {spec.a for spec in self_dual_lifts(base, Z4, 3)}
        assert len(lifts) == 8
        assert (1, 3, 3, 0) in lifts
        for a in lifts:
            assert is_self_dual(CodeSpec(Z4, 3, a))

    def test_base_not_self_dual(self):
        with pytest.raises(BaseNotSelfDual):
            lift_system(CodeSpec(Z2, 1, (1, 1, 0, 0)), Z4, 3)

    def test_section_lift_spec(self):
        base = CodeSpec(Z2, 1, (1, 1, 1, 0))
        spec0 = section_lift_spec(base, Z4, 3)
        assert spec0.a == (3, 3, 3, 0) and spec0.alpha == 3
        with pytest.raises(ValueError):
            section_lift_spec(CodeSpec(Z2, 1, (1, 0)), Z9, 8)
        with pytest.raises(ValueError):
            # the base alpha 1 is not the projection of alpha = 8 = -1 over Z9
            section_lift_spec(CodeSpec(F3, 1, (1, 0)), Z9, 8)

    def test_raises_iff_base_not_self_dual(self):
        # the section lift's Gram entries all lie in the minimal ideal
        # exactly when the base is self-dual over R/I
        rng = random.Random(1)
        for target, alpha, base in [(Z4, 3, Z2), (Z9, 8, F3), (Z8, 7, Z4)]:
            base_alpha = alpha % base.size
            for _ in range(150):
                k = rng.randrange(2, 6)
                a = tuple(rng.randrange(base.size) for _ in range(k))
                border = tuple(rng.randrange(base.size) for _ in range(3))
                for spec in (
                    CodeSpec(base, base_alpha, a),
                    CodeSpec(base, base_alpha, a[1:], border),
                ):
                    try:
                        lift_system(spec, target, alpha)
                    except BaseNotSelfDual:
                        assert not is_self_dual(spec), spec
                    else:
                        assert is_self_dual(spec), spec

    def test_solution_count_is_power_of_q(self):
        for k in (2, 3, 4):
            for a in helpers.self_dual_double_bases(k):
                base = CodeSpec(Z2, 1, a)
                sols = solve_lift_system(*lift_system(base, Z4, 3), 2)
                n = len(sols)
                assert n & (n - 1) == 0  # zero or a power of two
                assert len(set(map(tuple, sols.tolist()))) == n


def solutions_or_error(system, spec0):
    """The solution rows of system(spec0), or the BaseNotSelfDual message."""
    try:
        return solve_lift_system(*system(spec0), spec0.ring.p)
    except BaseNotSelfDual as err:
        return str(err)


def assert_matches_oracle(spec0):
    # the k (or 2k - 1) decisive equations and the whole upper triangle
    # have the same solutions in the same order, or both reject the base
    got = solutions_or_error(build_lift_system, spec0)
    expected = solutions_or_error(helpers.lift_system_oracle, spec0)
    if isinstance(expected, str):
        assert got == expected, spec0
    else:
        assert isinstance(got, np.ndarray) and got.dtype == expected.dtype, spec0
        assert np.array_equal(got, expected), spec0


class TestLiftSystemOracle:
    @pytest.mark.parametrize("family", ["double-nega", "bordered-circ", "double-circ"])
    @pytest.mark.parametrize(
        "ring, lengths",
        [("z4", (8, 16, 24, 32)), ("z8", (8, 16)), ("z9", range(4, 21, 2))],
        ids=["z4", "z8", "z9"],
    )
    def test_every_search_parent(self, ring, lengths, family, monkeypatch):
        # every section lift that nested_lift solves on the way from each
        # search base, at both levels of Z8
        seen = []

        def checked(spec0):
            assert_matches_oracle(spec0)
            seen.append(spec0)
            return build_lift_system(spec0)

        monkeypatch.setattr(lifting, "build_lift_system", checked)
        for n in lengths:
            cfg = SearchConfig(ring=ChainRing.from_name(ring), n=n, family=family)
            for base in enumerate_base_codes(cfg):
                list(nested_lift(base, cfg.ring, cfg.alpha))
        # no double-circ base over Z9 up to n = 20 is self-dual, and no
        # double-circ lift over Z4 of the Z8 bases is
        assert seen or (ring, family) == ("z9", "double-circ")
        if ring == "z8" and family != "double-circ":
            assert {spec0.ring for spec0 in seen} == {Z4, Z8}

    @pytest.mark.parametrize("bordered", [False, True], ids=["double", "bordered"])
    @pytest.mark.parametrize("target", [Z4, Z8, Z9], ids=["Z4", "Z8", "Z9"])
    def test_random_specs(self, target, bordered):
        # random bases (rarely self-dual, so mostly rejected by both) and
        # every self-dual base of small k and its self-dual lifts, under
        # every square root of one (alpha = -1 breaks an alpha = 1 reading
        # of bordered Grams; Z8 also has 3 and 5)
        rng = random.Random(f"{target.name}-{bordered}")
        base_ring, p = target.quotient(1), target.p
        rejected = solved = 0
        for alpha in (x for x in range(target.size) if x * x % target.size == 1):
            base_alpha = alpha % base_ring.size
            bases = []
            for k in range(2, 9):
                core = k - bordered
                for _ in range(40):
                    a = tuple(rng.randrange(base_ring.size) for _ in range(core))
                    border = tuple(rng.randrange(base_ring.size) for _ in range(3))
                    bases.append(CodeSpec(base_ring, base_alpha, a, border if bordered else None))
            if base_ring.m == 1:
                for k in range(2, 6):
                    if bordered:
                        pairs = helpers.self_dual_bordered_bases(k, p, base_alpha)
                        bases += [CodeSpec(base_ring, base_alpha, c, b) for c, b in pairs]
                    else:
                        words = helpers.self_dual_double_bases(k, p, base_alpha)
                        bases += [CodeSpec(base_ring, base_alpha, a) for a in words]
            else:  # self-dual bases over Z4: the lifts of those over F2
                F2 = base_ring.quotient(1)
                for k in range(2, 6):
                    if bordered:
                        pairs = helpers.self_dual_bordered_bases(k, p, 1)
                        roots = [CodeSpec(F2, 1, c, b) for c, b in pairs]
                    else:
                        roots = [CodeSpec(F2, 1, a) for a in helpers.self_dual_double_bases(k, p)]
                    for root in roots:
                        bases += self_dual_lifts(root, base_ring, base_alpha)
            for base in bases:
                spec0 = section_lift_spec(base, target, alpha)
                assert_matches_oracle(spec0)
                if is_self_dual(base):
                    solved += 1
                else:
                    rejected += 1
        assert solved and rejected

    def test_equation_count(self):
        # k equations for a double spec, 2k - 1 for a bordered one; one
        # column per coordinate
        shapes = set()
        for target, alpha in ((Z4, 3), (Z4, 1), (Z9, 8), (Z9, 1)):
            p, base_alpha = target.p, alpha % target.p
            base_ring = target.quotient(1)
            for k in range(2, 8):
                bases = [CodeSpec(base_ring, base_alpha, a)
                         for a in helpers.self_dual_double_bases(k, p, base_alpha)]
                bases += [CodeSpec(base_ring, base_alpha, c, b)
                          for c, b in helpers.self_dual_bordered_bases(k, p, base_alpha)]
                for base in bases:
                    matrix, rhs = build_lift_system(section_lift_spec(base, target, alpha))
                    bordered = base.border is not None
                    assert matrix.shape == (2 * k - 1 if bordered else k, len(base.coords))
                    assert rhs.shape == (matrix.shape[0],)
                    shapes.add((bordered, k))
        assert shapes == {(bordered, k) for bordered in (False, True) for k in range(2, 8)}


class TestSection:
    """The section lift sends a coordinate equal to the base alpha to the
    target alpha and every other one to its least residue."""

    BASE = CodeSpec(Z2, 1, (1, 0), (0, 1, 1))

    def test_alpha_exception(self):
        # alpha = 3 projects to 1, so 1 must lift back to 3
        spec0 = section_lift_spec(self.BASE, Z4, 3)
        assert spec0.a == (3, 0) and spec0.border == (0, 3, 3) and spec0.alpha == 3

    def test_alpha_one_is_plain(self):
        spec0 = section_lift_spec(self.BASE, Z4, 1)
        assert spec0.a == (1, 0) and spec0.border == (0, 1, 1) and spec0.alpha == 1

    def test_section_then_project_is_identity(self):
        # every residue of R/I, for every square root of one, at both levels
        # of Z8 and over Z9
        for ring in (Z4, Z8, Z9):
            qsize = ring.size // ring.p
            for alpha in (x for x in range(ring.size) if x * x % ring.size == 1):
                base = CodeSpec(ring.quotient(1), alpha % qsize, tuple(range(qsize)))
                spec0 = section_lift_spec(base, ring, alpha)
                assert spec0.ring == ring and spec0.alpha == alpha
                assert tuple(c % qsize for c in spec0.a) == base.a

    def test_requires_quotient_element(self):
        # the base must live over R/I, not over R itself
        with pytest.raises(ValueError):
            section_lift_spec(CodeSpec(Z4, 3, (2, 1)), Z4, 3)

    def test_alpha_must_square_to_one(self):
        with pytest.raises(ChainRingError):
            section_lift_spec(self.BASE, Z4, 2)
        section_lift_spec(CodeSpec(Z4, 3, (1, 0)), Z8, 3)  # 3^2 = 9 = 1 mod 8

    def test_alpha_out_of_range(self):
        # 7^2 = 49 = 1 mod 4, but 7 is no residue of Z4; the zero base has no
        # entry that would carry the bad alpha into a coordinate
        zero = CodeSpec(Z2, 1, (0, 0))
        for base in (self.BASE, zero):
            for alpha in (7, -1):
                with pytest.raises(ChainRingError):
                    section_lift_spec(base, Z4, alpha)


class TestBruteForceAgreement:
    def test_double_z2_to_z4(self):
        for k in (2, 3, 4):
            for a in helpers.self_dual_double_bases(k):
                base = CodeSpec(Z2, 1, a)
                expected = helpers.brute_force_lift_vectors(base, Z4, 3)
                got = {(spec.a, spec.border) for spec in self_dual_lifts(base, Z4, 3)}
                assert got == expected, a

    def test_double_f3_to_z9(self):
        for k in (2, 3):
            for a in helpers.self_dual_double_bases(k, p=3, alpha=2):
                base = CodeSpec(F3, 2, a)
                expected = helpers.brute_force_lift_vectors(base, Z9, 8)
                got = {(spec.a, spec.border) for spec in self_dual_lifts(base, Z9, 8)}
                assert got == expected, a

    def test_bordered_z2_to_z4(self):
        for k in (3, 4):
            for core, border in helpers.self_dual_bordered_bases(k):
                base = CodeSpec(Z2, 1, core, border)
                expected = helpers.brute_force_lift_vectors(base, Z4, 3)
                got = {(spec.a, spec.border) for spec in self_dual_lifts(base, Z4, 3)}
                assert got == expected, (core, border)

    def test_bordered_f3_to_z9(self):
        bases = [
            CodeSpec(F3, 2, core, border)
            for k in (2, 3, 4, 5)
            for core, border in helpers.self_dual_bordered_bases(k, p=3, alpha=2)
        ]
        assert bases
        for base in bases:
            expected = helpers.brute_force_lift_vectors(base, Z9, 8)
            got = {(spec.a, spec.border) for spec in self_dual_lifts(base, Z9, 8)}
            assert got == expected, base


class TestNestedLift:
    def test_single_level_is_identity(self):
        base = CodeSpec(Z2, 1, (1, 1, 1, 0))
        assert list(nested_lift(base, Z2, 1)) == [base]

    def test_matches_preimage_enumeration_z8(self):
        # two levels, F2 -> Z4 -> Z8: orbits pruned at Z4 drop only copies.
        # The first bases with lifts are the four k = 4 doubles with
        # alpha = -1 (32 lifts, 4 orbits each) and three k = 4 bordered with
        # alpha = 1 (128 lifts, 32 orbits each).
        bases = [
            CodeSpec(Z2, 1, a)
            for k in (2, 3, 4)
            for a in helpers.self_dual_double_bases(k)
        ] + [
            CodeSpec(Z2, 1, core, border)
            for k in (2, 3, 4)
            for core, border in helpers.self_dual_bordered_bases(k)
        ]
        for alpha, outputs in ((7, 16), (1, 96)):
            lifted = 0
            for base in bases:
                got = list(nested_lift(base, Z8, alpha))
                assert helpers.covers_preimages_once(base, Z8, alpha, got), (alpha, base)
                lifted += len(got)
            assert lifted == outputs, alpha

    @pytest.mark.parametrize(
        "ring, target, target_alpha",
        [(Z2, Z4, 3), (Z2, Z4, 1), (F3, Z9, 8), (F3, Z9, 1)],
        ids=["F2-Z4-nega", "F2-Z4-circ", "F3-Z9-nega", "F3-Z9-circ"],
    )
    def test_one_lift_per_orbit(self, ring, target, target_alpha):
        # one level: the outputs are the first oracle lift of each orbit, in
        # solution order, and their orbits cover every preimage exactly once
        alpha = target_alpha % ring.p
        bases = [
            CodeSpec(ring, alpha, a)
            for k in range(1, 5)
            for a in helpers.self_dual_double_bases(k, ring.p, alpha)
        ]
        bases += [
            CodeSpec(ring, alpha, core, border)
            for k in range(2, 5)
            for core, border in helpers.self_dual_bordered_bases(k, ring.p, alpha)
        ]
        for base in bases:
            got = list(nested_lift(base, target, target_alpha))
            assert helpers.covers_preimages_once(base, target, target_alpha, got), base
            firsts, covered = [], set()
            for spec in helpers.all_nested_lifts(base, target, target_alpha):
                if (spec.a, spec.border) not in covered:
                    firsts.append(spec)
                    covered |= helpers.spec_orbit(spec)
            assert got == firsts, base

    @pytest.mark.parametrize("family", ["double-nega", "bordered-circ"])
    @pytest.mark.parametrize(
        "ring, n", [("z4", 24), ("z4", 32), ("z8", 16), ("z9", 12), ("z9", 16)]
    )
    def test_matches_full_group_oracle(self, ring, n, family):
        # the per-parent stabilizer dedup keeps exactly the lifts, in the same
        # order, that full-group canonical forms keep, for every search base
        cfg = SearchConfig(ring=ChainRing.from_name(ring), n=n, family=family)
        bases = enumerate_base_codes(cfg)
        assert bases
        for base in bases:
            got = list(nested_lift(base, cfg.ring, cfg.alpha))
            assert got == helpers.nested_lift_oracle(base, cfg.ring, cfg.alpha), base

    def test_pruning_happens(self):
        # k = 4 over Z4 has 8 self-dual lifts in 2 orbits
        base = CodeSpec(Z2, 1, (1, 1, 1, 0))
        assert len(helpers.all_nested_lifts(base, Z4, 3)) == 8
        assert len(list(nested_lift(base, Z4, 3))) == 2

    def test_all_outputs_self_dual_and_project(self):
        base = CodeSpec(Z2, 1, (1, 1, 1, 0))
        specs = list(nested_lift(base, Z8, 7))
        assert specs
        for spec in specs:
            assert spec.ring == Z8
            assert is_self_dual(spec)
            assert tuple(c % 2 for c in spec.a) == base.a

    def test_plain_residue_field_base_lifts_to_named_ring(self):
        # the rings carry no alpha, so a base over the plain F2 lifts to the
        # ring that `from_name` returns, with the alpha passed explicitly
        base = CodeSpec(ChainRing(2, 1), 1, (1, 1, 1, 0))
        specs = list(nested_lift(base, ChainRing.from_name("z4"), 3))
        assert len(specs) == 2
        for spec in specs:
            assert spec.ring == Z4 and spec.alpha == 3 and is_self_dual(spec)

    def test_rejects_base_alpha_that_is_not_the_projection(self):
        # also with m = 1, where no lifting step would check it
        base = CodeSpec(F3, 1, (1, 1))
        for ring in (F3, Z9):
            with pytest.raises(ValueError):
                list(nested_lift(base, ring, 2))

    def test_rejects_non_field_base(self):
        with pytest.raises(ValueError):
            list(nested_lift(CodeSpec(Z4, 3, (1, 0)), Z8, 7))


class TestEnumerateLifts:
    def test_empty_solution_set(self):
        # (1, 0) is self-dual over F2, but (1 + 2 u0)^2 + (2 u1)^2 = 1 != -1
        # over Z4: the system is inconsistent, so it has no solution rows
        base = CodeSpec(Z2, 1, (1, 0))
        assert solve_lift_system(*lift_system(base, Z4, 3), 2).shape == (0, 2)
        assert list(self_dual_lifts(base, Z4, 3)) == []

    def test_unique_lift(self):
        # a zero-dimensional solution space still yields its one lift, with
        # integer (not float) coordinates
        base = CodeSpec(ChainRing(5, 1), 1, (2,))
        lifts = [spec.a for spec in self_dual_lifts(base, ChainRing(5, 2), 1)]
        assert lifts == [(7,)] and type(lifts[0][0]) is int

    def test_projection_property(self):
        base = CodeSpec(Z2, 1, (1, 1, 0), border=(0, 1, 1))
        for spec in self_dual_lifts(base, Z4, 3):
            assert tuple(c % 2 for c in spec.a) == base.a
            assert tuple(b % 2 for b in spec.border) == base.border
            assert is_self_dual(spec)
