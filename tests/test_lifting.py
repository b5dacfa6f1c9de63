import itertools
import random

import numpy as np
import pytest

import helpers
from alphacirc import (
    BaseNotSelfDual,
    ChainRing,
    CodeSpec,
    is_self_dual,
    nested_lift,
    self_dual_lifts,
)
from alphacirc.gfsolve import rref, solve_affine
from alphacirc.lifting import (
    build_lift_system,
    enumerate_lifts,
    section_lift_spec,
    solve_lift_system,
)

Z2 = ChainRing(2, 1, 1)
Z4 = ChainRing(2, 2, 3)
Z8 = ChainRing(2, 3, 7)
F3 = ChainRing(3, 1, 2)
Z9 = ChainRing(3, 2, 8)


class TestGfSolve:
    def test_rref_pivots(self):
        R, pivots = rref(np.array([[1, 1, 0], [1, 1, 1]]), 2)
        assert pivots == [0, 2]
        assert R.tolist() == [[1, 1, 0], [0, 0, 1]]

    def test_solve_unique(self):
        sol = solve_affine(np.array([[1, 0], [0, 1]]), np.array([1, 2]), 3)
        assert sol is not None
        particular, basis = sol
        assert particular.tolist() == [1, 2] and basis == []

    def test_solve_inconsistent(self):
        assert solve_affine(np.array([[1, 1], [1, 1]]), np.array([0, 1]), 2) is None

    def test_zero_system_full_kernel(self):
        sol = solve_affine(np.zeros((2, 3)), np.zeros(2), 2)
        particular, basis = sol
        assert particular.tolist() == [0, 0, 0]
        assert len(basis) == 3

    def test_random_solutions_satisfy_system(self):
        rng = random.Random(0)
        for _ in range(200):
            q = rng.choice([2, 3])
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            A = np.array([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
            b = np.array([rng.randrange(q) for _ in range(rows)])
            sol = solve_affine(A, b, q)
            expected = {
                x
                for x in itertools.product(range(q), repeat=cols)
                if not (A @ np.array(x) % q - b % q).any()
            }
            if sol is None:
                assert not expected
                continue
            particular, basis = sol
            got = set()
            for digits in itertools.product(range(q), repeat=len(basis)):
                v = particular.copy()
                for d, vec in zip(digits, basis):
                    v = (v + d * vec) % q
                got.add(tuple(int(x) for x in v))
            assert got == expected


class TestLiftSystem:
    def test_known_eight_solution_case(self):
        base = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        sols = solve_lift_system(build_lift_system(base, Z4))
        assert sols.count == 8
        assert len(sols.basis) == 3
        # the solvable constraint collapses to u0 + u2 = 1
        for u in sols.solutions():
            assert (u[0] + u[2]) % 2 == 1

    def test_known_lift_appears(self):
        base = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        lifts = {spec.a for spec in self_dual_lifts(base, Z4)}
        assert len(lifts) == 8
        assert (1, 3, 3, 0) in lifts
        for a in lifts:
            assert is_self_dual(CodeSpec("double", Z4, 4, 3, a))

    def test_base_not_self_dual(self):
        with pytest.raises(BaseNotSelfDual):
            build_lift_system(CodeSpec("double", Z2, 4, 1, (1, 1, 0, 0)), Z4)

    def test_section_lift_spec(self):
        base = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        spec0 = section_lift_spec(base, Z4)
        assert spec0.a == (3, 3, 3, 0) and spec0.alpha == 3
        with pytest.raises(ValueError):
            section_lift_spec(CodeSpec("double", Z2, 2, 1, (1, 0)), Z9)

    def test_raises_iff_base_not_self_dual(self):
        # the section lift's Gram entries all lie in the minimal ideal
        # exactly when the base is self-dual over R/I
        rng = random.Random(1)
        for target, base in [(Z4, Z2), (Z9, F3), (Z8, ChainRing(2, 2, 3))]:
            for _ in range(150):
                k = rng.randrange(2, 6)
                a = tuple(rng.randrange(base.size) for _ in range(k))
                border = tuple(rng.randrange(base.size) for _ in range(3))
                for spec in (
                    CodeSpec("double", base, k, base.alpha, a),
                    CodeSpec("bordered", base, k, base.alpha, a[1:], border),
                ):
                    try:
                        build_lift_system(spec, target)
                    except BaseNotSelfDual:
                        assert not is_self_dual(spec), spec
                    else:
                        assert is_self_dual(spec), spec

    def test_solution_count_is_power_of_q(self):
        for k in (2, 3, 4):
            for a in helpers.self_dual_double_bases(k):
                base = CodeSpec("double", Z2, k, 1, a)
                sols = solve_lift_system(build_lift_system(base, Z4))
                n = sols.count
                assert n == 0 or n == 2 ** len(sols.basis)


class TestBruteForceAgreement:
    def test_double_z2_to_z4(self):
        for k in (2, 3, 4):
            for a in helpers.self_dual_double_bases(k):
                base = CodeSpec("double", Z2, k, 1, a)
                expected = helpers.brute_force_lift_vectors(base, Z4)
                got = {(spec.a, spec.border) for spec in self_dual_lifts(base, Z4)}
                assert got == expected, a

    def test_double_f3_to_z9(self):
        for k in (2, 3):
            for a in helpers.self_dual_double_bases(k, p=3, alpha=2):
                base = CodeSpec("double", F3, k, 2, a)
                expected = helpers.brute_force_lift_vectors(base, Z9)
                got = {(spec.a, spec.border) for spec in self_dual_lifts(base, Z9)}
                assert got == expected, a

    def test_bordered_z2_to_z4(self):
        for k in (3, 4):
            for core, border in helpers.self_dual_bordered_bases(k):
                base = CodeSpec("bordered", Z2, k, 1, core, border)
                expected = helpers.brute_force_lift_vectors(base, Z4)
                got = {(spec.a, spec.border) for spec in self_dual_lifts(base, Z4)}
                assert got == expected, (core, border)

    def test_bordered_f3_to_z9(self):
        bases = [
            CodeSpec("bordered", F3, k, 2, core, border)
            for k in (2, 3, 4, 5)
            for core, border in helpers.self_dual_bordered_bases(k, p=3, alpha=2)
        ]
        assert bases
        for base in bases:
            expected = helpers.brute_force_lift_vectors(base, Z9)
            got = {(spec.a, spec.border) for spec in self_dual_lifts(base, Z9)}
            assert got == expected, base


class TestNestedLift:
    def test_single_level_is_identity(self):
        base = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        assert list(nested_lift(base, Z2)) == [base]

    def test_matches_preimage_enumeration_z8(self):
        # two levels, F2 -> Z4 -> Z8: orbits pruned at Z4 drop only copies.
        # The first bases with lifts are the four k = 4 doubles with
        # alpha = -1 (32 lifts, 4 orbits each) and three k = 4 bordered with
        # alpha = 1 (128 lifts, 32 orbits each).
        bases = [
            CodeSpec("double", Z2, k, 1, a)
            for k in (2, 3, 4)
            for a in helpers.self_dual_double_bases(k)
        ] + [
            CodeSpec("bordered", Z2, k, 1, core, border)
            for k in (2, 3, 4)
            for core, border in helpers.self_dual_bordered_bases(k)
        ]
        for target, outputs in ((Z8, 16), (Z8.with_alpha(1), 96)):
            lifted = 0
            for base in bases:
                got = list(nested_lift(base, target))
                assert helpers.covers_preimages_once(base, target, got), (target, base)
                lifted += len(got)
            assert lifted == outputs, target

    @pytest.mark.parametrize(
        "ring, alpha, target",
        [
            (Z2, 1, Z4),
            (Z2, 1, Z4.with_alpha(1)),
            (F3, 2, Z9),
            (ChainRing(3, 1, 1), 1, Z9.with_alpha(1)),
        ],
        ids=["F2-Z4-nega", "F2-Z4-circ", "F3-Z9-nega", "F3-Z9-circ"],
    )
    def test_one_lift_per_orbit(self, ring, alpha, target):
        # one level: the outputs are the first oracle lift of each orbit, in
        # solution order, and their orbits cover every preimage exactly once
        bases = [
            CodeSpec("double", ring, k, alpha, a)
            for k in range(1, 5)
            for a in helpers.self_dual_double_bases(k, ring.p, alpha)
        ]
        bases += [
            CodeSpec("bordered", ring, k, alpha, core, border)
            for k in range(2, 5)
            for core, border in helpers.self_dual_bordered_bases(k, ring.p, alpha)
        ]
        for base in bases:
            got = list(nested_lift(base, target))
            assert helpers.covers_preimages_once(base, target, got), base
            firsts, covered = [], set()
            for spec in helpers.all_nested_lifts(base, target):
                if (spec.a, spec.border) not in covered:
                    firsts.append(spec)
                    covered |= helpers.spec_orbit(spec)
            assert got == firsts, base

    def test_pruning_happens(self):
        # k = 4 over Z4 has 8 self-dual lifts in 2 orbits
        base = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        assert len(helpers.all_nested_lifts(base, Z4)) == 8
        assert len(list(nested_lift(base, Z4))) == 2

    def test_all_outputs_self_dual_and_project(self):
        base = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        specs = list(nested_lift(base, Z8))
        assert specs
        for spec in specs:
            assert spec.ring == Z8
            assert is_self_dual(spec)
            assert tuple(c % 2 for c in spec.a) == base.a

    def test_rejects_non_field_base(self):
        with pytest.raises(ValueError):
            list(nested_lift(CodeSpec("double", Z4, 2, 3, (1, 0)), Z8))


class TestEnumerateLifts:
    def test_empty_solution_set(self):
        from alphacirc.lifting import LiftSolutionSet

        base = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        empty = LiftSolutionSet(None, (), 2)
        assert list(enumerate_lifts(base, Z4, empty)) == []

    def test_unique_lift(self):
        # a zero-dimensional solution space still yields its one lift, with
        # integer (not float) coordinates
        base = CodeSpec("double", ChainRing(5, 1, 1), 1, 1, (2,))
        lifts = [spec.a for spec in self_dual_lifts(base, ChainRing(5, 2, 1))]
        assert lifts == [(7,)] and type(lifts[0][0]) is int

    def test_projection_property(self):
        base = CodeSpec("bordered", Z2, 4, 1, (1, 1, 0), border=(0, 1, 1))
        for spec in self_dual_lifts(base, Z4):
            assert tuple(c % 2 for c in spec.a) == base.a
            assert tuple(b % 2 for b in spec.border) == base.border
            assert is_self_dual(spec)
