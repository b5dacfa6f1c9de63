import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from alphacirc import (
    ChainRing,
    ChainRingError,
    CodeSpec,
    canonical_form,
    cir,
    is_self_dual,
)
from alphacirc.equivalence import (
    _group,
    _least_images,
    _shift_leaders,
    canonical_form_bordered,
    shift_right,
    substitute,
)

Z2 = ChainRing(2, 1)
F3 = ChainRing(3, 1)
Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
Z9 = ChainRing(3, 2)


def rand_vec(ring, k, alpha, rng):
    return CodeSpec(ring, alpha, tuple(rng.randrange(ring.size) for _ in range(k)))


def moved(pair, a):
    """The generating vector of N^{-1} cir(a) M."""
    return tuple(helpers.act(pair, a)[0].tolist())


def closed_form(name, spec):
    """The closed form in `equivalence` (or the oracle's) for a generator
    pair, applied to the spec's generating vector."""
    a, alpha, mod = spec.a, spec.alpha, spec.ring.size
    if name == "shift_right":
        return shift_right(a, alpha, mod)
    if name == "shift_left":
        return helpers.shift_left(a, alpha, mod)
    if name.startswith("scale_"):
        return helpers.scale(a, int(name[len("scale_"):]), mod)
    return substitute(a, alpha, mod, int(name[len("s_map_"):]))


class TestAct:
    def test_shift_right(self):
        a = CodeSpec(Z2, 1, (1, 1, 1, 0))
        assert shift_right(a.a, 1, 2) == (0, 1, 1, 1)
        pair = helpers.generator_pairs(Z2, 4, 1)[0][1]
        assert moved(pair, a) == (0, 1, 1, 1)

    def test_shift_left(self):
        a = CodeSpec(Z2, 1, (1, 1, 1, 0))
        assert helpers.shift_left(a.a, 1, 2) == (1, 1, 0, 1)
        pair = helpers.generator_pairs(Z2, 4, 1)[1][1]
        assert moved(pair, a) == (1, 1, 0, 1)

    def test_scalar(self):
        assert helpers.scale((1, 2, 0, 1), 3, 4) == (3, 2, 0, 3)

    def test_closed_forms_match_matrices(self):
        rng = random.Random(1)
        for ring, k, alpha in [(Z4, 4, 3), (Z4, 6, 1), (Z2, 5, 1), (Z9, 4, 8)]:
            for name, pair in helpers.generator_pairs(ring, k, alpha):
                for _ in range(20):
                    a = rand_vec(ring, k, alpha, rng)
                    B = helpers.act(pair, a)
                    assert helpers.is_alpha_circulant(B, ring, alpha), name
                    assert np.array_equal(B, cir(closed_form(name, a), alpha, ring.size)), name


class TestSMap:
    def test_substitution_example_z4(self):
        # x -> (3x)^3 = 3x^3 in Z4[x]/(x^4 - 3)
        pair = dict(helpers.generator_pairs(Z4, 4, 3))["s_map_3"]
        assert moved(pair, CodeSpec(Z4, 3, (0, 1, 0, 0))) == (0, 0, 0, 3)
        assert substitute((0, 1, 0, 0), 3, 4, 3) == (0, 0, 0, 3)

    def test_s_one_alpha_one_is_identity(self):
        ring = ChainRing(2, 2)
        pair = dict(helpers.generator_pairs(ring, 4, 1))["s_map_1"]
        a = CodeSpec(ring, 1, (1, 2, 0, 3))
        assert moved(pair, a) == a.a

    def test_substitution_example_z2(self):
        assert substitute((1, 1, 1, 0), 1, 2, 3) == (1, 0, 1, 1)

    def test_requires_coprime_s(self):
        with pytest.raises(ValueError):
            substitute((1, 0, 0, 0), 3, 4, 2)

    def test_rejects_s_outside_one_to_k(self):
        # s = 0 is coprime to k = 1, but only s in [1, k) names a substitution
        for a, alpha, s in (((1,), 1, 0), ((1, 0, 0), 3, 4)):
            with pytest.raises(ValueError):
                substitute(a, alpha, 4, s)

    def test_pairs_are_orthogonal(self):
        pairs = dict(helpers.generator_pairs(Z4, 8, 3))
        for s in (1, 3, 5, 7):
            _, M = pairs[f"s_map_{s}"]
            assert np.array_equal(M @ M.T % 4, np.eye(8, dtype=np.int64))

    def test_conjugation_matches_substitution(self):
        rng = random.Random(2)
        for ring, k, alpha in [(Z4, 4, 3), (Z4, 8, 3), (Z4, 5, 1), (Z9, 6, 8)]:
            pairs = dict(helpers.generator_pairs(ring, k, alpha))
            for s in range(1, k):
                if math.gcd(s, k) != 1:
                    continue
                if pow(alpha, s * (k + 1) - 1, ring.size) != 1:
                    continue
                pair = pairs[f"s_map_{s}"]
                for _ in range(20):
                    f = rand_vec(ring, k, alpha, rng)
                    assert moved(pair, f) == substitute(f.a, alpha, ring.size, s)


class TestTypeShift:
    def test_z9_instance(self):
        M = helpers.type_shift(Z9, 3, 2, 1)
        assert np.diag(M).tolist() == [1, 2, 4]
        res = helpers.act((M, M), CodeSpec(Z9, 2, (0, 1, 0)))
        # 2-circulant becomes 2^{1-3} = 7-circulant
        assert np.array_equal(res, cir((0, 2, 0), 7, 9))

    def test_alpha_one_is_noop(self):
        M = helpers.type_shift(Z4, 5, 1, 3)
        assert np.array_equal(M, np.eye(5, dtype=np.int64))

    def test_z4_orthogonal_case(self):
        M = helpers.type_shift(Z4, 2, 3, 1)
        assert np.diag(M).tolist() == [1, 3]
        assert np.array_equal(M @ M.T % 4, np.eye(2, dtype=np.int64))

    def test_oracle_inverts_non_sign_entries(self):
        # N^{-1} cir(1) N = I needs the inverses 5 and 7 of 2 and 4 over Z9
        M = helpers.type_shift(Z9, 3, 2, 1)
        identity = helpers.act((M, M), CodeSpec(Z9, 2, (1, 0, 0)))
        assert np.array_equal(identity, np.eye(3, dtype=np.int64))

    def test_lemma_on_random_matrices(self):
        rng = random.Random(3)
        ring, alpha, k = Z9, 2, 3
        for _ in range(100):
            i = rng.randrange(0, 4)
            j = rng.randrange(0, 3)
            a = CodeSpec(ring, pow(alpha, i, 9), tuple(rng.randrange(9) for _ in range(k)))
            M = helpers.type_shift(ring, k, alpha, j)
            res = helpers.act((M, M), a)
            new_type = pow(alpha, i - k * j, 9)
            assert helpers.is_alpha_circulant(res, ring, new_type)


class TestCanonicalForm:
    def test_example(self):
        assert canonical_form(CodeSpec(Z2, 1, (1, 1, 1, 0))) == CodeSpec(Z2, 1, (0, 1, 1, 1))

    def test_zero_fixed_point(self):
        assert canonical_form(CodeSpec(Z2, 1, (0, 0, 0, 0))).a == (0, 0, 0, 0)

    def test_substitution_image_same_form(self):
        v = CodeSpec(Z2, 1, (1, 0, 1, 1, 1, 0, 0, 0))
        w = CodeSpec(Z2, 1, substitute(v.a, 1, 2, 3))
        assert canonical_form(v) == canonical_form(w)

    def test_idempotent_and_orbit_constant(self):
        rng = random.Random(4)
        for _ in range(30):
            a = rand_vec(Z4, 4, 3, rng)
            c = canonical_form(a)
            assert canonical_form(c) == c
            for name, pair in helpers.generator_pairs(Z4, 4, 3):
                image = CodeSpec(Z4, 3, moved(pair, a))
                assert canonical_form(image) == c, name

    def test_self_duality_preserved_by_action(self):
        # the orthogonal generators map self-dual vectors to self-dual vectors
        rng = random.Random(5)
        pool = [(4, a) for a in helpers.self_dual_double_bases(4)]
        pool += [(6, a) for a in helpers.self_dual_double_bases(6)]
        assert pool
        for _ in range(200):
            k, a = rng.choice(pool)
            name, pair = rng.choice(helpers.generator_pairs(Z2, k, 1))
            image = moved(pair, CodeSpec(Z2, 1, a))
            assert is_self_dual(CodeSpec(Z2, 1, image)), name

    def test_counterexample_vectors_distinct(self):
        v = tuple(int(c) for c in "1111101011011010")
        w = tuple(int(c) for c in "1110010011100000")
        assert canonical_form(CodeSpec(Z2, 1, v)) != canonical_form(CodeSpec(Z2, 1, w))

    def test_double_form_rejects_border(self):
        # the double group would drop the border rather than canonicalize it
        with pytest.raises(ValueError):
            canonical_form(CodeSpec(Z2, 1, (1, 1, 0), (0, 1, 1)))

    def test_bordered_form_rejects_double(self):
        # the bordered group would multiply a missing border
        with pytest.raises(ValueError, match="canonical_form"):
            canonical_form_bordered(CodeSpec(Z2, 1, (1, 1, 0)))

    def test_bordered_restricted_group(self):
        core, border = (1, 1, 0), (0, 1, 1)
        canon = canonical_form_bordered(CodeSpec(Z2, 1, core, border))
        # shifting the core must not change the canonical spec
        shifted = CodeSpec(Z2, 1, shift_right(core, 1, 2), border)
        assert canonical_form_bordered(shifted) == canon


class TestGroupAgainstOracle:
    """The cached group against the per-vector breadth-first closure."""

    @staticmethod
    def group_orbit(spec):
        mod = spec.ring.size
        bordered = spec.border is not None
        gather, mult = _group(spec.ring, len(spec.a), spec.alpha, bordered)
        images = (mult * np.array(spec.a + (spec.border or ()))[gather] % mod).tolist()
        if spec.border is None:
            return {tuple(row) for row in images}
        k = len(spec.a)
        return {(tuple(row[:k]), tuple(row[k:])) for row in images}

    @pytest.mark.parametrize(
        "ring, alpha, k_max",
        [(Z2, 1, 8), (F3, 2, 6), (Z4, 1, 5), (Z4, 3, 5), (Z8, 7, 4), (Z9, 8, 4)],
        ids=["Z2", "F3-nega", "Z4-circ", "Z4-nega", "Z8-nega", "Z9-nega"],
    )
    def test_every_vector(self, ring, alpha, k_max):
        for k in range(1, k_max + 1):
            covered = set()
            for coeffs in itertools.product(range(ring.size), repeat=k):
                if coeffs in covered:
                    continue
                spec = CodeSpec(ring, alpha, coeffs)
                orbit = helpers.orbit(spec)
                covered |= orbit
                assert self.group_orbit(spec) == orbit
                for w in orbit:
                    assert canonical_form(CodeSpec(ring, alpha, w)).a == min(orbit)

    @pytest.mark.parametrize(
        "ring, alpha, max_core",
        [(Z2, 1, 7), (ChainRing(3, 1), 1, 5), (F3, 2, 5)],
        ids=["F2", "F3", "F3-nega"],
    )
    def test_every_bordered_pair(self, ring, alpha, max_core):
        # with alpha = -1 some substitutions have a non-scalar diagonal part
        for core_len in range(1, max_core + 1):
            covered = set()
            pairs = itertools.product(
                itertools.product(range(ring.size), repeat=core_len),
                itertools.product(range(ring.size), repeat=3),
            )
            for core, border in pairs:
                if (core, border) in covered:
                    continue
                spec = CodeSpec(ring, alpha, core, border)
                orbit = helpers.bordered_orbit(spec)
                covered |= orbit
                assert self.group_orbit(spec) == orbit
                best = CodeSpec(ring, alpha, *min(orbit, key=lambda st: st[0] + st[1]))
                for w_core, w_border in orbit:
                    assert canonical_form_bordered(CodeSpec(ring, alpha, w_core, w_border)) == best


class TestLeastImages:
    """The one routine that applies group elements, against the minimum of
    the breadth-first orbits."""

    @pytest.mark.parametrize("bordered", [False, True], ids=["double", "bordered"])
    @pytest.mark.parametrize(
        "ring", [Z4, Z8, Z9, ChainRing(5, 2)], ids=["Z4", "Z8", "Z9", "Z25"]
    )
    def test_matches_orbit_minimum(self, ring, bordered):
        # over Z25 the products reach 24^2, beyond uint8 before reduction
        rng = random.Random(f"{ring.name}-{bordered}")

        def residues(count):
            return tuple(rng.randrange(ring.size) for _ in range(count))

        for alpha in (1, ring.size - 1):
            for k in range(1, 6):
                specs = [CodeSpec(ring, alpha, residues(k), residues(3) if bordered else None)
                         for _ in range(4)]
                gather, mult = _group(ring, k, alpha, bordered)
                # the group keeps its multipliers in the product dtype, read-only
                assert mult.dtype == np.min_scalar_type((ring.size - 1) ** 2)
                assert not mult.flags.writeable
                keys = _least_images([spec.coords for spec in specs], gather, mult, ring.size)
                assert keys.shape == (4,) and keys.dtype == f"S{k + 3 * bordered}"
                # the keys' uint8 view holds the rows, trailing zeros included
                least = keys[:, None].view(np.uint8)
                assert least.shape == (4, k + 3 * bordered)
                for spec, row in zip(specs, least.tolist()):
                    if bordered:
                        orbit = {core + border for core, border in helpers.bordered_orbit(spec)}
                    else:
                        orbit = helpers.orbit(spec)
                    assert tuple(row) == min(orbit), (alpha, spec)

    def test_rejects_rings_beyond_a_byte(self):
        # the least images are uint8 rows, so Z_289 would wrap silently
        with pytest.raises(ChainRingError, match="256"):
            canonical_form(CodeSpec(ChainRing(17, 2), 1, (288, 5, 3)))


@st.composite
def specs(draw):
    ring = draw(st.sampled_from([Z2, F3, Z4, Z8, Z9]))
    alpha = draw(st.sampled_from([u for u in range(ring.size) if ring.is_unit(u)]))
    residue = st.integers(0, ring.size - 1)
    a = tuple(draw(st.lists(residue, min_size=1, max_size=8)))
    return CodeSpec(ring, alpha, a, draw(st.none() | st.tuples(residue, residue, residue)))


@given(specs())
def test_with_coords_round_trip(spec):
    # the core, then the border, and back to a spec of the same shape
    assert len(spec.coords) == len(spec.a) + 3 * (spec.border is not None)
    assert spec.with_coords(spec.ring, spec.alpha, spec.coords) == spec


class TestGroupIsLeeIsometric:
    """Every element is a signed coordinate permutation, so it keeps Lee
    weight: the other square roots of one (3 and 5 over Z8) must not occur."""

    @pytest.mark.parametrize("bordered", [False, True], ids=["double", "bordered"])
    @pytest.mark.parametrize("ring", [Z4, Z8, Z9], ids=["Z4", "Z8", "Z9"])
    def test_multipliers_are_signs(self, ring, bordered):
        signs = {1, ring.size - 1}
        for alpha in (1, ring.size - 1):
            for k in range(1, 7):
                # the border, if any, is three more coordinates after the core
                gather, mult = _group(ring, k, alpha, bordered)
                t = k + 3 * bordered
                assert set(mult.ravel().tolist()) <= signs, (alpha, k)
                assert all(sorted(row) == list(range(t)) for row in gather.tolist())
                # the negation is in the group, and nothing else scales every entry
                scalars = {m[0] for g, m in zip(gather.tolist(), mult.tolist())
                           if g == list(range(t)) and len(set(m)) == 1}
                assert scalars == signs, (alpha, k)

    def test_rejects_alpha_other_than_sign(self):
        # x^k = 3 over Z8 squares to one, but its shift multiplies by 3
        with pytest.raises(ChainRingError):
            canonical_form(CodeSpec(Z8, 3, (1, 2, 0)))


class TestShiftLeaders:
    @staticmethod
    def brute_force(k, q, alpha):
        # every word that no power of the alpha-shift sends below itself
        leaders = []
        for w in itertools.product(range(q), repeat=k):
            shifted = shift_right(w, alpha, q)
            while shifted > w:
                shifted = shift_right(shifted, alpha, q)
            if shifted == w:
                leaders.append(w)
        return leaders

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_brute_force(self, q, sign):
        # block sizes 1 and q run the prefix test on many blocks, q^k one block
        alpha = sign % q
        for k in range(1, 7):
            expected = self.brute_force(k, q, alpha)
            for block in (1, q, q**k):
                got = [tuple(row) for rows in _shift_leaders(k, q, alpha, block)
                       for row in rows.tolist()]
                assert got == expected, (k, block)

    def test_refuses_words_past_int64(self):
        # 5^28 > 2^63: the codes would overflow
        with pytest.raises(ValueError, match="int64"):
            next(_shift_leaders(28, 5, 1, 4096))
