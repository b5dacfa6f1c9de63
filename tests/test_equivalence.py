import itertools
import math
import random

import numpy as np
import pytest

import helpers
from alphacirc import (
    ChainRing,
    ChainRingError,
    CircVec,
    CodeSpec,
    canonical_form,
    cir,
    is_self_dual,
    necklaces,
)
from alphacirc.equivalence import (
    _group,
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
    return CircVec(ring, alpha, tuple(rng.randrange(ring.size) for _ in range(k)))


def moved(pair, a):
    """The generating vector of N^{-1} cir(a) M."""
    return tuple(helpers.act(pair, a)[0].tolist())


def closed_form(name, a):
    """The closed form in `equivalence` (or the oracle's) for a generator pair."""
    if name == "shift_right":
        return shift_right(a)
    if name == "shift_left":
        return helpers.shift_left(a)
    if name.startswith("scale_"):
        return helpers.scale(a, int(name[len("scale_"):]))
    return substitute(a, int(name[len("s_map_"):]))


class TestAct:
    def test_shift_right(self):
        a = CircVec(Z2, 1, (1, 1, 1, 0))
        assert shift_right(a).coeffs == (0, 1, 1, 1)
        pair = helpers.generator_pairs(Z2, 4, 1)[0][1]
        assert moved(pair, a) == (0, 1, 1, 1)

    def test_shift_left(self):
        a = CircVec(Z2, 1, (1, 1, 1, 0))
        assert helpers.shift_left(a).coeffs == (1, 1, 0, 1)
        pair = helpers.generator_pairs(Z2, 4, 1)[1][1]
        assert moved(pair, a) == (1, 1, 0, 1)

    def test_scalar(self):
        a = CircVec(Z4, 3, (1, 2, 0, 1))
        assert helpers.scale(a, 3).coeffs == (3, 2, 0, 3)

    def test_closed_forms_match_matrices(self):
        rng = random.Random(1)
        for ring, k, alpha in [(Z4, 4, 3), (Z4, 6, 1), (Z2, 5, 1), (Z9, 4, 8)]:
            for name, pair in helpers.generator_pairs(ring, k, alpha):
                for _ in range(20):
                    a = rand_vec(ring, k, alpha, rng)
                    B = helpers.act(pair, a)
                    assert helpers.is_alpha_circulant(B, ring, alpha), name
                    assert np.array_equal(B, cir(closed_form(name, a))), name


class TestSMap:
    def test_substitution_example_z4(self):
        # x -> (3x)^3 = 3x^3 in Z4[x]/(x^4 - 3)
        pair = dict(helpers.generator_pairs(Z4, 4, 3))["s_map_3"]
        assert moved(pair, CircVec(Z4, 3, (0, 1, 0, 0))) == (0, 0, 0, 3)
        assert substitute(CircVec(Z4, 3, (0, 1, 0, 0)), 3).coeffs == (0, 0, 0, 3)

    def test_s_one_alpha_one_is_identity(self):
        ring = ChainRing(2, 2)
        pair = dict(helpers.generator_pairs(ring, 4, 1))["s_map_1"]
        a = CircVec(ring, 1, (1, 2, 0, 3))
        assert moved(pair, a) == a.coeffs

    def test_substitution_example_z2(self):
        assert substitute(CircVec(Z2, 1, (1, 1, 1, 0)), 3).coeffs == (1, 0, 1, 1)

    def test_requires_coprime_s(self):
        with pytest.raises(ValueError):
            substitute(CircVec(Z4, 3, (1, 0, 0, 0)), 2)

    def test_rejects_s_outside_one_to_k(self):
        # s = 0 is coprime to k = 1, but only s in [1, k) names a substitution
        for a, s in ((CircVec(Z4, 1, (1,)), 0), (CircVec(Z4, 3, (1, 0, 0)), 4)):
            with pytest.raises(ValueError):
                substitute(a, s)

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
                    assert moved(pair, f) == substitute(f, s).coeffs


class TestTypeShift:
    def test_z9_instance(self):
        M = helpers.type_shift(Z9, 3, 2, 1)
        assert np.diag(M).tolist() == [1, 2, 4]
        res = helpers.act((M, M), CircVec(Z9, 2, (0, 1, 0)))
        # 2-circulant becomes 2^{1-3} = 7-circulant
        assert np.array_equal(res, cir(CircVec(ChainRing(3, 2), 7, (0, 2, 0))))

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
        identity = helpers.act((M, M), CircVec(Z9, 2, (1, 0, 0)))
        assert np.array_equal(identity, np.eye(3, dtype=np.int64))

    def test_lemma_on_random_matrices(self):
        rng = random.Random(3)
        ring, alpha, k = Z9, 2, 3
        for _ in range(100):
            i = rng.randrange(0, 4)
            j = rng.randrange(0, 3)
            a = CircVec(ring, pow(alpha, i, 9), tuple(rng.randrange(9) for _ in range(k)))
            M = helpers.type_shift(ring, k, alpha, j)
            res = helpers.act((M, M), a)
            new_type = pow(alpha, i - k * j, 9)
            assert helpers.is_alpha_circulant(res, ring, new_type)


class TestCanonicalForm:
    def test_example(self):
        assert canonical_form(CircVec(Z2, 1, (1, 1, 1, 0))).coeffs == (0, 1, 1, 1)

    def test_zero_fixed_point(self):
        assert canonical_form(CircVec(Z2, 1, (0, 0, 0, 0))).coeffs == (0, 0, 0, 0)

    def test_substitution_image_same_form(self):
        v = CircVec(Z2, 1, (1, 0, 1, 1, 1, 0, 0, 0))
        w = substitute(v, 3)
        assert canonical_form(v).coeffs == canonical_form(w).coeffs

    def test_idempotent_and_orbit_constant(self):
        rng = random.Random(4)
        for _ in range(30):
            a = rand_vec(Z4, 4, 3, rng)
            c = canonical_form(a)
            assert canonical_form(c).coeffs == c.coeffs
            for name, pair in helpers.generator_pairs(Z4, 4, 3):
                image = CircVec(Z4, 3, moved(pair, a))
                assert canonical_form(image).coeffs == c.coeffs, name

    def test_self_duality_preserved_by_action(self):
        # the orthogonal generators map self-dual vectors to self-dual vectors
        rng = random.Random(5)
        pool = [(4, a) for a in helpers.self_dual_double_bases(4)]
        pool += [(6, a) for a in helpers.self_dual_double_bases(6)]
        assert pool
        for _ in range(200):
            k, a = rng.choice(pool)
            name, pair = rng.choice(helpers.generator_pairs(Z2, k, 1))
            image = moved(pair, CircVec(Z2, 1, a))
            assert is_self_dual(CodeSpec("double", Z2, k, 1, image)), name

    def test_counterexample_vectors_distinct(self):
        v = tuple(int(c) for c in "1111101011011010")
        w = tuple(int(c) for c in "1110010011100000")
        assert canonical_form(CircVec(Z2, 1, v)).coeffs != canonical_form(CircVec(Z2, 1, w)).coeffs

    def test_bordered_restricted_group(self):
        core, border = (1, 1, 0), (0, 1, 1)
        canon = canonical_form_bordered(CircVec(Z2, 1, core), border)
        # shifting the core must not change the canonical pair
        shifted = shift_right(CircVec(Z2, 1, core))
        assert canonical_form_bordered(shifted, border) == canon


class TestGroupAgainstOracle:
    """The cached group against the per-vector breadth-first closure."""

    @staticmethod
    def group_orbit(a, border=None):
        gather, mult, border_mult = _group(a.ring, a.k, a.alpha, border is not None)
        images = mult * np.array(a.coeffs)[gather] % a.ring.size
        if border is None:
            return {tuple(row) for row in images.tolist()}
        borders = np.outer(border_mult, border) % a.ring.size
        return set(zip(map(tuple, images.tolist()), map(tuple, borders.tolist())))

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
                orbit = helpers.orbit(CircVec(ring, alpha, coeffs))
                covered |= orbit
                assert self.group_orbit(CircVec(ring, alpha, coeffs)) == orbit
                for w in orbit:
                    assert canonical_form(CircVec(ring, alpha, w)).coeffs == min(orbit)

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
                a = CircVec(ring, alpha, core)
                orbit = helpers.bordered_orbit(a, border)
                covered |= orbit
                assert self.group_orbit(a, border) == orbit
                best = min(orbit, key=lambda st: st[0] + st[1])
                for w_core, w_border in orbit:
                    assert canonical_form_bordered(CircVec(ring, alpha, w_core), w_border) == best


class TestGroupIsLeeIsometric:
    """Every element is a signed coordinate permutation, so it keeps Lee
    weight: the other square roots of one (3 and 5 over Z8) must not occur."""

    @pytest.mark.parametrize("bordered", [False, True], ids=["double", "bordered"])
    @pytest.mark.parametrize("ring", [Z4, Z8, Z9], ids=["Z4", "Z8", "Z9"])
    def test_multipliers_are_signs(self, ring, bordered):
        signs = {1, ring.size - 1}
        for alpha in (1, ring.size - 1):
            for k in range(1, 7):
                gather, mult, border_mult = _group(ring, k, alpha, bordered)
                assert set(mult.ravel().tolist()) <= signs, (alpha, k)
                assert set(border_mult.tolist()) <= signs, (alpha, k)
                assert all(sorted(row) == list(range(k)) for row in gather.tolist())
                # the negation is in the group, and nothing else scales every entry
                scalars = {m[0] for g, m in zip(gather.tolist(), mult.tolist())
                           if g == list(range(k)) and len(set(m)) == 1}
                assert scalars == signs, (alpha, k)

    def test_rejects_alpha_other_than_sign(self):
        # x^k = 3 over Z8 squares to one, but its shift multiplies by 3
        with pytest.raises(ChainRingError):
            canonical_form(CircVec(Z8, 3, (1, 2, 0)))


class TestNecklaces:
    def test_k4_q2(self):
        assert list(necklaces(4, 2)) == [
            (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1),
        ]

    def test_k1(self):
        assert list(necklaces(1, 2)) == [(0,), (1,)]
        assert list(necklaces(1, 3)) == [(0,), (1,), (2,)]

    def test_k2(self):
        assert list(necklaces(2, 2)) == [(0, 0), (0, 1), (1, 1)]

    def test_count(self):
        # number of necklaces: (1/k) sum_{d | k} phi(d) q^{k/d}
        def phi(n):
            return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)

        for k, q in [(4, 2), (6, 2), (8, 2), (12, 2), (5, 3), (6, 3), (4, 4), (3, 9)]:
            expected = sum(phi(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
            assert len(list(necklaces(k, q))) == expected

    def test_words_are_least_rotations(self):
        for k, q in [(6, 2), (4, 3)]:
            for w in necklaces(k, q):
                assert all(w <= w[i:] + w[:i] for i in range(1, k))

    def test_every_rotation_class_once_in_lex_order(self):
        for k in range(1, 7):
            for q in (2, 3):
                words = list(necklaces(k, q))
                assert words == sorted(set(words))
                classes = {
                    min(w[i:] + w[:i] for i in range(k))
                    for w in itertools.product(range(q), repeat=k)
                }
                assert set(words) == classes
