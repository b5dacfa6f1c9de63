import itertools
import random

import numpy as np
import pytest

import helpers
from alphacirc import (
    ChainRing,
    ChainRingError,
    CodeSpec,
    cir,
    format_vector,
    generator_matrix,
    is_self_dual,
    parse_vector,
)
from alphacirc.circulant import self_dual_mask

Z2 = ChainRing(2, 1)
Z4 = ChainRing(2, 2)
Z9 = ChainRing(3, 2)
F3 = ChainRing(3, 1)


def rand_vec(ring, k, rng):
    return tuple(rng.randrange(ring.size) for _ in range(k))


class TestCir:
    def test_example_z4(self):
        A = cir((1, 2, 0), 3, 4)
        assert A.tolist() == [[1, 2, 0], [0, 1, 2], [2, 0, 1]]

    def test_unit_vector_gives_shift_matrix(self):
        # ones above the diagonal and alpha in the bottom-left corner
        for ring, k, alpha in [(Z4, 4, 3), (Z2, 5, 1), (Z9, 3, 8)]:
            e1 = (0, 1) + (0,) * (k - 2)
            T = np.eye(k, k=1, dtype=np.int64)
            T[k - 1, 0] = alpha
            assert np.array_equal(cir(e1, alpha, ring.size), T)

    def test_constant_one_is_identity(self):
        assert np.array_equal(cir((1, 0), 1, 2), np.eye(2))

    def test_rejects_a_coordinate_outside_the_ring(self):
        # the error names the first coordinate, core then border, that is no residue
        for a, border, bad in [((3, 4, -1), None, "4"), ((0, -1), None, "-1"),
                               ((0, 1), (1, 2, 9), "9")]:
            with pytest.raises(ChainRingError, match=rf"^{bad} is not a residue in \[0, 4\)$"):
                CodeSpec(Z4, 1, a, border)

    def test_rejects_non_unit_alpha(self):
        # 7 and -1 reduce to the unit 3, but are no residues of Z4
        for alpha in (2, 7, -1):
            with pytest.raises(ChainRingError, match="alpha"):
                CodeSpec(Z4, alpha, (1, 0))


class TestCircMul:
    """Products of alpha-circulants are the circulants of the products in
    R[x]/(x^k - alpha)."""

    def test_x_squared_is_alpha(self):
        x = cir((0, 1), 3, 4)
        assert np.array_equal(x @ x % 4, cir((3, 0), 3, 4))

    def test_one_plus_x_squared_matches_matrix_product(self):
        M = cir((1, 1), 3, 4)
        assert M.tolist() == [[1, 1], [3, 1]]
        assert (M @ M % 4).tolist() == [[0, 2], [2, 0]]
        assert np.array_equal(M @ M % 4, cir((0, 2), 3, 4))

    def test_multiplicative_identity(self):
        rng = random.Random(0)
        one = cir((1, 0, 0, 0), 3, 4)
        for _ in range(20):
            f = cir(rand_vec(Z4, 4, rng), 3, 4)
            assert np.array_equal(f @ one % 4, f)


class TestIsAlphaCirculant:
    """The first-row oracle in `helpers` against commuting with T_alpha."""

    def test_shift_matrix(self):
        assert helpers.is_alpha_circulant(helpers.shift_matrix(Z4, 4, 3), Z4, 3)

    def test_derived_true_case(self):
        A, T = np.array([[0, 2], [2, 0]]), helpers.shift_matrix(Z4, 2, 3)
        assert helpers.is_alpha_circulant(A, Z4, 3)
        assert np.array_equal(A @ T % 4, T @ A % 4)

    def test_derived_false_case(self):
        A, T = np.array([[1, 0], [1, 1]]), helpers.shift_matrix(Z4, 2, 3)
        assert not helpers.is_alpha_circulant(A, Z4, 3)
        assert not np.array_equal(A @ T % 4, T @ A % 4)

    def test_extraction_roundtrip(self):
        rng = random.Random(1)
        for _ in range(50):
            v = rand_vec(Z4, 5, rng)
            A = cir(v, 3, 4)
            assert helpers.is_alpha_circulant(A, Z4, 3)
            assert tuple(A[0].tolist()) == v


class TestGeneratorMatrix:
    def test_double_binary(self):
        spec = CodeSpec(Z2, 1, (1, 1, 1, 0))
        G = generator_matrix(spec)
        assert G.shape == (4, 8)
        assert np.array_equal(G[:, :4], np.eye(4))
        assert np.array_equal(G[:, 4:], cir((1, 1, 1, 0), 1, 2))

    def test_bordered_top_row(self):
        spec = CodeSpec(Z4, 1, (1, 2, 3), border=(2, 1, 3))
        G = generator_matrix(spec)
        assert G[0, 4:].tolist() == [2, 1, 1, 1]
        assert G[1:, 4].tolist() == [3, 3, 3]

    def test_bordered_border_needs_three_entries(self):
        for border in ((2, 1), (2, 1, 3, 0)):
            with pytest.raises(ValueError):
                CodeSpec(Z4, 1, (1, 2, 3), border=border)

    def test_double_z4_rows(self):
        spec = CodeSpec(Z4, 3, (1, 3, 3, 0))
        right = generator_matrix(spec)[:, 4:]
        assert right.tolist() == [[1, 3, 3, 0], [0, 1, 3, 3], [1, 0, 1, 3], [1, 1, 0, 1]]

    @pytest.mark.parametrize("name", ["z4", "z8", "z9"])
    @pytest.mark.parametrize("bordered", [False, True])
    def test_matches_dense_oracle(self, name, bordered):
        # (I | right) written entry by entry: the corner, top row and left
        # column of the border, then a_{j-i} on and above the core's
        # diagonal and alpha a_{k+j-i} below it, all mod |R|; every unit
        # alpha and core lengths 1 to 6, in both shapes
        ring, rng = ChainRing.from_name(name), random.Random(11)
        alphas = [u for u in range(ring.size) if ring.is_unit(u)]
        for alpha, core in itertools.product(alphas, range(1, 7)):
            k = core + bordered
            a = rand_vec(ring, core, rng)
            border = rand_vec(ring, 3, rng) if bordered else None
            dense = [[int(i == j) for j in range(k)] + [0] * k for i in range(k)]
            if bordered:
                dense[0][k:] = [border[0]] + [border[1]] * core
                for i in range(1, k):
                    dense[i][k] = border[2]
            for i, j in itertools.product(range(core), repeat=2):
                coef = a[j - i] if j >= i else alpha * a[core + j - i]
                dense[k - core + i][2 * k - core + j] = coef % ring.size
            G = generator_matrix(CodeSpec(ring, alpha, a, border))
            assert G.dtype == np.int64 and G.tolist() == dense


class TestSelfDual:
    def test_binary_extended_hamming_generator(self):
        assert is_self_dual(CodeSpec(Z2, 1, (1, 1, 1, 0)))

    def test_z4_counterexample(self):
        assert not is_self_dual(CodeSpec(Z4, 3, (1, 0)))

    def test_z4_lifted_code(self):
        assert is_self_dual(CodeSpec(Z4, 3, (1, 3, 3, 0)))

    def test_double_matches_minus_identity_condition(self):
        rng = random.Random(2)
        for _ in range(100):
            k = rng.randrange(2, 6)
            v = rand_vec(Z4, k, rng)
            A = cir(v, 3, 4)
            minus_i = (Z4.size - 1) * np.eye(k, dtype=np.int64) % 4
            expected = np.array_equal(A @ A.T % 4, minus_i)
            assert is_self_dual(CodeSpec(Z4, 3, v)) == expected


class TestSelfDualMask:
    @pytest.mark.parametrize(
        "ring, alpha, max_k",
        [(Z2, 1, 10), (F3, 1, 6), (F3, 2, 6), (Z4, 1, 4), (Z4, 3, 4)],
        ids=["f2", "f3", "f3-nega", "z4", "z4-nega"],
    )
    def test_matches_is_self_dual_on_every_word(self, ring, alpha, max_k):
        # every word, not only the base candidates, and every border of every core
        size = ring.size
        borders = list(itertools.product(range(size), repeat=3))
        for k in range(1, max_k + 1):
            words = list(itertools.product(range(size), repeat=k))
            expected = [is_self_dual(CodeSpec(ring, alpha, a)) for a in words]
            assert self_dual_mask(ring, alpha, words).tolist() == expected, k
            if alpha == 1 and k >= 2:
                cores = list(itertools.product(range(size), repeat=k - 1))
                expected = [[is_self_dual(CodeSpec(ring, 1, a, b)) for b in borders] for a in cores]
                assert self_dual_mask(ring, 1, cores, borders).tolist() == expected, k

    def test_rejects_alpha_outside_the_row_0_argument(self):
        with pytest.raises(ValueError):
            self_dual_mask(ChainRing(5, 1), 2, [(1, 0)])
        with pytest.raises(ValueError):
            self_dual_mask(F3, 2, [(1, 0)], [(0, 0, 0)])


class TestAlgebraProperties:
    def test_homomorphism_identities(self):
        rng = random.Random(4)
        for _ in range(1000):
            ring, alpha = rng.choice([(Z4, 3), (Z4, 1), (Z9, 8), (Z2, 1)])
            k = rng.randrange(2, 6)
            f, g = rand_vec(ring, k, rng), rand_vec(ring, k, rng)
            lam = rng.randrange(ring.size)
            mod = ring.size
            F, G = cir(f, alpha, mod), cir(g, alpha, mod)
            assert np.array_equal(
                cir(tuple((x + y) % mod for x, y in zip(f, g)), alpha, mod), (F + G) % mod
            )
            assert np.array_equal(cir(tuple(lam * x % mod for x in f), alpha, mod), lam * F % mod)
            # cir(f g) = cir(f) cir(g): the product is the circulant of its first row
            assert helpers.is_alpha_circulant(F @ G % mod, ring, alpha)

    def test_shift_matrix_power(self):
        for ring, k, alpha in [(Z4, 4, 3), (Z9, 5, 8), (Z4, 3, 1)]:
            T = helpers.shift_matrix(ring, k, alpha)
            P = np.linalg.matrix_power(T, k) % ring.size
            assert np.array_equal(P, alpha * np.eye(k, dtype=np.int64) % ring.size)

    def test_cir_is_shift_polynomial(self):
        rng = random.Random(5)
        for _ in range(100):
            k = rng.randrange(2, 6)
            v = rand_vec(Z4, k, rng)
            T = helpers.shift_matrix(Z4, k, 3)
            acc = np.zeros((k, k), dtype=np.int64)
            P = np.eye(k, dtype=np.int64)
            for c in v:
                acc = (acc + c * P) % 4
                P = P @ T % 4
            assert np.array_equal(cir(v, 3, 4), acc)


class TestSerialization:
    def test_roundtrip(self):
        assert parse_vector("1,3,3,0") == (1, 3, 3, 0)
        assert format_vector((1, 3, 3, 0)) == "1,3,3,0"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_vector("1,x,3")
