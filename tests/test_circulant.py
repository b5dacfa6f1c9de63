import random

import numpy as np
import pytest

import helpers
from alphacirc import (
    ChainRing,
    ChainRingError,
    CircVec,
    CodeSpec,
    cir,
    format_vector,
    generator_matrix,
    is_self_dual,
    parse_vector,
)

Z2 = ChainRing(2, 1)
Z4 = ChainRing(2, 2)
Z9 = ChainRing(3, 2)


def rand_vec(ring, k, alpha, rng):
    return CircVec(ring, alpha, tuple(rng.randrange(ring.size) for _ in range(k)))


class TestCir:
    def test_example_z4(self):
        A = cir(CircVec(Z4, 3, (1, 2, 0)))
        assert A.tolist() == [[1, 2, 0], [0, 1, 2], [2, 0, 1]]

    def test_unit_vector_gives_shift_matrix(self):
        # ones above the diagonal and alpha in the bottom-left corner
        for ring, k, alpha in [(Z4, 4, 3), (Z2, 5, 1), (Z9, 3, 8)]:
            e1 = (0, 1) + (0,) * (k - 2)
            T = np.eye(k, k=1, dtype=np.int64)
            T[k - 1, 0] = alpha
            assert np.array_equal(cir(CircVec(ring, alpha, e1)), T)

    def test_constant_one_is_identity(self):
        assert np.array_equal(cir(CircVec(Z2, 1, (1, 0))), np.eye(2))

    def test_rejects_non_unit_alpha(self):
        with pytest.raises(ChainRingError):
            CircVec(Z4, 2, (1, 0))


class TestCircMul:
    """Products of alpha-circulants are the circulants of the products in
    R[x]/(x^k - alpha)."""

    def test_x_squared_is_alpha(self):
        x = cir(CircVec(Z4, 3, (0, 1)))
        assert np.array_equal(x @ x % 4, cir(CircVec(Z4, 3, (3, 0))))

    def test_one_plus_x_squared_matches_matrix_product(self):
        M = cir(CircVec(Z4, 3, (1, 1)))
        assert M.tolist() == [[1, 1], [3, 1]]
        assert (M @ M % 4).tolist() == [[0, 2], [2, 0]]
        assert np.array_equal(M @ M % 4, cir(CircVec(Z4, 3, (0, 2))))

    def test_multiplicative_identity(self):
        rng = random.Random(0)
        one = cir(CircVec(Z4, 3, (1, 0, 0, 0)))
        for _ in range(20):
            f = cir(rand_vec(Z4, 4, 3, rng))
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
            v = rand_vec(Z4, 5, 3, rng)
            A = cir(v)
            assert helpers.is_alpha_circulant(A, Z4, 3)
            assert tuple(A[0].tolist()) == v.coeffs


class TestGeneratorMatrix:
    def test_double_binary(self):
        spec = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        G = generator_matrix(spec)
        assert G.shape == (4, 8)
        assert np.array_equal(G[:, :4], np.eye(4))
        assert np.array_equal(G[:, 4:], cir(CircVec(Z2, 1, (1, 1, 1, 0))))

    def test_bordered_top_row(self):
        spec = CodeSpec("bordered", Z4, 4, 1, (1, 2, 3), border=(2, 1, 3))
        G = generator_matrix(spec)
        assert G[0, 4:].tolist() == [2, 1, 1, 1]
        assert G[1:, 4].tolist() == [3, 3, 3]

    def test_bordered_border_needs_three_entries(self):
        for border in ((2, 1), (2, 1, 3, 0)):
            with pytest.raises(ValueError):
                CodeSpec("bordered", Z4, 4, 1, (1, 2, 3), border=border)

    def test_double_z4_rows(self):
        spec = CodeSpec("double", Z4, 4, 3, (1, 3, 3, 0))
        right = generator_matrix(spec)[:, 4:]
        assert right.tolist() == [[1, 3, 3, 0], [0, 1, 3, 3], [1, 0, 1, 3], [1, 1, 0, 1]]


class TestSelfDual:
    def test_binary_extended_hamming_generator(self):
        assert is_self_dual(CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0)))

    def test_z4_counterexample(self):
        assert not is_self_dual(CodeSpec("double", Z4, 2, 3, (1, 0)))

    def test_z4_lifted_code(self):
        assert is_self_dual(CodeSpec("double", Z4, 4, 3, (1, 3, 3, 0)))

    def test_double_matches_minus_identity_condition(self):
        rng = random.Random(2)
        for _ in range(100):
            k = rng.randrange(2, 6)
            v = rand_vec(Z4, k, 3, rng)
            A = cir(v)
            minus_i = (Z4.size - 1) * np.eye(k, dtype=np.int64) % 4
            expected = np.array_equal(A @ A.T % 4, minus_i)
            assert is_self_dual(CodeSpec("double", Z4, k, 3, v.coeffs)) == expected


class TestAlgebraProperties:
    def test_homomorphism_identities(self):
        rng = random.Random(4)
        for _ in range(1000):
            ring, alpha = rng.choice([(Z4, 3), (Z4, 1), (Z9, 8), (Z2, 1)])
            k = rng.randrange(2, 6)
            f, g = rand_vec(ring, k, alpha, rng), rand_vec(ring, k, alpha, rng)
            lam = rng.randrange(ring.size)
            mod = ring.size
            assert np.array_equal(
                cir(CircVec(ring, alpha, tuple((x + y) % mod for x, y in zip(f.coeffs, g.coeffs)))),
                (cir(f) + cir(g)) % mod,
            )
            assert np.array_equal(
                cir(CircVec(ring, alpha, tuple(lam * x % mod for x in f.coeffs))),
                lam * cir(f) % mod,
            )
            # cir(f g) = cir(f) cir(g): the product is the circulant of its first row
            assert helpers.is_alpha_circulant(cir(f) @ cir(g) % mod, ring, alpha)

    def test_shift_matrix_power(self):
        for ring, k, alpha in [(Z4, 4, 3), (Z9, 5, 8), (Z4, 3, 1)]:
            T = helpers.shift_matrix(ring, k, alpha)
            P = np.linalg.matrix_power(T, k) % ring.size
            assert np.array_equal(P, alpha * np.eye(k, dtype=np.int64) % ring.size)

    def test_cir_is_shift_polynomial(self):
        rng = random.Random(5)
        for _ in range(100):
            k = rng.randrange(2, 6)
            v = rand_vec(Z4, k, 3, rng)
            T = helpers.shift_matrix(Z4, k, 3)
            acc = np.zeros((k, k), dtype=np.int64)
            P = np.eye(k, dtype=np.int64)
            for c in v.coeffs:
                acc = (acc + c * P) % 4
                P = P @ T % 4
            assert np.array_equal(cir(v), acc)


class TestSerialization:
    def test_roundtrip(self):
        assert parse_vector("1,3,3,0") == (1, 3, 3, 0)
        assert format_vector((1, 3, 3, 0)) == "1,3,3,0"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_vector("1,x,3")
