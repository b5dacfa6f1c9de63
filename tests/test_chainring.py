import random

import pytest
from hypothesis import given, strategies as st

from alphacirc import ChainRing, ChainRingError

Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
Z9 = ChainRing(3, 2)


def project(ring, x, levels=1):
    """The canonical projection R -> R / (theta^{m-levels})."""
    return x % ring.quotient(levels).size


class TestDescriptor:
    def test_basic_parameters(self):
        assert Z4.size == 4 and Z4.p == 2 and Z4.name == "z4"
        assert Z9.size == 9 and Z9.p == 3

    def test_from_name(self):
        assert ChainRing.from_name("z4") == ChainRing(2, 2)
        assert ChainRing.from_name("Z9").size == 9
        with pytest.raises(ChainRingError):
            ChainRing.from_name("z16")

    def test_ring_carries_no_alpha(self):
        # alpha belongs to the circulant algebra: CodeSpec carries it
        with pytest.raises(TypeError):
            ChainRing(2, 2, 3)

    def test_bad_parameters(self):
        with pytest.raises(ChainRingError):
            ChainRing(4, 2)
        with pytest.raises(ChainRingError):  # no prime is below 2
            ChainRing(1, 2)
        with pytest.raises(ChainRingError):
            ChainRing(2, 0)

    def test_units(self):
        assert [x for x in range(4) if Z4.is_unit(x)] == [1, 3]
        assert [x for x in range(9) if Z9.is_unit(x)] == [1, 2, 4, 5, 7, 8]
        assert not Z8.is_unit(6) and Z8.is_unit(7 + 8)


class TestProjection:
    def test_examples(self):
        assert project(Z4, 3) == 1
        assert project(Z8, 6) == 2
        assert project(Z9, 0) == 0

    def test_levels_range(self):
        with pytest.raises(ChainRingError):
            Z4.quotient(0)
        with pytest.raises(ChainRingError):
            Z4.quotient(2)
        assert project(Z8, 7, 2) == 1

    def test_quotient_descriptor(self):
        assert Z8.quotient(1) == ChainRing(2, 2)
        assert Z4.quotient(1) == ChainRing(2, 1)
        assert Z8.quotient(2) == ChainRing.from_name("z2")

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_ring_homomorphism_z9(self, x, y):
        assert project(Z9, (x + y) % 9) == (project(Z9, x) + project(Z9, y)) % 3
        assert project(Z9, x * y % 9) == project(Z9, x) * project(Z9, y) % 3

    def test_ring_homomorphism_random(self):
        rng = random.Random(42)
        for ring in (Z4, Z8, Z9):
            mod, q = ring.size, ring.size // ring.p
            for _ in range(1000):
                x, y = rng.randrange(mod), rng.randrange(mod)
                assert project(ring, (x + y) % mod) == (project(ring, x) + project(ring, y)) % q
                assert project(ring, x * y % mod) == project(ring, x) * project(ring, y) % q


class TestMinimalIdeal:
    def test_ideal_squares_to_zero(self):
        for ring in (Z4, Z8, Z9):
            ideal = [u * ring.size // ring.p for u in range(ring.p)]
            for x in ideal:
                for y in ideal:
                    assert x * y % ring.size == 0
