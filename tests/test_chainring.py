import random

import pytest
from hypothesis import given, strategies as st

from alphacirc import ChainRing, ChainRingError

Z4 = ChainRing(2, 2, 3)
Z8 = ChainRing(2, 3, 7)
Z9 = ChainRing(3, 2, 8)


class TestDescriptor:
    def test_basic_parameters(self):
        assert Z4.size == 4 and Z4.q == 2 and Z4.theta == 2
        assert Z9.size == 9 and Z9.q == 3

    def test_from_name(self):
        assert ChainRing.from_name("z4") == ChainRing(2, 2)
        assert ChainRing.from_name("Z9").size == 9
        with pytest.raises(ChainRingError):
            ChainRing.from_name("z16")

    def test_alpha_must_square_to_one(self):
        with pytest.raises(ChainRingError):
            ChainRing(2, 2, 2)
        ChainRing(2, 3, 3)  # 3^2 = 9 = 1 mod 8

    def test_bad_parameters(self):
        with pytest.raises(ChainRingError):
            ChainRing(4, 2)
        with pytest.raises(ChainRingError):
            ChainRing(2, 0)

    def test_elem_checked(self):
        assert Z4.elem(3) == 3
        with pytest.raises(ChainRingError):
            Z4.elem(4)
        with pytest.raises(ChainRingError):
            Z4.elem(-1)

    def test_units(self):
        assert [x for x in range(4) if Z4.is_unit(x)] == [1, 3]
        assert [x for x in range(9) if Z9.is_unit(x)] == [1, 2, 4, 5, 7, 8]
        assert not Z8.is_unit(6) and Z8.is_unit(7 + 8)

    def test_inverse(self):
        assert Z9.inv(2) == 5
        with pytest.raises(ChainRingError):
            Z4.inv(2)


class TestProjection:
    def test_examples(self):
        assert Z4.project(3, 1) == 1
        assert Z8.project(6, 1) == 2
        assert Z9.project(0, 1) == 0

    def test_levels_range(self):
        with pytest.raises(ChainRingError):
            Z4.project(1, 0)
        with pytest.raises(ChainRingError):
            Z4.project(1, 2)
        assert Z8.project(7, 2) == 1

    def test_quotient_descriptor(self):
        assert Z8.quotient(1) == ChainRing(2, 2, 3)
        assert Z4.quotient(1) == ChainRing(2, 1, 1)

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_ring_homomorphism_z9(self, x, y):
        assert Z9.project((x + y) % 9, 1) == (Z9.project(x, 1) + Z9.project(y, 1)) % 3
        assert Z9.project(x * y % 9, 1) == Z9.project(x, 1) * Z9.project(y, 1) % 3

    def test_ring_homomorphism_random(self):
        rng = random.Random(42)
        for ring in (Z4, Z8, Z9):
            mod, q = ring.size, ring.size // ring.p
            for _ in range(1000):
                x, y = rng.randrange(mod), rng.randrange(mod)
                assert ring.project((x + y) % mod) == (ring.project(x) + ring.project(y)) % q
                assert ring.project(x * y % mod) == ring.project(x) * ring.project(y) % q


class TestSection:
    def test_alpha_exception(self):
        # alpha = 3 projects to 1, so 1 must lift back to 3
        assert Z4.section_e(1) == 3
        assert Z4.section_e(0) == 0

    def test_alpha_one_is_plain(self):
        z4_plain = ChainRing(2, 2, 1)
        assert z4_plain.section_e(1) == 1

    def test_section_then_project_is_identity(self):
        for ring in (Z4, Z8, Z9):
            for xbar in range(ring.size // ring.p):
                assert ring.project(ring.section_e(xbar)) == xbar

    def test_requires_quotient_element(self):
        with pytest.raises(ChainRingError):
            Z4.section_e(2)


class TestMinimalIdeal:
    def test_ideal_squares_to_zero(self):
        for ring in (Z4, Z8, Z9):
            ideal = [u * ring.size // ring.p for u in range(ring.p)]
            for x in ideal:
                for y in ideal:
                    assert x * y % ring.size == 0
