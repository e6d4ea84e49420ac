import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerchlab.special_functions import (
    Parity,
    complex_gamma,
    gamma_R,
    root_number,
    tate_gamma,
)

from oracles import mp_gamma

SQRT_PI = math.sqrt(math.pi)


class TestComplexGamma:
    def test_factorial_point(self):
        assert complex_gamma(1.0).value == pytest.approx(1.0, abs=1e-14)

    def test_half_integer(self):
        g = complex_gamma(0.5)
        assert abs(g.value - SQRT_PI) < 1e-14

    def test_against_high_precision_oracle(self):
        # rectangle where the spec demands 1e-12 relative accuracy
        pts = [2 + 3j, 0.5 + 10j, -4.3 + 2.2j, 20 - 15j, 1e-3 + 1e-3j,
               -0.5 + 0.0j, 12.7 - 40.0j, 0.1 - 49.0j]
        for z in pts:
            got = complex_gamma(z).value
            ref = mp_gamma(z)
            assert abs(got - ref) / abs(ref) < 1e-12, z

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
    def test_pole_flag(self, z):
        assert complex_gamma(z).is_pole

    def test_near_pole_flag(self):
        assert complex_gamma(-3.0 + 1e-14j).is_pole
        assert not complex_gamma(-3.0 + 1e-6j).is_pole

    @pytest.mark.parametrize("z", [-1.9999999999999996 + 1e-13j,
                                   -0.9999999999999996 + 1e-13j,
                                   -2.0000001])
    def test_relative_accuracy_next_to_poles(self, z):
        # rounding pi*z cost the digits sin(pi z) keeps near its zero
        ref = mp_gamma(z)
        assert abs(complex_gamma(z).value - ref) / abs(ref) < 1e-14

    @settings(max_examples=120, deadline=None)
    @given(st.floats(-3, 4), st.floats(-10, 10))
    def test_recurrence(self, x, y):
        z = complex(x, y)
        g0 = complex_gamma(z)
        g1 = complex_gamma(z + 1)
        if g0.is_pole or g1.is_pole or abs(z) < 1e-3:
            return
        assert abs(g1.value - z * g0.value) / abs(g1.value) < 1e-11


class TestGammaR:
    def test_value_at_one(self):
        assert abs(gamma_R(1.0, Parity.PLUS).value - 1.0) < 1e-14

    def test_minus_at_zero(self):
        assert abs(gamma_R(0.0, Parity.MINUS).value - 1.0) < 1e-14

    def test_value_at_two(self):
        assert abs(gamma_R(2.0, Parity.PLUS).value - 1.0 / math.pi) < 1e-15

    def test_minus_is_shifted_plus_same_path(self):
        for s in (0.3 + 0.4j, 2.0, -1.7 + 3j):
            lhs = gamma_R(s, Parity.MINUS)
            rhs = gamma_R(s + 1, Parity.PLUS)
            assert lhs.value == rhs.value  # identical code path, exact

    def test_pole_locations(self):
        assert gamma_R(0.0, Parity.PLUS).is_pole
        assert gamma_R(-2.0, Parity.PLUS).is_pole
        assert gamma_R(-1.0, Parity.MINUS).is_pole
        assert not gamma_R(-1.0, Parity.PLUS).is_pole


class TestTateGamma:
    def test_fixed_point(self):
        assert abs(tate_gamma(0.5, Parity.PLUS).value - 1.0) < 1e-14

    def test_reflection_identity_paper_point(self):
        s = 0.3 + 0.7j
        prod = (tate_gamma(s, Parity.PLUS).value
                * tate_gamma(1 - s, Parity.PLUS).value)
        assert abs(prod - 1.0) < 1e-12

    def test_value_composition_oracle(self):
        # gamma^+(2) from the raw gamma composition
        s = 2.0
        ref = (mp_gamma(s / 2) * math.pi ** (-s / 2)
               / (mp_gamma((1 - s) / 2) * math.pi ** (-(1 - s) / 2)))
        assert abs(tate_gamma(s, Parity.PLUS).value - ref) < 1e-13 * abs(ref)

    def test_reflection_invariant_random_rectangle(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 200:
            s = complex(rng.uniform(-3, 4), rng.uniform(-10, 10))
            if abs(s.real - round(s.real)) < 0.05 and abs(s.imag) < 0.05:
                continue
            for parity in (Parity.PLUS, Parity.MINUS):
                g1 = tate_gamma(s, parity)
                g2 = tate_gamma(1 - s, parity)
                assert not (g1.is_pole or g2.is_pole)
                assert abs(g1.value * g2.value - 1.0) < 1e-10
            count += 1

    def test_zero_and_pole_sets(self):
        # derived from the gamma_R definition: plus-poles at odd s >= 1 of
        # 1-s shifts etc.; spot-check the four families
        assert tate_gamma(0.0, Parity.PLUS).is_pole
        assert tate_gamma(-2.0, Parity.PLUS).is_pole
        assert tate_gamma(1.0, Parity.PLUS).value == 0
        assert tate_gamma(3.0, Parity.PLUS).value == 0
        assert tate_gamma(-1.0, Parity.MINUS).is_pole
        assert tate_gamma(2.0, Parity.MINUS).value == 0


class TestRootNumber:
    def test_values(self):
        assert root_number(Parity.PLUS) == 1.0
        assert root_number(Parity.MINUS) == 1j

    def test_fourth_roots_of_unity(self):
        for p in (Parity.PLUS, Parity.MINUS):
            assert abs(root_number(p) ** 4 - 1.0) == 0.0
