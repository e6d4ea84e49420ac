import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerchlab import (
    AccelerationFailureError,
    DegenerateParameterError,
    DomainError,
    L_pm,
    LerchParams,
    Parity,
    Strategy,
    completed_L,
    hurwitz,
    hurwitz_many,
    l_pm_many,
    lerch_star,
    lerch_star_many,
    lerch_zeta,
    riemann_zeta,
    root_number,
    tate_gamma,
)
from lerchlab import lerch_core
from lerchlab.acceleration import levin_sum

from oracles import (
    direct_sum,
    mp_hurwitz,
    mp_L_pm,
    mp_lerch,
    two_sided_sum,
)

PI2_6 = math.pi ** 2 / 6.0
PI2_12 = math.pi ** 2 / 12.0

# frozen fixtures (oracle values recorded before wiring the assertions;
# the direct-sum fixture carries its own tail bound of 5.0e-13)
FIX_S3 = 7.8370270231168515 + 0.20643842913792834j       # zeta(3, 1/3, 1/2)
FIX_EXT = -0.5696364573848531 + 15.841269144116916j      # zeta*(2, 1/4, -3/4)
FIX_STRIP = 1.5239083441335401 + 0.3541335026410152j     # zeta(1/2, 1/3, 1/4)
FIX_OSC = -0.3791525473686997 + 1.9888063854964169j      # zeta(.9+14.1j,.41,.37)


def strip(s, a, c, tol=1e-12):
    """(value, estimate) of the one-sided series path alone, without the
    reflection and the direct-summation gate."""
    v, e = lerch_core._phi_dispatch(complex(s), np.array([a]), np.array([c]), tol)
    return complex(v[0]), float(e[0])


_zeta_direct = lerch_core._zeta_direct


class TestZetaDirect:
    def test_basel_point(self):
        res = _zeta_direct(LerchParams(2.0, 0.0, 1.0), 1e-6)
        assert res.strategy is Strategy.DIRECT_SERIES
        assert abs(res.value - PI2_6) <= res.error_estimate
        assert res.error_estimate <= 1.1e-6

    def test_alternating_point(self):
        # alternating-series oracle: error below first omitted term
        n = np.arange(0, 2_000_001, dtype=float)
        oracle = np.sum((-1.0) ** n * (n + 1.0) ** (-2.0))
        assert abs(oracle - PI2_12) < 1e-12
        res = _zeta_direct(LerchParams(2.0, 0.5, 1.0), 1e-6)
        assert abs(res.value - PI2_12) <= res.error_estimate

    def test_fixture_s3(self):
        res = _zeta_direct(LerchParams(3.0, 1.0 / 3.0, 0.5), 1e-10)
        assert abs(res.value - FIX_S3) <= res.error_estimate + 5.1e-13

    def test_tail_bound_is_honest(self):
        res = _zeta_direct(LerchParams(2.5, 0.2, 0.7), 1e-7)
        ref = mp_lerch(2.5, 0.2, 0.7)
        assert abs(res.value - ref) <= res.error_estimate


class TestLerchStar:
    def test_specializes_to_one_sided_series(self):
        p = LerchParams(2.0, 0.25, 0.25)
        a = lerch_star(p)
        b = _zeta_direct(p, 1e-6)
        assert abs(a.value - b.value) <= b.error_estimate

    def test_twisted_shift_in_c(self):
        s, a = 2.0, 0.25
        v0 = lerch_star(LerchParams(s, a, 0.25)).value
        v1 = lerch_star(LerchParams(s, a, 1.25)).value
        assert abs(v1 - np.exp(-2j * np.pi * a) * v0) < 1e-12

    def test_extended_fixture(self):
        res = lerch_star(LerchParams(2.0, 0.25, -0.75))
        # oracle summed to N=1e6; oscillatory tail well below 1e-9
        assert abs(res.value - FIX_EXT) < 1e-8

    def test_twisted_periodicity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = complex(rng.uniform(0.2, 2.5), rng.uniform(-5, 5))
            a = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.05, 0.95)
            v = lerch_star(LerchParams(s, a, c)).value
            va = lerch_star(LerchParams(s, a + 1.0, c)).value
            vc = lerch_star(LerchParams(s, a, c + 1.0)).value
            assert abs(va - v) < 1e-10
            assert abs(vc - np.exp(-2j * np.pi * a) * v) < 1e-10

    def test_pole_flag_on_integer_lines(self):
        with pytest.raises(DegenerateParameterError):
            lerch_star(LerchParams(1.0, 0.0, 0.4))

    def test_s_1_on_integer_c_off_integer_a(self):
        # zeta*(1, a, 1) = -e^(-2 pi i a) log(1 - e^(2 pi i a)), twisted by
        # e^(-2 pi i (k - 1) a) at c = k; only integer a has a pole at s = 1
        for a in (0.5, 0.25, 0.1, 0.31, 0.77, 0.9, 0.64, 0.43):
            z = np.exp(2j * np.pi * a)
            cell = -np.log(1.0 - z) / z
            for k in (-1, 0, 1, 2, 3):
                res = lerch_star(LerchParams(1.0, a, float(k)))
                ref = cell * np.exp(-2j * np.pi * (k - 1) * a)
                assert abs(res.value - ref) <= res.error_estimate

    def test_small_a_at_integer_s_within_its_estimate(self):
        # at integer s and c = 1/2 or 1, zeta_H(s - k, c) vanishes at
        # s - k = -2, -4, ...; the expansion must sum past that term, and
        # its tail bound must count the first term it leaves out
        for s, c in ((2.0, 0.5), (3.0, 0.5), (2.0, 1.0), (1.0, 1.0)):
            res = lerch_star(LerchParams(s, 0.013, c))
            ref = mp_lerch(s, 0.013, c)
            assert abs(res.value - ref) <= 1e-13 * abs(ref)
            assert abs(res.value - ref) <= res.error_estimate

    def test_direct_gate_at_the_cell_point(self):
        # the gate looks at the c actually summed, in (0, 1]; a = 1/4 keeps
        # the twist phase k a exact
        for s in (2.7, 3.0):
            base = lerch_star(LerchParams(s, 0.25, 0.5))
            for k in (1, 10**3, 10**6, 10**7):
                res = lerch_star(LerchParams(s, 0.25, 0.5 + k))
                twist = np.exp(-2j * np.pi * ((k * 0.25) % 1.0))
                assert res.strategy is base.strategy
                assert res.error_estimate == base.error_estimate
                assert abs(res.value - twist * base.value) <= 1e-15 * abs(base.value)

    def test_many_matches_scalar(self):
        # every path: strip points, then integer a (Hurwitz), a 1e-3 from an
        # integer (small-a) and generic a, at c in (0, 1], c > 1 and c < 0,
        # in the reflected, strip and Re s > 1 regimes
        cases = [(0.7 + 2j, [0.2, 0.8, 0.41], [0.3, 0.9, 0.11])]
        a_grid = np.repeat([1.0, 2.001, 0.41], 3)
        c_grid = np.tile([0.3, 1.7, -0.6], 3)
        cases += [(complex(sigma, 2.0), a_grid, c_grid) for sigma in (-1.5, 0.7, 2.5)]
        for s, a, c in cases:
            vals, errs = lerch_star_many(s, a, c)
            for i in range(len(a)):
                single = lerch_star(LerchParams(s, a[i], c[i]))
                assert abs(vals[i] - single.value) <= errs[i] + single.error_estimate


class TestLerchZeta:
    def test_matches_star_in_cell(self):
        p = LerchParams(1.4, 0.3, 0.8)
        assert abs(lerch_zeta(p).value - lerch_star(p).value) == 0.0

    def test_large_c_differs_from_star_by_head_terms(self):
        s, a, c = 2.0, 0.3, 2.5
        ref = mp_lerch(s, a, c)
        assert abs(lerch_zeta(LerchParams(s, a, c)).value - ref) < 1e-11

    def test_large_c_small_frac_c_is_accurate_and_honest(self):
        # subtracting the n < 0 terms of zeta_star lost about 8 digits here
        p = LerchParams(3.194306365144615 + 5.766668239344895j,
                        0.6299713278950824, 2.0063821972249585)
        ref = mp_lerch(p.s, p.a, p.c)
        res = lerch_zeta(p)
        assert abs(res.value - ref) <= res.error_estimate
        assert abs(res.value - ref) <= 1e-13 * abs(ref)

    def test_large_im_s_value_within_its_estimate(self):
        # mpmath at 180 and 240 digits agrees on this value; at 100 digits
        # it is itself wrong here, so the literal is hardcoded
        ref = -2.904731770953718 + 0.7184396893551614j
        res = lerch_zeta(LerchParams(0.5 + 300j, 0.2137, 0.55))
        assert abs(res.value - ref) <= max(res.error_estimate, 1e-9 * abs(ref))

    def test_requires_positive_c(self):
        with pytest.raises(DomainError):
            lerch_zeta(LerchParams(2.0, 0.3, -0.2))


class TestSmallAAtLargeImS:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: the small-a expansion is off by 16x relative at "
        "|Im s| = 90, with an estimate of 126"))
    def test_value_against_mpmath(self):
        # mpmath at 100 and 125 digits agree on this value
        ref = -3.110166404466302 - 7.383156228551236j
        res = lerch_star(LerchParams(0.5 - 90j, 0.9800123582740239,
                                     0.27278469158633273))
        assert abs(res.value - ref) <= 1e-9 * abs(ref)


class TestLevinAtLargeImS:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: Levin is off by 1.6e-7 relative at s = 4+200i, a 0.404 "
        "from an integer, with an estimate of 1.4e-13"))
    def test_array_value_within_its_estimate(self):
        # mpmath at two precisions agrees on this value; scalar lerch_star
        # sums it directly and is within 1.4e-14
        ref = 6.029139631189692 + 4.293161842701736j
        values, errors = lerch_star_many(4 + 200j, [0.596407828866047],
                                         [0.6030539342611494])
        assert abs(values[0] - ref) <= errors[0]


class TestLPm:
    def test_plus_combination_identity(self):
        # L+ equals the stated combination of the two extended values
        s = 2.0
        got = L_pm(LerchParams(s, 1 / 3, 0.5), Parity.PLUS).value
        z1 = direct_sum(s, 1 / 3, 0.5, N=400_000)
        z2 = direct_sum(s, 2 / 3, 0.5, N=400_000)
        expect = z1 + np.exp(-2j * np.pi / 3) * z2
        assert abs(got - expect) < 1e-9

    def test_center_symmetries(self):
        # at a = c = 1/2 every term of L^- is real, and L^+ vanishes by
        # the J-eigenvalue argument (J fixes the center with eigenvalue -1)
        for s in (2.0, 2.5, 3.0):
            lm = L_pm(LerchParams(s, 0.5, 0.5), Parity.MINUS).value
            lp = L_pm(LerchParams(s, 0.5, 0.5), Parity.PLUS).value
            oracle = two_sided_sum(s, 0.5, 0.5, N=100_000, signed=True)
            assert abs(lm.imag) < 1e-12
            assert abs(lm - oracle) < 1e-4  # oracle tail is only ~N^(1-s)
            assert abs(lp) < 1e-10

    def test_sum_is_twice_star(self):
        p = LerchParams(2.5, 0.2, 0.7)
        lp = L_pm(p, Parity.PLUS).value
        lm = L_pm(p, Parity.MINUS).value
        star = lerch_star(p).value
        assert abs(0.5 * (lp + lm) - star) < 1e-11

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameterError):
            L_pm(LerchParams(2.0, 0.0, 0.3), Parity.PLUS)
        with pytest.raises(DegenerateParameterError):
            L_pm(LerchParams(2.0, 0.3, 1.0), Parity.MINUS)

    def test_many_matches_scalar(self):
        # a 1e-3 from an integer and generic, c in (0, 1], c > 1 and c < 0
        a = np.repeat([2.001, 0.41], 3)
        c = np.tile([0.3, 1.7, -0.6], 2)
        for sigma in (-1.5, 0.7, 2.5):
            s = complex(sigma, 2.0)
            for parity in (Parity.PLUS, Parity.MINUS):
                vals, errs = l_pm_many(s, parity, a, c)
                for i in range(len(a)):
                    single = L_pm(LerchParams(s, a[i], c[i]), parity)
                    assert abs(vals[i] - single.value) <= (errs[i]
                                                           + single.error_estimate)

    def test_many_without_parity_gives_both_rows(self):
        # parity None: both members from one pass, each row bit-equal to
        # the one-member call, with the shared estimate
        a = np.array([[0.21], [0.67]])
        c = np.array([0.3, 1.7, -0.6])
        for s in (-1.5 + 2j, 0.7 + 2j):
            vals, errs = l_pm_many(s, None, a, c)
            assert vals.shape == (2, 2, 3)
            for row, parity in enumerate((Parity.PLUS, Parity.MINUS)):
                one, one_errs = l_pm_many(s, parity, a, c)
                assert vals[row].tobytes() == one.tobytes()
                assert errs.tobytes() == one_errs.tobytes()


class TestEvalStrip:
    """The one-sided series path on its own."""

    def test_overlap_with_direct(self):
        value, _ = strip(2.0, 0.5, 1.0)
        assert abs(value - PI2_12) < 1e-10

    def test_dual_strategy_fixture_strip(self):
        s, a, c = 0.5, 1.0 / 3.0, 0.25
        accel, _ = strip(s, a, c)
        # independent route: functional equation assembled from scratch
        gp = tate_gamma(1 - s, Parity.PLUS).value
        gm = tate_gamma(1 - s, Parity.MINUS).value
        z1, _ = strip(1 - s, 1 - c, a)
        z2, _ = strip(1 - s, c, 1 - a)
        pre = np.exp(-2j * np.pi * a * c)
        lp = gp * pre * (z1 + np.exp(-2j * np.pi * (1 - c)) * z2)
        lm = 1j * gm * pre * (z1 - np.exp(-2j * np.pi * (1 - c)) * z2)
        # zeta = zeta* on the cell, and L+ + L- = 2 zeta*
        reflected = 0.5 * (lp + lm)
        assert abs(accel - reflected) < 1e-8
        assert abs(accel - FIX_STRIP) < 1e-8

    def test_dual_strategy_fixture_oscillatory(self):
        accel, _ = strip(0.9 + 14.1j, 0.41, 0.37)
        assert abs(accel - FIX_OSC) < 1e-8

    def test_error_estimate_honest(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = complex(rng.uniform(0.1, 3.0), rng.uniform(-15, 15))
            a = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.05, 0.95)
            value, estimate = strip(s, a, c)
            ref = mp_lerch(s, a, c)
            assert abs(value - ref) <= max(estimate, 1e-12) * 20


class TestEvalReflected:
    """The functional equation of the L-pair: L_pm goes through it at
    Re s <= -0.5, and both sides of it agree in the strip."""

    def test_against_continued_oracle(self):
        p = LerchParams(-1.5, 0.3, 0.6)
        for parity, sign in ((Parity.PLUS, 1), (Parity.MINUS, -1)):
            got = L_pm(p, parity)
            ref = mp_L_pm(sign, -1.5, 0.3, 0.6)
            assert got.strategy is Strategy.REFLECTED
            assert abs(got.value - ref) < 1e-10

    def test_reflection_structure(self):
        # L+(-1.5, .3, .6) = w+ gamma+(2.5) e^(-2 pi i 0.18) L+(2.5, .4, .3)
        got = L_pm(LerchParams(-1.5, 0.3, 0.6), Parity.PLUS)
        assert got.strategy is Strategy.REFLECTED
        inner = L_pm(LerchParams(2.5, 0.4, 0.3), Parity.PLUS).value
        coeff = tate_gamma(2.5, Parity.PLUS).value
        rhs = coeff * np.exp(-2j * np.pi * 0.3 * 0.6) * inner
        assert abs(got.value - rhs) < 1e-11

    def test_minus_carries_root_number_i(self):
        got = L_pm(LerchParams(-1.5, 0.3, 0.6), Parity.MINUS)
        assert got.strategy is Strategy.REFLECTED
        inner = L_pm(LerchParams(2.5, 0.4, 0.3), Parity.MINUS).value
        coeff = root_number(Parity.MINUS) * tate_gamma(2.5, Parity.MINUS).value
        rhs = coeff * np.exp(-2j * np.pi * 0.18) * inner
        assert abs(got.value - rhs) < 1e-11

    def test_strip_residual_of_functional_equation(self):
        # both sides evaluated in the strip, residual of the raw equation
        s, a, c = 0.5, 0.3, 0.6
        for parity, sign in ((Parity.PLUS, 1), (Parity.MINUS, -1)):
            lhs = L_pm(LerchParams(s, a, c), parity).value
            inner = L_pm(LerchParams(1 - s, 1 - c, a), parity).value
            rhs = (root_number(parity) * tate_gamma(1 - s, parity).value
                   * np.exp(-2j * np.pi * a * c) * inner)
            assert abs(lhs - rhs) < 1e-8


class TestCompletedL:
    @pytest.mark.parametrize("parity,w", [(Parity.PLUS, 1.0), (Parity.MINUS, 1j)])
    def test_functional_equation_residual(self, parity, w):
        s, a, c = 0.4, 0.25, 0.7
        lhs = completed_L(LerchParams(s, a, c), parity).value
        rhs = w * np.exp(-2j * np.pi * a * c) \
            * completed_L(LerchParams(1 - s, 1 - c, a), parity).value
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8

    def test_self_dual_line(self):
        a, c = 0.3, 0.55
        lhs = completed_L(LerchParams(0.5, a, c), Parity.PLUS).value
        rhs = np.exp(-2j * np.pi * a * c) \
            * completed_L(LerchParams(0.5, 1 - c, a), Parity.PLUS).value
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_pole_propagation(self):
        with pytest.raises(DegenerateParameterError):
            completed_L(LerchParams(0.0, 0.3, 0.6), Parity.PLUS)


class TestHurwitz:
    def test_basel(self):
        res = hurwitz(2.0, 1.0)
        oracle = direct_sum(2.0, 0.0, 1.0, N=1_000_000)
        assert abs(res.value - PI2_6) < 1e-12
        assert abs(oracle - PI2_6) < 2e-6  # oracle has its own slow tail

    def test_bisection_identity(self):
        # zeta_H(2, 1/2) = (4 - 1) pi^2 / 6 = pi^2 / 2
        res = hurwitz(2.0, 0.5)
        assert abs(res.value - math.pi ** 2 / 2.0) < 1e-12

    def test_matches_zeta_direct_at_a0(self):
        for x in (0.3, 1.0, 2.7):
            h = hurwitz(3.0, x)
            d = _zeta_direct(LerchParams(3.0, 0.0, x), 1e-10)
            assert abs(h.value - d.value) < 1e-9

    def test_pole(self):
        with pytest.raises(DegenerateParameterError):
            hurwitz(1.0, 0.5)

    def test_negative_sigma_against_oracle(self):
        from oracles import mp_hurwitz

        for s, x in ((-2.5, 0.3), (-0.5 + 4j, 0.8), (6.0, 0.1)):
            res = hurwitz(s, x)
            assert abs(res.value - mp_hurwitz(s, x)) < 1e-11 * max(
                1.0, abs(res.value))


class TestStrategyDispatch:
    def test_strategy_agreement_invariant(self):
        # direct summation is honest only where the absolute tail bound is
        # cheap, so the agreement window sits at Re s in (2.5, 3.5]
        # (lerch_star itself sums directly near Re s = 3.5, so the strip
        # side is the one-sided series path called on its own)
        rng = np.random.default_rng(17)
        for _ in range(100):
            s = complex(rng.uniform(2.5, 3.5), rng.uniform(-2, 2))
            a = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.05, 0.95)
            accel, _ = strip(s, a, c)
            direct = _zeta_direct(LerchParams(s, a, c), 1e-10)
            assert abs(accel - direct.value) < 1e-9

    def test_dispatcher_uses_direct_when_cheap(self):
        res = lerch_star(LerchParams(4.0, 0.3, 0.7), 1e-8)
        assert res.strategy is Strategy.DIRECT_SERIES

    def test_dispatcher_reflects_below_sigma_lo(self):
        res = lerch_star(LerchParams(-1.0, 0.3, 0.7))
        assert res.strategy is Strategy.REFLECTED

    def test_raising_lowering_series_route(self):
        # finite-difference d/dc of zeta matches -s zeta(s+1) (the series
        # route); the stencil side lives in diff_ops, here the pure series
        # identity via the one-sided values
        s, a, c = 2.2, 0.3, 0.6
        h = 1e-5
        up = lerch_star(LerchParams(s, a, c + h)).value
        down = lerch_star(LerchParams(s, a, c - h)).value
        dc = (up - down) / (2 * h)
        target = -s * lerch_star(LerchParams(s + 1, a, c)).value
        assert abs(dc - target) < 1e-5


# dist(a, Z) bands of the one-sided paths: twisted Euler-Maclaurin from
# the small-a cutoff to 1/3, Levin beyond
DIST_BANDS = [(0.02, 0.05), (0.05, 0.1), (0.1, 0.2), (0.2, 1.0 / 3.0),
              (1.0 / 3.0, 0.5)]


def band_points(seed, per_band=4):
    """Points with a in every band of DIST_BANDS, on both sides of 1/2."""
    rng = np.random.default_rng(seed)
    a, c = [], []
    for lo, hi in DIST_BANDS:
        d = rng.uniform(lo, hi, per_band)
        a.extend(np.where(rng.random(per_band) < 0.5, d, 1.0 - d))
        c.extend(rng.uniform(0.05, 1.0, per_band))
    return np.array(a), np.array(c)


def levin_points(a):
    """One-sided points at a that Levin sums: dist(a, Z) above 1/3."""
    return int(np.sum(np.abs(a - np.round(a)) > lerch_core._EM_MAX_DIST))


@pytest.fixture
def levin_widths(monkeypatch):
    """The number of series of every levin_sum call lerch_core makes."""
    widths = []
    inner = lerch_core.levin_sum

    def counting(term_fn, shape, *args, **kwargs):
        widths.append(math.prod(shape))
        return inner(term_fn, shape, *args, **kwargs)

    monkeypatch.setattr(lerch_core, "levin_sum", counting)
    return widths


class TestLevinBatching:
    @pytest.mark.parametrize("s", [0.5 + 3j, 1.1 - 8j, -0.3 + 2j, 0.9 + 14j,
                                   0.5 + 20j])
    def test_batch_matches_points_one_at_a_time(self, s):
        a, c = band_points(5)

        def run(a, c):
            try:
                return lerch_core._phi_dispatch(s, a, c, 1e-12)
            except AccelerationFailureError:
                return None

        batch = run(a, c)
        alone = [run(a[i:i + 1], c[i:i + 1]) for i in range(a.size)]
        assert (batch is None) == any(one is None for one in alone)
        if batch is not None:
            for i, (v, e) in enumerate(alone):
                assert abs(batch[0][i] - v[0]) <= batch[1][i] + e[0]

    def test_scalar_l_pm_is_one_levin_call(self, levin_widths):
        # a = 0.4 and 1 - a: one batch of both halves
        L_pm(LerchParams(0.7 + 4j, 0.4, 0.4), Parity.PLUS)
        assert levin_widths == [2]
        L_pm(LerchParams(0.7 + 4j, 0.3, 0.4), Parity.PLUS)
        assert levin_widths == [2]   # dist 0.3 is no Levin point

    def test_grid_batches_are_capped(self, levin_widths):
        a = np.linspace(0.005, 0.995, 100)
        c = np.linspace(0.005, 0.995, 100)
        l_pm_many(0.7 + 4j, Parity.MINUS, a[:, None], c[None, :])
        series = 100 * (levin_points(a) + levin_points(1.0 - a))
        assert sum(levin_widths) == series
        assert lerch_core._LEVIN_BATCH == 4096
        assert max(levin_widths) <= 4096
        assert len(levin_widths) == -(-series // 4096)

    def test_one_failing_point_fails_the_batch(self):
        # pinned until a batch can report failure per point: at dist 0.350
        # Levin does not stabilize at t = 95.27, and the whole call raises
        # for it, though the first point alone succeeds
        s = 0.5 + 95.27242807607615j
        with pytest.raises(AccelerationFailureError):
            lerch_star_many(s, [0.3, 0.35034245583033985],
                            [0.4, 0.7397519717805228])
        vals, errs = lerch_star_many(s, [0.3], [0.4])
        assert np.isfinite(vals[0]) and errs[0] < 1e-10

    def test_former_failing_pair_evaluates(self):
        # the second point sank this batch while it went through Levin
        s = 0.5 + 20j
        a = [0.3, 0.6667282529526651]
        c = [0.4, 0.6118082607361585]
        vals, errs = lerch_star_many(s, a, c)
        for v, e, ai, ci in zip(vals, errs, a, c):
            ref = mp_lerch(s, ai, ci)
            assert abs(v - ref) <= e
            assert abs(v - ref) <= 1e-13 * abs(ref)


# Twisted Euler-Maclaurin points: three in each dist(a, Z) band from the
# small-a cutoff to 1/3, two with 20 <= |Im s| <= 100 and one with
# Re s in (-0.5, 0], where decimation with m = 10-25 used to fail.  The
# references are mpmath values on which dps 40 + 0.6 |Im s| and 25 more
# digits agree (oracles.mp_lerch), hardcoded because they take up to 5 s
# a point.
EM_POINTS = [
    ((0.4128885905538294+37.00750516638095j), 0.9695576134869202, 0.07057225302357499,
     (-4.487493813893405-1.4710733724040927j)),
    ((0.5-93.73161889727689j), 0.9786708735263514, 0.22555540341250618,
     (-1.917272733289182-6.359901356277557j)),
    ((-0.15218804255070295-10.349992354029999j), 0.959251407320502, 0.9857357383624503,
     (-33.237257936213915+42.681447006601076j)),
    ((0.7738927767308037+39.89885800979601j), 0.9361002393677549, 0.33437781032475106,
     (3.0245635078457096+0.3114458308548556j)),
    ((0.5+78.05384973631648j), 0.056936377540037886, 0.7809443011372788,
     (-2.3030232651970843-2.6273421835742465j)),
    ((-0.29320032126781476+5.379437617745584j), 0.07909269382481263, 0.7433906151443385,
     (17.790700014750755-14.14457339338428j)),
    ((0.4787177459818936-40.21928160129384j), 0.8025500879325999, 0.9079163591267804,
     (1.379801024894717+0.6337116907805136j)),
    ((0.5-98.09725401219055j), 0.13711801089064735, 0.7136637489735064,
     (1.1962150345926983-3.140013894291963j)),
    ((-0.18420402124983576+4.471104996925757j), 0.899338271094074, 0.41769865326110883,
     (-0.8151593926320457-1.0952777500708653j)),
    ((1.1829119967660577-22.107567561571322j), 0.7302398199215407, 0.8124615807153575,
     (0.12953316345979016+0.6770795148276569j)),
    ((0.5+83.33214273697928j), 0.7574565182525164, 0.18663847105248982,
     (0.37785497212848534+4.622598788460866j)),
    ((-0.39934318716742234-9.095595835892953j), 0.7386336996146734, 0.5279488830122359,
     (9.401998849571596+3.1094347349657845j)),
]


class TestTwistedEulerMaclaurin:
    @pytest.mark.parametrize("s, a, c, ref", EM_POINTS)
    def test_error_within_estimate(self, s, a, c, ref):
        # at 1e-9 the truncation bound holds most of the estimate, at the
        # default tolerance the rounding term does
        value, estimate = strip(s, a, c, 1e-9)
        assert abs(value - ref) <= estimate <= 1e-9
        value, estimate = strip(s, a, c)
        assert abs(value - ref) <= estimate
        assert abs(value - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("s", [0.5 + 3j, 0.7 - 40j])
    def test_point_bits_do_not_depend_on_the_grid(self, s):
        # every a on the twisted Euler-Maclaurin path, since Levin, beyond
        # it, fails at some points at |Im s| = 40
        rng = np.random.default_rng(int(abs(s.imag)))
        d = rng.uniform(0.02, 1.0 / 3.0, 100)
        a = np.where(rng.random(100) < 0.5, d, 1.0 - d)
        c = rng.uniform(0.0, 1.0, 100)
        A, C = np.meshgrid(a, c, indexing="ij")
        grid = [lerch_star_many(s, A, C), l_pm_many(s, Parity.MINUS, A, C)]
        for i, j in rng.integers(0, 100, (8, 2)):
            alone = [lerch_star_many(s, [a[i]], [c[j]]),
                     l_pm_many(s, Parity.MINUS, [a[i]], [c[j]])]
            for (gv, ge), (v, e) in zip(grid, alone):
                assert gv[i, j].tobytes() == v[0].tobytes()
                assert ge[i, j].tobytes() == e[0].tobytes()


# d = dist(a, Z) = 0.02, the smallest the path takes: the longest heads
# and the largest b_k ~ (2 pi d)^(-k-1).  References as for EM_POINTS.
EM_NEAR_CUTOFF_POINTS = [
    ((0.5+150j), 0.02, 0.4, (6.368607309277826-5.961956340236596j)),
    ((0.5+150j), 0.98, 0.85, (2.9764515407678322-2.164251862884996j)),
    ((-0.45+25j), 0.02, 0.7, (1062.2665338048625+216.58867343617527j)),
    ((-0.45+25j), 0.98, 0.2, (-1.550034573045547+4.016529953253855j)),
]


class TestTermKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.05, 1e5), st.floats(-6.0, 10.0), st.floats(-300.0, 300.0))
    def test_neg_pow_against_mpmath(self, x, sigma, t):
        s = complex(sigma, t)
        got = complex(lerch_core._neg_pow(x, s))
        with mpmath.workdps(40):
            ref = complex(mpmath.power(mpmath.mpf(x), -mpmath.mpc(sigma, t)))
        bound = 4.0 * 2.0 ** -53 * (1.0 + abs(s) * abs(math.log(x)))
        assert abs(got - ref) <= bound * abs(ref)

    def test_frac_has_the_bits_of_np_mod(self):
        # both round the same exact value once; -0.0 and the integers give
        # +0.0, tiny negatives round up to 1.0
        rng = np.random.default_rng(16)
        big = 2.0 ** 52
        x = np.concatenate([
            [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -1.0, -3.0,
             0.5, -0.5, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), -2.0 ** -60,
             big, -big, big + 1.0, -big - 1.0, big - 0.5, -big + 0.5,
             2.0 ** 60, -2.0 ** 60, 1e300, -1e300],
            rng.uniform(-1.0, 1.0, 20000),
            rng.uniform(-1e6, 1e6, 20000),
            rng.integers(-10 ** 6, 10 ** 6, 2000).astype(float),
            rng.integers(1, 2 ** 27, 20000) * rng.uniform(-1.0, 1.0, 20000),
            np.ldexp(rng.uniform(-1.0, 1.0, 20000), rng.integers(-1074, 64, 20000)),
        ])
        assert lerch_core._frac(x).tobytes() == np.mod(x, 1.0).tobytes()

    @pytest.mark.parametrize("d", [0.02, -0.02, 0.1, -0.1, 1.0 / 3.0, -1.0 / 3.0])
    def test_boole_coefs_against_recursion(self, d):
        # b_0 = 1/(1 - z), b_k = z/(1 - z) sum_{j=1..k} b_(k-j)/j!
        K = lerch_core._EM_MAX_ORDER
        got = lerch_core._boole_coefs(np.array([d]), K)[0]
        with mpmath.workdps(40):
            z = mpmath.expjpi(2 * mpmath.mpf(d))
            ref = [1 / (1 - z)]
            for k in range(1, K):
                ref.append(z / (1 - z) * mpmath.fsum(
                    ref[k - j] / mpmath.factorial(j) for j in range(1, k + 1)))
            ref = [complex(r) for r in ref]
        for k in range(K):
            assert abs(got[k] - ref[k]) <= 1e-14 * abs(ref[k]), k

    @pytest.mark.parametrize("s, a, c, ref", EM_NEAR_CUTOFF_POINTS)
    def test_twisted_em_near_the_cutoff(self, s, a, c, ref):
        v, e = lerch_core._phi_twisted_em(s, np.array([a]), np.array([c]), 1e-12)
        assert np.isfinite(v[0]) and np.isfinite(e[0])
        assert abs(v[0] - ref) <= e[0]


class TestLerchParams:
    def test_classification_flags(self):
        assert LerchParams(2.0, 1.0, 0.5).a_integral
        assert LerchParams(2.0, 1.0 + 5e-15, 0.5).a_integral
        assert not LerchParams(2.0, 1.0 + 1e-12, 0.5).a_integral

    def test_eval_result_error_nonnegative(self):
        res = lerch_star(LerchParams(0.8, 0.37, 0.52))
        assert res.error_estimate >= 0.0


class TestNonFiniteInputs:
    NAN = float("nan")
    INF = float("inf")

    @pytest.mark.parametrize("s, a, c", [(complex(0.5, NAN), 0.3, 0.4),
                                         (0.5 + 1j, NAN, 0.3),
                                         (0.5 + 1j, INF, 0.3),
                                         (0.5 + 1j, 0.3, -INF)])
    def test_lerch_params(self, s, a, c):
        with pytest.raises(DomainError, match="must be finite"):
            LerchParams(s, a, c)

    def test_scalar_entries(self):
        with pytest.raises(DomainError, match="x must be finite"):
            hurwitz(2.0, self.INF)
        with pytest.raises(DomainError, match="s must be finite"):
            riemann_zeta(complex(2.0, self.INF))

    def test_array_entries(self):
        with pytest.raises(DomainError, match="x must be finite"):
            hurwitz_many(2.0, [0.5, self.NAN])
        with pytest.raises(DomainError, match="c must be finite"):
            lerch_star_many(0.5 + 1j, [0.3, 0.6], [0.4, self.NAN])
        with pytest.raises(DomainError, match="a must be finite"):
            l_pm_many(0.5 + 1j, Parity.MINUS, [[0.3], [self.INF]], [0.4, 0.5])
        with pytest.raises(DomainError, match="s must be finite"):
            lerch_star_many(complex(self.NAN, 1.0), [0.3], [0.4])

    def test_empty_arrays(self):
        vals, errs = hurwitz_many(2.0, [])
        assert vals.shape == errs.shape == (0,)
        vals, errs = lerch_star_many(2.0, [], [])
        assert vals.shape == errs.shape == (0,)


class TestBadTolerance:
    P = LerchParams(0.7 + 2j, 0.3, 0.4)
    EVALUATORS = {
        "lerch_star": lambda tol: lerch_star(TestBadTolerance.P, tol),
        "lerch_zeta": lambda tol: lerch_zeta(TestBadTolerance.P, tol),
        "L_pm": lambda tol: L_pm(TestBadTolerance.P, Parity.PLUS, tol),
        "completed_L": lambda tol: completed_L(TestBadTolerance.P, Parity.MINUS, tol),
        "hurwitz": lambda tol: hurwitz(2.0, 0.5, tol),
        "lerch_star_many": lambda tol: lerch_star_many(0.7 + 2j, [0.3], [0.4], tol),
        "l_pm_many": lambda tol: l_pm_many(0.7 + 2j, Parity.PLUS, [0.3], [0.4], tol),
        "hurwitz_many": lambda tol: hurwitz_many(2.0, [0.5], tol),
        "riemann_zeta": lambda tol: riemann_zeta(2.0, tol),
    }

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", list(EVALUATORS))
    def test_rejected(self, name, tol):
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            self.EVALUATORS[name](tol)

    def test_direct_series_at_zero_tol(self):
        # the direct-summation gate divides by tol
        with pytest.raises(DomainError):
            lerch_star(LerchParams(4.0, 0.3, 0.7), 0.0)


class TestHurwitzAccuracy:
    def test_kubert_points_at_s_2_5(self):
        # the milnor_baseline Kubert check at s = -1.5 sums zeta_H(2.5, x)
        # at x = (u + k)/m; the values are accurate to 1e-13 relative
        # even where they reach ~5e6
        u = np.random.default_rng(31).uniform(0.05, 0.95, 12)
        for m in (1, 7, 40):
            x = u / m
            vals, _ = hurwitz_many(2.5, x, 1e-13)
            for xi, v in zip(x, vals):
                ref = mp_hurwitz(2.5, float(xi))
                assert abs(v - ref) <= 1e-13 * abs(ref)


# Reference formulas that compute every factor at every point.  The
# engine computes factors once per distinct value and must reproduce
# their results bit for bit.  Powers x^(-s) of real x > 0 are
# exp(log(x) (-s)), as the engine takes them.

def per_point_levin(s, a, c, tol, max_order=90, head=8):
    def terms(idx):
        n = idx[:, None]
        phase = np.exp(2j * math.pi * np.mod(n * a, 1.0))
        return phase * np.exp(np.log(n + c) * (-s))

    head_sum = np.sum(terms(np.arange(head)), axis=0)
    res = levin_sum(lambda idx: terms(head + idx), a.shape, tol,
                    max_order=max_order)
    return head_sum + res.value, res.error + 1e-16 * np.abs(head_sum)


def per_point_hurwitz(s, x, tol):
    s = complex(s)
    J = 14
    sigma = s.real
    rise = math.prod(abs(s + m) for m in range(2 * J + 1))
    safety = max(1.0, abs(s + 2 * J + 1) / (sigma + 2 * J + 1))
    bcoef = abs(lerch_core._BERNOULLI_EVEN[J]) / math.factorial(2 * J + 2)
    N = int(max(10.0, 0.4 * (abs(s) + 2 * J), 2.0 - sigma))
    for _ in range(40):
        bound_worst = rise * safety * bcoef * (N + float(np.min(x))) ** (
            -(sigma + 2 * J + 1))
        if bound_worst <= tol or N > 1_000_000:
            break
        N *= 2
    n = np.arange(N)[:, None]
    head = np.sum(np.exp(np.log(n + x[None, :]) * (-s)), axis=0)
    # y^(-s) [y/(s - 1) + 1/2 + P(1/y^2)/y], P by Horner's rule
    y = N + x
    coefs, poch = [], s
    for j in range(1, J + 1):
        coefs.append(float(lerch_core._BERNOULLI_EVEN[j - 1] / math.factorial(2 * j))
                     * poch)
        poch = poch * (s + 2 * j - 1) * (s + 2 * j)
    inv_y = 1.0 / y
    u = inv_y * inv_y
    poly = coefs[-1]
    for coef in reversed(coefs[:-1]):
        poly = poly * u + coef
    tail = np.exp(np.log(y) * (-s)) * (y * (1.0 / (s - 1.0)) + 0.5 + poly * inv_y)
    values = head + tail
    bound = rise * safety * bcoef * y ** (-(sigma + 2 * J + 1))
    largest = y ** max(0.0, -sigma)
    return values, bound + 1e-16 * math.sqrt(N) * np.maximum(np.abs(values), largest)


def per_point_small_a_s2(a_off, c, tol):
    """_phi_small_a at s = 2 (the positive-integer branch, m = 2)."""
    w = (2j * math.pi) * a_off
    worst = float(np.max(np.abs(a_off)))
    kmax = min(60, max(10, int(math.log(max(tol, 1e-17)) /
                               math.log(max(worst, 1e-17))) + 6))
    m = 2
    values = np.zeros(a_off.shape, dtype=np.complex128)
    errors = np.zeros(a_off.shape, dtype=float)
    psi_m = sum(1.0 / j for j in range(1, m)) - lerch_core._EULER_GAMMA
    psi_c = np.array([lerch_core._digamma(ci) for ci in c])
    lead = w ** (m - 1) / math.factorial(m - 1) * (psi_m - psi_c - np.log(-w))
    values += lead
    errors += 4e-16 * np.abs(lead)
    wk = np.ones_like(w)
    term = left_out = np.zeros_like(w)
    last_small = False
    for k in range(kmax + 1):
        if k != m - 1:
            zh, zh_err = per_point_hurwitz(m - k, c, tol)
            nxt = zh * wk
            small = k >= 2 and np.all(np.abs(nxt) < 0.25 * tol)
            if small and last_small:
                left_out = nxt
                break
            term, last_small = nxt, small
            values += term
            errors += zh_err * np.abs(wk) + 1e-16 * np.abs(term)
        wk = wk * w / (k + 1.0)
    errors += np.maximum(np.abs(term), np.abs(left_out))
    twist = np.exp(-w * c)
    return twist * values, np.abs(twist) * errors


def per_point_twisted_em(s, a, c, tol):
    """_phi_twisted_em one point at a time: the head in 16-term chunks,
    each added pairwise and the chunk sums one after another, the running
    sum of the moduli of its powers read at N, and the tail term by term."""
    s = complex(s)
    values = np.empty(a.shape, dtype=np.complex128)
    errors = np.empty(a.shape, dtype=float)
    per_a = {}   # the factors of one a, as for a one-point call
    for i in range(a.size):
        if a[i] not in per_a:
            a_off = a[i:i + 1] - np.round(a[i:i + 1])
            N, K, bound = lerch_core._twisted_em_plan(s, np.abs(a_off), tol)
            hi, lo = lerch_core._split(a_off)
            per_a[a[i]] = (np.abs(a_off), N, K, bound, hi, lo,
                           lerch_core._tail_coefs(s, a_off, N, K)[0],
                           lerch_core._em_phases(hi, lo, N))
        d, N, K, bound, hi, lo, coefs, z_N = per_a[a[i]]
        n = np.arange(N[0])
        power = np.exp(np.log(n + c[i]) * (-s))
        terms = lerch_core._em_phases(hi, lo, n) * power
        head = terms[:0].sum()
        for chunk in terms.reshape(-1, 16).sum(axis=-1):
            head = head + chunk
        moduli = 0.0
        for chunk in np.abs(power).reshape(-1, 16).sum(axis=-1):
            moduli = moduli + chunk
        y = N + c[i:i + 1]
        y_pow = np.exp(np.log(y) * (-s))
        products = coefs * (y / N) ** -np.arange(K[0], dtype=float)
        tail = products[0]
        for term in products[1:]:
            tail = tail + term
        values[i] = (head + z_N * y_pow * tail)[0]
        rounding = 2.0 ** -53 * (2.0 + abs(s) * np.log(y)) * (
            moduli + np.abs(y_pow) / d)
        errors[i] = (bound + rounding)[0]
    return values, errors


def twisted_em_inputs(kind, width, seed):
    """factor_inputs with a in [0.02, 1/3] or [2/3, 0.98], the side set
    by the value, so repeated values stay repeated."""
    a, c = factor_inputs(kind, width, 0.02, 1.0 / 3.0, seed)
    return np.where((a * 1e4) % 2.0 < 1.0, a, 1.0 - a), c


CUT = lerch_core._DISTINCT_MIN


def factor_inputs(kind, width, lo, hi, seed):
    """Two arrays of ``width`` points in [lo, hi): all distinct, a tensor
    grid (each value repeated), or one value repeated throughout."""
    rng = np.random.default_rng([seed, width])
    if kind == "distinct":
        return rng.uniform(lo, hi, width), rng.uniform(0.05, 1.0, width)
    if kind == "single":
        return (np.full(width, rng.uniform(lo, hi)),
                np.full(width, rng.uniform(0.05, 1.0)))
    rows = max(1, int(math.sqrt(width)))
    cols = -(-width // rows)
    A, C = np.meshgrid(rng.uniform(lo, hi, rows), rng.uniform(0.05, 1.0, cols),
                       indexing="ij")
    return A.ravel()[:width].copy(), C.ravel()[:width].copy()


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# widths around the cut-off, plus 2048 and 4096, where the 8-term head
# block reaches 256 KiB and numpy reuses temporaries in the term product
FACTOR_WIDTHS = [1, CUT - 1, CUT, CUT + 1, 2048, 4096]


@pytest.mark.parametrize("kind", ["distinct", "grid", "single"])
@pytest.mark.parametrize("width", FACTOR_WIDTHS)
class TestDistinctFactorsBitIdentical:
    def test_levin(self, kind, width):
        a, c = factor_inputs(kind, width, 0.36, 0.64, 1)
        s = 0.7 + 3j
        assert_same_bits(lerch_core._phi_levin(s, a, c, 1e-12),
                         per_point_levin(s, a, c, 1e-12))

    def test_hurwitz(self, kind, width):
        _, x = factor_inputs(kind, width, 0.0, 1.0, 2)
        for s in (2.5, -1.5 + 2j):
            assert_same_bits(lerch_core._hurwitz_em(s, x, 1e-13),
                             per_point_hurwitz(s, x, 1e-13))

    def test_small_a_integer_s(self, kind, width):
        a_off, c = factor_inputs(kind, width, -0.019, 0.019, 3)
        assert_same_bits(lerch_core._phi_small_a(2.0, a_off, c, 1e-12),
                         per_point_small_a_s2(a_off, c, 1e-12))

    def test_twisted_em(self, kind, width):
        a, c = twisted_em_inputs(kind, width, 4)
        for s in (0.5 + 3j, -0.3 + 2j):
            assert_same_bits(lerch_core._phi_twisted_em(s, a, c, 1e-12),
                             per_point_twisted_em(s, a, c, 1e-12))

    def test_distinct_values(self, kind, width):
        # all-distinct inputs come back as they are, with no gather
        a, _ = factor_inputs(kind, width, 0.36, 0.64, 1)
        values, inverse = lerch_core._distinct(a)
        if kind == "distinct" or width < CUT:
            assert values is a and inverse is None
        else:
            assert values.size < a.size
            assert np.array_equal(values[inverse], a)


# points of one twisted Euler-Maclaurin block
BLOCK_POINTS = lerch_core._EM_BLOCK_VALUES // lerch_core._EM_CHUNK


class TestTwistedEMBlocks:
    def test_wide_l_pm_many_points(self, monkeypatch):
        # the 20,000 one-sided points of a 100 x 100 grid, both halves of
        # L^-, run in three blocks
        calls = []
        inner = lerch_core._phi_twisted_em

        def recording(s, a, c, tol):
            values, errors = inner(s, a, c, tol)
            calls.append((s, a, c, tol, values, errors))
            return values, errors

        monkeypatch.setattr(lerch_core, "_phi_twisted_em", recording)
        a, c = twisted_em_inputs("grid", 10_000, 5)
        l_pm_many(1.33 - 10.88j, Parity.MINUS, a, c)
        [(s, a, c, tol, values, errors)] = calls
        assert a.size == 20_000 > 2 * BLOCK_POINTS
        pick = np.random.default_rng(5).choice(a.size, 40, replace=False)
        assert_same_bits((values[pick], errors[pick]),
                         per_point_twisted_em(s, a[pick], c[pick], tol))

    def test_each_factor_once_per_block(self, monkeypatch):
        s = 0.5 + 3j
        a, c = twisted_em_inputs("grid", 10_000, 6)
        coef_rows, head_powers = [], []
        tail_coefs, neg_pow = lerch_core._tail_coefs, lerch_core._neg_pow

        def counting_coefs(s, a_off, N, K):
            coef_rows.append(a_off.copy())
            return tail_coefs(s, a_off, N, K)

        def counting_pow(x, s):
            if np.ndim(x) == 2:   # the head's; the tail's are one per point
                head_powers.append(np.size(x))
            return neg_pow(x, s)

        monkeypatch.setattr(lerch_core, "_tail_coefs", counting_coefs)
        monkeypatch.setattr(lerch_core, "_neg_pow", counting_pow)
        lerch_star_many(s, a, c)

        # the distinct a by head length, longest first; each row holds
        # 100 points, so the second block starts in row 81
        a_off = np.unique(a - np.round(a))
        N, _, _ = lerch_core._twisted_em_plan(s, np.abs(a_off), 1e-12)
        N = np.sort(N)[::-1]
        rows = np.concatenate(coef_rows)
        assert np.array_equal(np.unique(rows), a_off)
        assert rows.size <= a_off.size + 1
        assert sum(head_powers) <= 100 * (N[0] + N[BLOCK_POINTS // 100])


class TestTwistedEMHeadCap:
    def test_beyond_the_cap_raises_at_once(self):
        # t = 1e8 at a = 0.1 plans a head of 238,732,624 terms, past the
        # 2^27 up to which the phases are exact
        start = time.perf_counter()
        with pytest.raises(DomainError, match="2\\^27"):
            lerch_star_many(0.5 + 1e8j, [0.1], [0.5])
        assert time.perf_counter() - start < 1.0

    def test_below_the_cap_evaluates(self):
        # t = 1e6: a head of 2,387,520 terms
        values, errors = lerch_star_many(0.5 + 1e6j, [0.1], [0.5])
        assert np.isfinite(values[0]) and np.isfinite(errors[0])


def order_cases():
    """(s, orders) as _phi_small_a asks for them: k = 0..13 at seeded s
    with Re s in [-0.5, 3] and |Im s| <= 12, at Re s = 1/2 and 1 (whose
    rounding floors take the exponents 1/2 and 2), and at s = 2 and 3
    without the pole row k = s - 1."""
    rng = np.random.default_rng(14)
    cases = [(complex(rng.uniform(-0.5, 3.0), rng.uniform(-12.0, 12.0)),
              range(14)) for _ in range(4)]
    cases += [(0.5 + 7j, range(14)), (1.0 - 3j, range(14))]
    cases += [(float(m), [k for k in range(14) if k != m - 1]) for m in (2, 3)]
    return cases


def order_rows(s, orders, x, tol):
    return lerch_core._hurwitz_em(np.array([s - k for k in orders]), x, tol)


class TestHurwitzOrders:
    @pytest.mark.parametrize("kind", ["distinct", "grid", "single"])
    @pytest.mark.parametrize("width", [1, 3, CUT, 2048])
    def test_rows_are_one_exponent_calls(self, kind, width):
        _, x = factor_inputs(kind, width, 0.0, 1.0, 5)
        for s, orders in order_cases():
            values, errors = order_rows(s, orders, x, 1e-12)
            assert values.shape == errors.shape == (len(orders), width)
            for i, k in enumerate(orders):
                assert_same_bits((values[i], errors[i]),
                                 lerch_core._hurwitz_em(s - k, x, 1e-12))

    def test_pole_row_raises(self):
        with pytest.raises(DegenerateParameterError):
            order_rows(2.0, range(14), np.array([0.3, 0.7]), 1e-12)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: the Hurwitz path's rounding floor undercounts (true "
        "errors up to ~20x its estimate), and at Re(s - k) below about -10 "
        "the head's cancellation loses every digit"))
    def test_rows_against_mpmath(self):
        rng = np.random.default_rng(15)
        for s, orders in order_cases():
            x = rng.uniform(0.05, 1.0, 2)
            values, errors = order_rows(s, orders, x, 1e-13)
            for i, k in enumerate(orders):
                for v, e, xi in zip(values[i], errors[i], x):
                    ref = mp_hurwitz(s - k, float(xi))
                    assert abs(v - ref) <= 1e-13 * abs(ref)
                    assert abs(v - ref) <= e

    def test_small_a_values_against_mpmath(self):
        # the expansion weights row k by |w|^k / k!, |w| < 0.13, so the
        # sums stay accurate where the high rows are not
        rng = np.random.default_rng(21)
        for i in range(12):
            s = complex(rng.uniform(-0.5, 3.0), rng.uniform(-12.0, 12.0))
            d = rng.uniform(1e-4, 0.02)
            a = d if i % 2 else 1.0 - d
            c = rng.uniform(0.05, 1.0)
            ref = mp_lerch(s, a, c)
            res = lerch_star(LerchParams(s, a, c))
            assert abs(res.value - ref) <= 1e-13 * abs(ref)


def full_pass_small_a(s, a_off, c, tol):
    """_phi_small_a with every order up to kmax in one _hurwitz_em call,
    the sum then stopping by the same rule."""
    s = complex(s)
    w = (2j * math.pi) * a_off
    worst = float(np.max(np.abs(a_off)))
    kmax = min(60, max(10, int(math.log(max(tol, 1e-17)) /
                               math.log(max(worst, 1e-17))) + 6))
    m = round(s.real)
    s_is_pos_int = abs(s - m) <= lerch_core._INT_TOL and m >= 1
    values = np.zeros(a_off.shape, dtype=np.complex128)
    errors = np.zeros(a_off.shape, dtype=float)
    log_neg_w = np.log(-w)
    if s_is_pos_int:
        psi_m = sum(1.0 / j for j in range(1, m)) - lerch_core._EULER_GAMMA
        psi_c = np.array([lerch_core._digamma(ci) for ci in c])
        lead = w ** (m - 1) / math.factorial(m - 1) * (psi_m - psi_c - log_neg_w)
    else:
        g = lerch_core.complex_gamma(1.0 - s).require_finite("Gamma(1-s)")
        lead = g * np.exp((s - 1.0) * log_neg_w)
    values += lead
    errors += 4e-16 * np.abs(lead)
    pole = m - 1 if s_is_pos_int else None
    orders = [k for k in range(kmax + 1) if k != pole]
    zh, zh_err = lerch_core._hurwitz_em(np.array([s - k for k in orders]), c, tol)
    rows = dict(zip(orders, zip(zh, zh_err)))
    wk = np.ones_like(w)
    term = left_out = np.zeros_like(w)
    last_small = False
    for k in range(kmax + 1):
        if k in rows:
            zh_k, err_k = rows[k]
            nxt = zh_k * wk
            small = k >= 2 and (np.abs(nxt) < 0.25 * tol).all()
            if small and last_small:
                left_out = nxt
                break
            term, last_small = nxt, small
            values += term
            errors += err_k * np.abs(wk) + 1e-16 * np.abs(term)
        wk = wk * w / (k + 1.0)
    errors += np.maximum(np.abs(term), np.abs(left_out))
    twist = np.exp(-w * c)
    return twist * values, np.abs(twist) * errors


class TestSmallAOrders:
    @pytest.mark.parametrize("width", [1, 500])
    def test_same_bits_as_the_full_pass_with_fewer_rows(self, monkeypatch,
                                                       width):
        rows = []
        inner = lerch_core._hurwitz_em

        def counting(s, x, tol):
            rows.append(np.size(s))
            return inner(s, x, tol)

        rng = np.random.default_rng([22, width])
        fewer = 0
        for s in (0.5 + 7j, 2.7 - 3j, -0.3 + 1j, 2.0, 3.0):
            for lo, hi in ((1e-4, 1e-3), (1e-3, 0.02), (1e-4, 0.02)):
                d = rng.uniform(lo, hi, width)
                a_off = np.where(rng.random(width) < 0.5, d, -d)
                c = rng.uniform(0.05, 1.0, width)
                want = full_pass_small_a(s, a_off, c, 1e-12)
                monkeypatch.setattr(lerch_core, "_hurwitz_em", counting)
                rows.clear()
                got = lerch_core._phi_small_a(s, a_off, c, 1e-12)
                monkeypatch.setattr(lerch_core, "_hurwitz_em", inner)
                assert_same_bits(got, want)
                kmax = min(60, max(10, int(math.log(1e-12) / math.log(
                    float(np.max(d)))) + 6))
                fewer += sum(rows) < kmax + 1 - (complex(s).imag == 0)
        assert fewer >= 10
