import math

import numpy as np
import pytest

from lerchlab import (
    DomainError,
    LatticePointError,
    LerchParams,
    OperatorKind,
    OperatorSpec,
    Parity,
    StencilConfig,
    UnknownRelationError,
    apply_D,
    commutator_residual,
    l_pm_twisted,
    lerch_star,
    lerch_star_twisted,
    raising_lowering_scan,
)
from lerchlab.harness import smooth_twisted_fn

TWO_PI_I = 2j * math.pi


def smooth_fn(seed=0):
    return smooth_twisted_fn(np.random.default_rng(seed), label="diff-test")


class TestApplyD:
    def test_raising_on_lerch(self):
        # d/dc zeta(s) = -s zeta(s+1): stencil side vs series side
        s, a, c = 2.2, 0.3, 0.6
        cfg = StencilConfig(h=1e-4)
        F = lerch_star_twisted(s)
        got = apply_D(OperatorKind.D_PLUS, F, a, c, cfg)
        want = -s * lerch_star(LerchParams(s + 1, a, c)).value
        assert abs(got - want) < 1e-7

    def test_lowering_on_lerch(self):
        s, a, c = 2.2, 0.3, 0.6
        cfg = StencilConfig(h=1e-4)
        F = lerch_star_twisted(s)
        got = apply_D(OperatorKind.D_MINUS, F, a, c, cfg)
        want = lerch_star(LerchParams(s - 1, a, c)).value
        assert abs(got - want) < 1e-7

    def test_lerch_differential_eigenvalue(self):
        # D_L F = -s F on the eigenspace basis member L^+
        s = 1.7
        cfg = StencilConfig(h=1e-3)
        F = l_pm_twisted(s, Parity.PLUS)
        a, c = 0.35, 0.62
        got = apply_D(OperatorKind.D_L, F, a, c, cfg)
        assert abs(got + s * F.extend(a, c)) < 1e-6

    def test_delta_is_d_l_plus_half(self):
        cfg = StencilConfig(h=1e-3)
        f = smooth_fn()
        a, c = 0.4, 0.55
        dl = apply_D(OperatorKind.D_L, f, a, c, cfg)
        delta = apply_D(OperatorKind.DELTA_L, f, a, c, cfg)
        assert abs(delta - dl - 0.5 * f.extend(a, c)) < 1e-12

    def test_delta_matches_symmetrized_product(self):
        # Delta_L = (D+ D- + D- D+)/2 built from composed stencils
        cfg = StencilConfig(h=2e-3)
        f = smooth_fn()
        a, c = np.array([0.41]), np.array([0.57])

        def dplus_f(aa, cc):
            return apply_D(OperatorKind.D_PLUS, f.extend, aa, cc, cfg)

        def dminus_f(aa, cc):
            return apply_D(OperatorKind.D_MINUS, f.extend, aa, cc, cfg)

        sym = 0.5 * (apply_D(OperatorKind.D_MINUS, dplus_f, a, c, cfg)
                     + apply_D(OperatorKind.D_PLUS, dminus_f, a, c, cfg))
        direct = apply_D(OperatorKind.DELTA_L, f, a, c, cfg)
        assert abs(sym[0] - direct[0]) < 1e-6

    def test_delta_eigenvalue_on_lerch(self):
        # Delta_L zeta = -(s - 1/2) zeta
        s = 2.5
        cfg = StencilConfig(h=1e-3)
        F = lerch_star_twisted(s)
        a, c = 0.3, 0.7
        got = apply_D(OperatorKind.DELTA_L, F, a, c, cfg)
        fv = F.extend(a, c)
        assert abs(got + (s - 0.5) * fv) < 1e-5 * (1 + abs(fv))

    def test_lattice_margin(self):
        f = smooth_fn()
        cfg = StencilConfig(h=1e-3)
        with pytest.raises(LatticePointError):
            apply_D(OperatorKind.D_PLUS, f, 0.5, 1e-4, cfg)

    def test_step_underflow(self):
        with pytest.raises(DomainError):
            StencilConfig(h=1e-12)

    def test_twisted_periodicity_preserved(self):
        # D_L F is twisted-periodic: values at (a, c) and (a, c+1)
        cfg = StencilConfig(h=1e-3)
        f = smooth_fn()
        a, c = 0.27, 0.63
        v0 = apply_D(OperatorKind.D_L, f, a, c, cfg)
        v1 = apply_D(OperatorKind.D_L, f, a, c + 1.0, cfg)
        assert abs(v1 - np.exp(-TWO_PI_I * a) * v0) < 1e-6


class TestFiniteDifferenceConvergence:
    def test_fourth_order_rate(self):
        f = smooth_fn(4)
        a, c = 0.33, 0.58
        errs = []
        ref = apply_D(OperatorKind.D_PLUS, f, a, c,
                      StencilConfig(h=1e-4))
        for h in (1.6e-2, 8e-3):
            got = apply_D(OperatorKind.D_PLUS, f, a, c,
                          StencilConfig(h=h))
            errs.append(abs(got - ref))
        rate = math.log2(errs[0] / errs[1])
        assert 3.2 < rate < 4.8


class TestCommutators:
    @pytest.fixture
    def pts(self):
        rng = np.random.default_rng(8)
        return [(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
                for _ in range(10)]

    def test_canonical_pair(self, pts):
        residual = commutator_residual(
            OperatorSpec(OperatorKind.D_PLUS), OperatorSpec(OperatorKind.D_MINUS),
            smooth_fn(1), pts, StencilConfig(h=1e-4))
        assert residual <= 1e-6, residual

    def test_d_plus_with_r(self, pts):
        residual = commutator_residual(
            OperatorSpec(OperatorKind.D_PLUS), OperatorSpec(OperatorKind.R_POW, 1),
            smooth_fn(1), pts, StencilConfig(h=1e-4))
        assert residual <= 1e-5, residual

    def test_d_minus_with_r(self, pts):
        residual = commutator_residual(
            OperatorSpec(OperatorKind.D_MINUS), OperatorSpec(OperatorKind.R_POW, 1),
            smooth_fn(1), pts, StencilConfig(h=1e-4))
        assert residual <= 1e-5, residual

    def test_d_l_anticommutes_with_r(self, pts):
        residual = commutator_residual(
            OperatorSpec(OperatorKind.D_L), OperatorSpec(OperatorKind.R_POW, 1),
            smooth_fn(1), pts, StencilConfig(h=1e-4))
        assert residual <= 1e-5, residual

    def test_d_l_commutes_with_j(self, pts):
        residual = commutator_residual(
            OperatorSpec(OperatorKind.D_L), OperatorSpec(OperatorKind.R_POW, 2),
            smooth_fn(1), pts, StencilConfig(h=1e-4))
        assert residual <= 1e-5, residual

    def test_unknown_pair(self, pts):
        with pytest.raises(UnknownRelationError):
            commutator_residual(
                OperatorSpec(OperatorKind.D_MINUS),
                OperatorSpec(OperatorKind.D_PLUS),
                smooth_fn(1), pts)


class TestRaisingLoweringScan:
    def test_at_s_25(self):
        rng = np.random.default_rng(9)
        pts = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)) for _ in range(8)]
        residual = raising_lowering_scan(2.5, pts, StencilConfig(h=1e-4))
        assert residual <= 1e-6, residual

    def test_at_s_17(self):
        rng = np.random.default_rng(10)
        pts = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)) for _ in range(8)]
        residual = raising_lowering_scan(1.7, pts, StencilConfig(h=1e-4))
        assert residual <= 1e-6, residual

    def test_parity_flip_is_what_is_checked(self):
        # D- L_s^+ lands on L_{s-1}^- (not +): flipping the target breaks it
        s, a, c = 2.5, 0.3, 0.6
        cfg = StencilConfig(h=1e-4)
        F = l_pm_twisted(s, Parity.PLUS)
        lower = apply_D(OperatorKind.D_MINUS, F, a, c, cfg)
        right = l_pm_twisted(s - 1, Parity.MINUS).extend(a, c)
        wrong = l_pm_twisted(s - 1, Parity.PLUS).extend(a, c)
        assert abs(lower - right) < 1e-7
        assert abs(lower - wrong) > 1e-3

    def test_degenerate_integer_s(self):
        pts = [(0.3, 0.6)]
        with pytest.raises(DomainError):
            raising_lowering_scan(1.0, pts)  # L_0^+ vanishes identically
