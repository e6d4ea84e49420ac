import math

import numpy as np
import pytest

from lerchlab import (
    DomainError,
    LatticePointError,
    LerchParams,
    OperatorKind,
    Parity,
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
        h = 1e-4
        F = lerch_star_twisted(s)
        got = apply_D(OperatorKind.D_PLUS, F, a, c, h)
        want = -s * lerch_star(LerchParams(s + 1, a, c)).value
        assert abs(got - want) < 1e-7

    def test_lowering_on_lerch(self):
        s, a, c = 2.2, 0.3, 0.6
        h = 1e-4
        F = lerch_star_twisted(s)
        got = apply_D(OperatorKind.D_MINUS, F, a, c, h)
        want = lerch_star(LerchParams(s - 1, a, c)).value
        assert abs(got - want) < 1e-7

    def test_lerch_differential_eigenvalue(self):
        # D_L F = -s F on the eigenspace basis member L^+
        s = 1.7
        h = 1e-3
        F = l_pm_twisted(s, Parity.PLUS)
        a, c = 0.35, 0.62
        got = apply_D(OperatorKind.D_L, F, a, c, h)
        assert abs(got + s * F.extend(a, c)) < 1e-6

    def test_delta_is_d_l_plus_half(self):
        h = 1e-3
        f = smooth_fn()
        a, c = 0.4, 0.55
        dl = apply_D(OperatorKind.D_L, f, a, c, h)
        delta = apply_D(OperatorKind.DELTA_L, f, a, c, h)
        assert abs(delta - dl - 0.5 * f.extend(a, c)) < 1e-12

    def test_delta_matches_symmetrized_product(self):
        # Delta_L = (D+ D- + D- D+)/2 built from composed stencils
        h = 2e-3
        f = smooth_fn()
        a, c = np.array([0.41]), np.array([0.57])

        def dplus_f(aa, cc):
            return apply_D(OperatorKind.D_PLUS, f.extend, aa, cc, h)

        def dminus_f(aa, cc):
            return apply_D(OperatorKind.D_MINUS, f.extend, aa, cc, h)

        sym = 0.5 * (apply_D(OperatorKind.D_MINUS, dplus_f, a, c, h)
                     + apply_D(OperatorKind.D_PLUS, dminus_f, a, c, h))
        direct = apply_D(OperatorKind.DELTA_L, f, a, c, h)
        assert abs(sym[0] - direct[0]) < 1e-6

    def test_delta_eigenvalue_on_lerch(self):
        # Delta_L zeta = -(s - 1/2) zeta
        s = 2.5
        h = 1e-3
        F = lerch_star_twisted(s)
        a, c = 0.3, 0.7
        got = apply_D(OperatorKind.DELTA_L, F, a, c, h)
        fv = F.extend(a, c)
        assert abs(got + (s - 0.5) * fv) < 1e-5 * (1 + abs(fv))

    def test_lattice_margin(self):
        f = smooth_fn()
        h = 1e-3
        with pytest.raises(LatticePointError):
            apply_D(OperatorKind.D_PLUS, f, 0.5, 1e-4, h)

    def test_step_underflow(self):
        with pytest.raises(DomainError):
            apply_D(OperatorKind.D_PLUS, smooth_fn(), 0.5, 0.5, h=1e-12)

    def test_step_too_large(self):
        with pytest.raises(DomainError):
            apply_D(OperatorKind.D_PLUS, smooth_fn(), 0.5, 0.5, h=0.06)

    def test_twisted_periodicity_preserved(self):
        # D_L F is twisted-periodic: values at (a, c) and (a, c+1)
        h = 1e-3
        f = smooth_fn()
        a, c = 0.27, 0.63
        v0 = apply_D(OperatorKind.D_L, f, a, c, h)
        v1 = apply_D(OperatorKind.D_L, f, a, c + 1.0, h)
        assert abs(v1 - np.exp(-TWO_PI_I * a) * v0) < 1e-6


class TestFiniteDifferenceConvergence:
    def test_fourth_order_rate(self):
        f = smooth_fn(4)
        a, c = 0.33, 0.58
        errs = []
        ref = apply_D(OperatorKind.D_PLUS, f, a, c, 1e-4)
        for h in (1.6e-2, 8e-3):
            got = apply_D(OperatorKind.D_PLUS, f, a, c, h)
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
        residual = commutator_residual("D+ D- - D- D+ = I",
                                       smooth_fn(1), pts, 1e-4)
        assert residual <= 1e-6, residual

    def test_d_plus_with_r(self, pts):
        residual = commutator_residual("D+ R = -2 pi i R D-",
                                       smooth_fn(1), pts, 1e-4)
        assert residual <= 1e-5, residual

    def test_d_minus_with_r(self, pts):
        residual = commutator_residual("D- R = (1/2 pi i) R D+",
                                       smooth_fn(1), pts, 1e-4)
        assert residual <= 1e-5, residual

    def test_d_l_anticommutes_with_r(self, pts):
        residual = commutator_residual("D_L R + R D_L = -R",
                                       smooth_fn(1), pts, 1e-4)
        assert residual <= 1e-5, residual

    def test_d_l_commutes_with_j(self, pts):
        residual = commutator_residual("D_L R^2 = R^2 D_L",
                                       smooth_fn(1), pts, 1e-4)
        assert residual <= 1e-5, residual

    def test_unknown_pair(self, pts):
        with pytest.raises(UnknownRelationError):
            commutator_residual("D- D+ - D+ D- = I", smooth_fn(1), pts)


class TestRaisingLoweringScan:
    def test_at_s_25(self):
        rng = np.random.default_rng(9)
        pts = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)) for _ in range(8)]
        residual = raising_lowering_scan(2.5, pts, 1e-4)
        assert residual <= 1e-6, residual

    def test_at_s_17(self):
        rng = np.random.default_rng(10)
        pts = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)) for _ in range(8)]
        residual = raising_lowering_scan(1.7, pts, 1e-4)
        assert residual <= 1e-6, residual

    def test_parity_flip_is_what_is_checked(self):
        # D- L_s^+ lands on L_{s-1}^- (not +): flipping the target breaks it
        s, a, c = 2.5, 0.3, 0.6
        h = 1e-4
        F = l_pm_twisted(s, Parity.PLUS)
        lower = apply_D(OperatorKind.D_MINUS, F, a, c, h)
        right = l_pm_twisted(s - 1, Parity.MINUS).extend(a, c)
        wrong = l_pm_twisted(s - 1, Parity.PLUS).extend(a, c)
        assert abs(lower - right) < 1e-7
        assert abs(lower - wrong) > 1e-3

    def test_degenerate_integer_s(self):
        pts = [(0.3, 0.6)]
        with pytest.raises(DomainError):
            raising_lowering_scan(1.0, pts)  # L_0^+ vanishes identically


class TestNaNStep:
    # NaN fails both h < 1e-8 and h > 0.05, so the interval test must
    # be written the other way round
    def test_apply_d(self):
        with pytest.raises(DomainError):
            apply_D(OperatorKind.D_PLUS, smooth_fn(), 0.3, 0.4, float("nan"))

    def test_commutator_residual(self):
        with pytest.raises(DomainError):
            commutator_residual("D+ D- - D- D+ = I", smooth_fn(),
                                [(0.3, 0.4)], float("nan"))

    def test_raising_lowering_scan(self):
        with pytest.raises(DomainError):
            raising_lowering_scan(2.5, [(0.3, 0.4)], float("nan"))


def four_call_d_axis(f, axis, h):
    """The fourth-order central difference with one call of f per offset."""
    def shifted(a, c, delta):
        return f(a + delta, c) if axis == 0 else f(a, c + delta)

    def deriv(a, c):
        return (-shifted(a, c, 2 * h) + 8.0 * shifted(a, c, h)
                - 8.0 * shifted(a, c, -h) + shifted(a, c, -2 * h)) / (12.0 * h)
    return deriv


STENCIL_FNS = {
    "smooth": lambda: smooth_fn(5),
    "L+(2.5)": lambda: l_pm_twisted(2.5, Parity.PLUS),
    "L-(0.5+3i)": lambda: l_pm_twisted(0.5 + 3j, Parity.MINUS),
}
RELATIONS = ["D+ D- - D- D+ = I", "D+ R = -2 pi i R D-",
             "D- R = (1/2 pi i) R D+", "D_L R + R D_L = -R",
             "D_L R^2 = R^2 D_L"]


class TestStackedStencil:
    """One call of f on a leading stencil axis gives the bits of one call
    per offset, for every operator and commutation relation."""

    @pytest.fixture
    def pts(self):
        rng = np.random.default_rng(12)
        return rng.uniform(0.15, 0.85, (6, 2))

    @staticmethod
    def both(monkeypatch, compute):
        import lerchlab.diff_ops as diff_ops

        stacked = compute()
        with monkeypatch.context() as m:
            m.setattr(diff_ops, "_d_axis", four_call_d_axis)
            reference = compute()
        return stacked, reference

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    @pytest.mark.parametrize("name", STENCIL_FNS)
    @pytest.mark.parametrize("kind", [OperatorKind.D_PLUS, OperatorKind.D_MINUS,
                                      OperatorKind.D_L, OperatorKind.DELTA_L])
    def test_apply_d(self, monkeypatch, pts, kind, name, h):
        F = STENCIL_FNS[name]()
        got, want = self.both(
            monkeypatch, lambda: apply_D(kind, F, pts[:, 0], pts[:, 1], h))
        assert got.shape == (len(pts),)
        assert got.tobytes() == want.tobytes()
        got, want = self.both(monkeypatch,
                              lambda: apply_D(kind, F, *pts[0], h))
        assert isinstance(got, complex) and got == want

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    @pytest.mark.parametrize("name", STENCIL_FNS)
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_commutator_residual(self, monkeypatch, pts, relation, name, h):
        F = STENCIL_FNS[name]()
        got, want = self.both(
            monkeypatch, lambda: commutator_residual(relation, F, pts, h))
        assert got == want

    def test_one_call_per_stencil(self):
        calls = []
        f = smooth_fn()

        def counted(a, c):
            calls.append(np.broadcast_shapes(np.shape(a), np.shape(c)))
            return f.extend(a, c)

        a, c = np.array([0.3, 0.4, 0.5]), np.array([0.6, 0.5, 0.4])
        apply_D(OperatorKind.D_PLUS, counted, a, c, 1e-3)
        apply_D(OperatorKind.D_L, counted, a, c, 1e-3)
        assert calls == [(4, 3), (4, 4, 3), (4, 3)]
