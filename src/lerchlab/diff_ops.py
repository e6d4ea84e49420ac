"""Numerical raising/lowering/Lerch differential operators and the
commutation-relation residuals.

Operators on twisted-periodic functions F(a, c):

    D_plus  = d/dc                      (raising: sends s to s+1 on Lerch)
    D_minus = (1/2 pi i) d/da + c       (lowering: s to s-1)
    D_L     = D_minus D_plus = (1/2 pi i) d2/dadc + c d/dc
    Delta_L = (D_plus D_minus + D_minus D_plus)/2 = D_L + I/2

Derivatives are fourth-order central differences applied to the
extension of the function, so the same code path serves any
TwistedFn; the raising/lowering identities on the Lerch family provide an
independent series-side cross check.  Mixed partials use the tensor
product of the one-dimensional stencils (the functions under test are
C^{1,1} away from their lattices, so the order of differentiation is
immaterial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, LatticePointError, UnknownRelationError
from .special_functions import Parity
from .twisted_space import (
    OperatorKind,
    OperatorSpec,
    PointFn,
    TwistedFn,
    l_pm_twisted,
    lattice_distance,
    r_power,
)

__all__ = [
    "StencilConfig",
    "apply_D",
    "commutator_residual",
    "raising_lowering_scan",
]

TWO_PI_I = 2j * math.pi


@dataclass
class StencilConfig:
    """Step of the fourth-order central differences.

    ``h`` must keep (a +- 2h, c +- 2h) off the discontinuity lattice at
    the evaluation points; violations raise :class:`LatticePointError`.
    """

    h: float = 1e-4

    def __post_init__(self):
        if self.h < 1e-8:
            raise DomainError("stencil step underflow (h < 1e-8)")
        if self.h > 0.05:
            raise DomainError("stencil step too large for unit-cell geometry")


def _point_fn(F) -> PointFn:
    if isinstance(F, TwistedFn):
        return F.extend
    return F


def _d_axis(f: PointFn, axis: int, cfg: StencilConfig) -> PointFn:
    h = cfg.h

    def shifted(a, c, delta):
        if axis == 0:
            return f(a + delta, c)
        return f(a, c + delta)

    def deriv(a, c):
        return (-shifted(a, c, 2 * h) + 8.0 * shifted(a, c, h)
                - 8.0 * shifted(a, c, -h) + shifted(a, c, -2 * h)) / (12.0 * h)
    return deriv


def _op_d_plus(f: PointFn, cfg: StencilConfig) -> PointFn:
    return _d_axis(f, 1, cfg)


def _op_d_minus(f: PointFn, cfg: StencilConfig) -> PointFn:
    da = _d_axis(f, 0, cfg)

    def op(a, c):
        return da(a, c) / TWO_PI_I + np.asarray(c) * f(a, c)

    return op


def _op_d_L(f: PointFn, cfg: StencilConfig) -> PointFn:
    # tensor product of the 1-d stencils: 16 points
    mixed = _d_axis(_d_axis(f, 1, cfg), 0, cfg)
    dc = _d_axis(f, 1, cfg)

    def op(a, c):
        return mixed(a, c) / TWO_PI_I + np.asarray(c) * dc(a, c)

    return op


def _op_delta_L(f: PointFn, cfg: StencilConfig) -> PointFn:
    dl = _op_d_L(f, cfg)

    def op(a, c):
        return dl(a, c) + 0.5 * f(a, c)

    return op


_D_BUILDERS = {
    OperatorKind.D_PLUS: _op_d_plus,
    OperatorKind.D_MINUS: _op_d_minus,
    OperatorKind.D_L: _op_d_L,
    OperatorKind.DELTA_L: _op_delta_L,
}


def _check_margin(F, a: np.ndarray, c: np.ndarray, cfg: StencilConfig):
    if not isinstance(F, TwistedFn):
        return
    d = F.denominator
    margin = 2.0 * cfg.h * 1.01
    for name, x in (("a", a), ("c", c)):
        if np.any(lattice_distance(x, d) <= margin):
            raise LatticePointError(
                f"{name} within 2h of the 1/{d} lattice; stencil would "
                f"straddle a discontinuity")


def apply_D(kind: OperatorKind, F, a, c,
            cfg: StencilConfig | None = None) -> complex | np.ndarray:
    """Apply D_plus, D_minus, D_L or Delta_L to F at (a, c)."""
    cfg = cfg or StencilConfig()
    if kind not in _D_BUILDERS:
        raise DomainError(f"not a differential operator: {kind}")
    a_arr = np.asarray(a, dtype=float)
    c_arr = np.asarray(c, dtype=float)
    scalar = a_arr.ndim == 0 and c_arr.ndim == 0
    a_arr, c_arr = np.broadcast_arrays(np.atleast_1d(a_arr),
                                       np.atleast_1d(c_arr))
    _check_margin(F, a_arr, c_arr, cfg)
    op = _D_BUILDERS[kind](_point_fn(F), cfg)
    values = op(a_arr, c_arr)
    return complex(values.ravel()[0]) if scalar else values


# ---------------------------------------------------------------------------
# commutation relations
# ---------------------------------------------------------------------------

def _rel_d_plus_d_minus(f, cfg):
    lhs1 = _op_d_plus(_op_d_minus(f, cfg), cfg)
    lhs2 = _op_d_minus(_op_d_plus(f, cfg), cfg)
    return lambda a, c: lhs1(a, c) - lhs2(a, c) - f(a, c)


def _rel_d_plus_R(f, cfg):
    lhs = _op_d_plus(r_power(f, 1), cfg)
    rhs = r_power(_op_d_minus(f, cfg), 1)
    return lambda a, c: lhs(a, c) + TWO_PI_I * rhs(a, c)


def _rel_d_minus_R(f, cfg):
    lhs = _op_d_minus(r_power(f, 1), cfg)
    rhs = r_power(_op_d_plus(f, cfg), 1)
    return lambda a, c: lhs(a, c) - rhs(a, c) / TWO_PI_I


def _rel_d_L_R(f, cfg):
    lhs = _op_d_L(r_power(f, 1), cfg)
    rhs = r_power(_op_d_L(f, cfg), 1)
    rf = r_power(f, 1)
    return lambda a, c: lhs(a, c) + rhs(a, c) + rf(a, c)


def _rel_d_L_J(f, cfg):
    lhs = _op_d_L(r_power(f, 2), cfg)
    rhs = r_power(_op_d_L(f, cfg), 2)
    return lambda a, c: lhs(a, c) - rhs(a, c)


# (A, B, R power) -> residual builder of the relation asserted for (A, B)
_RELATIONS = {
    (OperatorKind.D_PLUS, OperatorKind.D_MINUS, None): _rel_d_plus_d_minus,
    (OperatorKind.D_PLUS, OperatorKind.R_POW, 1): _rel_d_plus_R,
    (OperatorKind.D_MINUS, OperatorKind.R_POW, 1): _rel_d_minus_R,
    (OperatorKind.D_L, OperatorKind.R_POW, 1): _rel_d_L_R,
    (OperatorKind.D_L, OperatorKind.R_POW, 2): _rel_d_L_J,
}


def commutator_residual(A: OperatorSpec, B: OperatorSpec, F,
                        points: Sequence[tuple[float, float]],
                        cfg: StencilConfig | None = None) -> float:
    """Max-norm residual of the asserted commutation relation of (A, B).

    Supported pairs and relations: D+ D- - D- D+ = I, D+ R = -2 pi i R D-,
    D- R = (1/2 pi i) R D+, D_L R + R D_L = -R and D_L R^2 = R^2 D_L;
    anything else raises :class:`UnknownRelationError`.
    """
    cfg = cfg or StencilConfig()
    key = (A.kind, B.kind, B.index if B.kind is OperatorKind.R_POW else None)
    if key not in _RELATIONS:
        raise UnknownRelationError(
            f"no verified relation for ({A.kind.value}, {B.kind.value})")
    pts = np.asarray(points, dtype=float)
    a, c = pts[:, 0], pts[:, 1]
    _check_margin(F, a, c, cfg)
    resid_fn = _RELATIONS[key](_point_fn(F), cfg)
    return float(np.max(np.abs(resid_fn(a, c))))


# ---------------------------------------------------------------------------
# raising/lowering actions on the Lerch eigenspace basis
# ---------------------------------------------------------------------------

def raising_lowering_scan(s: complex, samples: Sequence[tuple[float, float]],
                          cfg: StencilConfig | None = None) -> float:
    """Max-norm residual of the parity-flipping shift actions on the L-basis.

    D_minus L_s^pm = L_{s-1}^mp and D_plus L_s^pm = -s L_{s+1}^mp, with
    the shifted functions evaluated by the series engine (not by
    differentiation), so the two routes are independent.
    """
    from .lerch_core import lpm_is_identically_zero

    cfg = cfg or StencilConfig()
    s = complex(s)
    for shift in (-1.0, 0.0, 1.0):
        for parity in (Parity.PLUS, Parity.MINUS):
            if lpm_is_identically_zero(s + shift, parity):
                raise DomainError(
                    f"L^{parity.value} vanishes identically at s = {s + shift}; "
                    "scan is degenerate at integer s")

    pts = np.asarray(samples, dtype=float)
    a, c = pts[:, 0], pts[:, 1]
    worst = 0.0
    flip = {Parity.PLUS: Parity.MINUS, Parity.MINUS: Parity.PLUS}
    for parity in (Parity.PLUS, Parity.MINUS):
        Ls = l_pm_twisted(s, parity)
        down = l_pm_twisted(s - 1, flip[parity])
        up = l_pm_twisted(s + 1, flip[parity])
        lower = apply_D(OperatorKind.D_MINUS, Ls, a, c, cfg)
        raise_ = apply_D(OperatorKind.D_PLUS, Ls, a, c, cfg)
        worst = max(worst,
                    float(np.max(np.abs(lower - down.extend(a, c)))),
                    float(np.max(np.abs(raise_ + s * up.extend(a, c)))))
    return worst
