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
independent series-side cross check.  Each stencil calls the function
once, on arrays with a leading stencil axis of 4 (the offsets 2h, h, -h,
-2h), so a point function must broadcast over such leading axes.  Mixed
partials use the tensor product of the one-dimensional stencils, one call
on 16 offsets (the functions under test are C^{1,1} away from their
lattices, so the order of differentiation is immaterial).  A function
whose values carry leading member axes (a pair from
:func:`~lerchlab.twisted_space.l_pm_pair_twisted`) keeps them in front:
the stencil axis is found after them, and each row is the operator
applied to that member alone.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, LatticePointError, UnknownRelationError
from .lerch_core import _require_finite, lpm_is_identically_zero
from .special_functions import Parity
from .twisted_space import (
    OperatorKind,
    PointFn,
    TwistedFn,
    l_pm_pair_twisted,
    lattice_distance,
    r_power,
)

__all__ = [
    "apply_D",
    "commutator_residual",
    "raising_lowering_scan",
]

TWO_PI_I = 2j * math.pi


def _check_step(h: float):
    """The step h of the fourth-order central differences must lie in
    [1e-8, 0.05], and keep (a +- 2h, c +- 2h) off the discontinuity
    lattice at the evaluation points (else :class:`LatticePointError`);
    NaN lies in no interval."""
    if not 1e-8 <= h <= 0.05:
        raise DomainError(f"stencil step h = {h!r} must lie in [1e-8, 0.05]")


def _point_fn(F) -> PointFn:
    if isinstance(F, TwistedFn):
        return F.extend
    return F


def _d_axis(f: PointFn, axis: int, h: float) -> PointFn:
    """d/da (axis 0) or d/dc (axis 1) of f by the fourth-order central
    difference, from one call of f at all four offsets."""
    steps = np.array([2 * h, h, -h, -2 * h])

    def deriv(a, c):
        nd = max(np.ndim(a), np.ndim(c))
        delta = steps.reshape((4,) + (1,) * nd)
        v = f(a + delta, c) if axis == 0 else f(a, c + delta)
        if v.ndim > nd + 1:   # the stencil axis follows f's member axes
            v = np.moveaxis(v, -1 - nd, 0)
        return (-v[0] + 8.0 * v[1] - 8.0 * v[2] + v[3]) / (12.0 * h)
    return deriv


def _op_d_plus(f: PointFn, h: float) -> PointFn:
    return _d_axis(f, 1, h)


def _op_d_minus(f: PointFn, h: float) -> PointFn:
    da = _d_axis(f, 0, h)

    def op(a, c):
        return da(a, c) / TWO_PI_I + np.asarray(c) * f(a, c)

    return op


def _op_d_L(f: PointFn, h: float) -> PointFn:
    # tensor product of the 1-d stencils: 16 points
    mixed = _d_axis(_d_axis(f, 1, h), 0, h)
    dc = _d_axis(f, 1, h)

    def op(a, c):
        return mixed(a, c) / TWO_PI_I + np.asarray(c) * dc(a, c)

    return op


def _op_delta_L(f: PointFn, h: float) -> PointFn:
    dl = _op_d_L(f, h)

    def op(a, c):
        return dl(a, c) + 0.5 * f(a, c)

    return op


_D_BUILDERS = {
    OperatorKind.D_PLUS: _op_d_plus,
    OperatorKind.D_MINUS: _op_d_minus,
    OperatorKind.D_L: _op_d_L,
    OperatorKind.DELTA_L: _op_delta_L,
}


def _check_margin(F, a: np.ndarray, c: np.ndarray, h: float):
    _require_finite(a=a, c=c)
    if not isinstance(F, TwistedFn):
        return
    d = F.denominator
    margin = 2.0 * h * 1.01
    for name, x in (("a", a), ("c", c)):
        if np.any(lattice_distance(x, d) <= margin):
            raise LatticePointError(
                f"{name} within 2h of the 1/{d} lattice; stencil would "
                f"straddle a discontinuity")


def apply_D(kind: OperatorKind, F, a, c,
            h: float = 1e-4) -> complex | np.ndarray:
    """Apply D_plus, D_minus, D_L or Delta_L to F at (a, c), with
    stencil step h.  Leading member axes of F's values lead the result;
    on scalar (a, c) they are the result."""
    _check_step(h)
    if kind not in _D_BUILDERS:
        raise DomainError(f"not a differential operator: {kind}")
    a_arr = np.asarray(a, dtype=float)
    c_arr = np.asarray(c, dtype=float)
    scalar = a_arr.ndim == 0 and c_arr.ndim == 0
    a_arr, c_arr = np.broadcast_arrays(np.atleast_1d(a_arr),
                                       np.atleast_1d(c_arr))
    _check_margin(F, a_arr, c_arr, h)
    op = _D_BUILDERS[kind](_point_fn(F), h)
    values = op(a_arr, c_arr)
    if not scalar:
        return values
    values = values[..., 0]
    return values if values.ndim else complex(values)


# ---------------------------------------------------------------------------
# commutation relations
# ---------------------------------------------------------------------------

def _rel_d_plus_d_minus(f, h):
    lhs1 = _op_d_plus(_op_d_minus(f, h), h)
    lhs2 = _op_d_minus(_op_d_plus(f, h), h)
    return lambda a, c: lhs1(a, c) - lhs2(a, c) - f(a, c)


def _rel_d_plus_R(f, h):
    lhs = _op_d_plus(r_power(f, 1), h)
    rhs = r_power(_op_d_minus(f, h), 1)
    return lambda a, c: lhs(a, c) + TWO_PI_I * rhs(a, c)


def _rel_d_minus_R(f, h):
    lhs = _op_d_minus(r_power(f, 1), h)
    rhs = r_power(_op_d_plus(f, h), 1)
    return lambda a, c: lhs(a, c) - rhs(a, c) / TWO_PI_I


def _rel_d_L_R(f, h):
    lhs = _op_d_L(r_power(f, 1), h)
    rhs = r_power(_op_d_L(f, h), 1)
    rf = r_power(f, 1)
    return lambda a, c: lhs(a, c) + rhs(a, c) + rf(a, c)


def _rel_d_L_J(f, h):
    lhs = _op_d_L(r_power(f, 2), h)
    rhs = r_power(_op_d_L(f, h), 2)
    return lambda a, c: lhs(a, c) - rhs(a, c)


# relation -> builder of its residual function
_RELATIONS = {
    "D+ D- - D- D+ = I": _rel_d_plus_d_minus,
    "D+ R = -2 pi i R D-": _rel_d_plus_R,
    "D- R = (1/2 pi i) R D+": _rel_d_minus_R,
    "D_L R + R D_L = -R": _rel_d_L_R,
    "D_L R^2 = R^2 D_L": _rel_d_L_J,
}


def commutator_residual(relation: str, F,
                        points: Sequence[tuple[float, float]],
                        h: float = 1e-4) -> float:
    """Max-norm residual of a commutation relation, given by its equation.

    Supported relations: D+ D- - D- D+ = I, D+ R = -2 pi i R D-,
    D- R = (1/2 pi i) R D+, D_L R + R D_L = -R and D_L R^2 = R^2 D_L;
    anything else raises :class:`UnknownRelationError`.
    """
    _check_step(h)
    if relation not in _RELATIONS:
        raise UnknownRelationError(f"no verified relation {relation!r}")
    pts = np.asarray(points, dtype=float)
    a, c = pts[:, 0], pts[:, 1]
    _check_margin(F, a, c, h)
    resid_fn = _RELATIONS[relation](_point_fn(F), h)
    return float(np.max(np.abs(resid_fn(a, c))))


# ---------------------------------------------------------------------------
# raising/lowering actions on the Lerch eigenspace basis
# ---------------------------------------------------------------------------

def raising_lowering_scan(s: complex, samples: Sequence[tuple[float, float]],
                          h: float = 1e-4) -> float:
    """Max-norm residual of the parity-flipping shift actions on the L-basis.

    D_minus L_s^pm = L_{s-1}^mp and D_plus L_s^pm = -s L_{s+1}^mp, with
    the shifted functions evaluated by the series engine (not by
    differentiation), so the two routes are independent.
    """
    _check_step(h)
    s = complex(s)
    for shift in (-1.0, 0.0, 1.0):
        for parity in (Parity.PLUS, Parity.MINUS):
            if lpm_is_identically_zero(s + shift, parity):
                raise DomainError(
                    f"L^{parity.value} vanishes identically at s = {s + shift}; "
                    "scan is degenerate at integer s")

    pts = np.asarray(samples, dtype=float)
    a, c = pts[:, 0], pts[:, 1]
    pair = l_pm_pair_twisted(s)
    lower = apply_D(OperatorKind.D_MINUS, pair, a, c, h)
    raise_ = apply_D(OperatorKind.D_PLUS, pair, a, c, h)
    # member i lands on the other parity: rows reversed
    down = l_pm_pair_twisted(s - 1).extend(a, c)[::-1]
    up = l_pm_pair_twisted(s + 1).extend(a, c)[::-1]
    return max(float(np.max(np.abs(lower - down))),
               float(np.max(np.abs(raise_ + s * up))))
