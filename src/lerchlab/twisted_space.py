"""Twisted-periodic functions on the plane and the functional operators
acting on them.

A :class:`TwistedFn` is determined by an evaluator on the open unit square
together with the extension rules

    F(a + 1, c) = F(a, c),        F(a, c + 1) = e^(-2 pi i a) F(a, c),

and an admissible denominator d: its discontinuities are confined to the
lattice lines (1/d)Z in each variable, where evaluation is refused.
Operators compose lazily: applying a Hecke operator returns a new
TwistedFn whose core sums shifted/dilated evaluations of the argument via
its extension, and whose denominator is multiplied by the operator index
(discontinuity lattices refine, they are never recomputed).

The four Hecke families are

    T_m f(a,c)     = (1/m) sum_k f((a+k)/m, m c)
    S_m f(a,c)     = (1/m) sum_k e^(2 pi i k a) f(m a, (c+k)/m)
    T_m_vee f(a,c) = (1/m) sum_k e^(2 pi i ((1-m)a+k)/m) f((a+k)/m, 1+m(c-1))
    S_m_vee f(a,c) = (1/m) sum_k e^(2 pi i (m-k-1) a) f(1+m(a-1), (c+m-k-1)/m)

(the conjugates of T_m by powers of the order-4 operator
R f(a,c) = e^(-2 pi i a c) f(1-c, a)).
"""

from __future__ import annotations

import enum
import math
import numbers
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, LatticePointError
from .lerch_core import _frac, l_pm_many, lerch_star_many
from .special_functions import Parity

__all__ = [
    "TwistedFn",
    "OperatorKind",
    "lerch_star_twisted",
    "l_pm_twisted",
    "l_pm_pair_twisted",
    "apply_hecke",
    "apply_R",
    "kubert_1d",
    "zeta_operator_partial",
]

GRID_TOL = 1e-13

PointFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def lattice_distance(x, denominator: int) -> np.ndarray:
    """Distance of each x from the discontinuity lattice (1/denominator)Z."""
    scaled = np.asarray(x, dtype=float) * denominator
    return np.abs(scaled - np.round(scaled)) / denominator


class OperatorKind(enum.Enum):
    T = "T"
    S = "S"
    T_VEE = "T_vee"
    S_VEE = "S_vee"
    D_PLUS = "D_plus"
    D_MINUS = "D_minus"
    D_L = "D_L"
    DELTA_L = "Delta_L"


_HECKE_KINDS = {OperatorKind.T, OperatorKind.S, OperatorKind.T_VEE,
                OperatorKind.S_VEE}


def _twist_phase(k: np.ndarray, a_red: np.ndarray) -> np.ndarray:
    """e^(-2 pi i frac(k a')) over the broadcast shape of k and a'.

    On axis-shaped inputs k = floor(c) takes a few integer values, so the
    phase is tabulated once per distinct k and a'-node and then gathered;
    each entry is the same floating-point expression as the direct form.
    """
    full = math.prod(np.broadcast_shapes(k.shape, a_red.shape))
    if a_red.size < full:
        ku, inv = np.unique(k, return_inverse=True)
        if ku.size * a_red.size < full:
            ku = ku.reshape((-1,) + (1,) * a_red.ndim)
            table = np.exp(-2j * math.pi * _frac(ku * a_red))
            return np.take_along_axis(table, inv.reshape((1,) + k.shape),
                                      axis=0)[0]
    return np.exp(-2j * math.pi * _frac(k * a_red))


class TwistedFn:
    """A function known on the open unit square, twisted-periodic beyond.

    ``core`` must accept broadcastable float arrays (a, c) with values in
    the open square and return complex values.  Instances are immutable;
    operators build new instances and never mutate inputs.
    """

    __slots__ = ("core", "denominator", "label")

    def __init__(self, core: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 denominator: int = 1, label: str = ""):
        if denominator < 1:
            raise DomainError("denominator must be a positive integer")
        self.core = core
        self.denominator = int(denominator)
        self.label = label

    def __repr__(self):
        return f"TwistedFn({self.label or 'anonymous'}, d={self.denominator})"

    def _check_off_grid(self, a: np.ndarray, c: np.ndarray):
        d = self.denominator
        for name, x in (("a", a), ("c", c)):
            dist = lattice_distance(x, d)
            if np.any(dist <= GRID_TOL):
                bad = np.asarray(x).ravel()[np.argmin(dist.ravel())]
                raise LatticePointError(
                    f"{name} = {bad!r} lies on the 1/{d} discontinuity lattice")

    def extend(self, a, c):
        """Evaluate anywhere off the discontinuity lattice.

        Reduction: F(a, c) = e^(-2 pi i floor(c) a') core(a', c') with
        a' = a mod 1 and c' = c mod 1 (the a-rule first, then the c-rule
        floor(c) times; the order is immaterial since the a-shift carries
        no phase).

        a and c are reduced as given, not broadcast against each other:
        an (Na, 1) column of a and a (1, Nc) row of c reach the core as
        such, and the result is broadcast to the full shape only at the
        end.  The twist phase is computed only when some floor(c) != 0.
        """
        a_arr = np.atleast_1d(np.asarray(a, dtype=float))
        c_arr = np.atleast_1d(np.asarray(c, dtype=float))
        scalar = np.ndim(a) == 0 and np.ndim(c) == 0
        shape = np.broadcast_shapes(a_arr.shape, c_arr.shape)
        # cores index a and c with the same number of axes
        a_arr = a_arr.reshape((1,) * (len(shape) - a_arr.ndim) + a_arr.shape)
        c_arr = c_arr.reshape((1,) * (len(shape) - c_arr.ndim) + c_arr.shape)
        self._check_off_grid(a_arr, c_arr)
        a_red = _frac(a_arr)
        k = np.floor(c_arr)
        c_red = c_arr - k
        values = np.asarray(self.core(a_red, c_red), dtype=np.complex128)
        if np.any(k != 0.0):
            values = _twist_phase(k, a_red) * values
        if scalar:
            return complex(values.ravel()[0])
        if values.shape != shape:
            values = np.broadcast_to(values, shape).copy()
        return values

    def __call__(self, a, c):
        return self.extend(a, c)


def lerch_star_twisted(s: complex) -> TwistedFn:
    """zeta_star(s, ., .) as a TwistedFn (admissible denominator 1)."""

    def core(a, c):
        return lerch_star_many(s, a, c)[0]

    return TwistedFn(core, 1, f"zeta*({s})")


def l_pm_pair_twisted(s: complex) -> tuple[TwistedFn, TwistedFn]:
    """(L^+, L^-)(s, ., .) as two TwistedFns that share engine passes.

    One engine pass returns both members.  The pair keeps the last pass
    as one immutable snapshot (inputs, values), replaced by a single
    assignment; a member whose core is called at arrays whose dtype,
    shape and bytes equal the snapshot's returns a copy of its stored
    values without calling the engine.  So both members evaluated at the
    same points one after the other cost one pass, with the values each
    would get alone.
    """
    snapshot = None

    def member(row: int, parity: Parity) -> TwistedFn:
        def core(a, c):
            nonlocal snapshot
            key = tuple((x.dtype.str, x.shape, x.tobytes()) for x in (a, c))
            snap = snapshot
            if snap is None or snap[0] != key:
                snap = (key, l_pm_many(s, None, a, c)[0])
                snapshot = snap
            return snap[1][row].copy()

        return TwistedFn(core, 1, f"L{parity.value}({s})")

    return member(0, Parity.PLUS), member(1, Parity.MINUS)


def l_pm_twisted(s: complex, parity: Parity) -> TwistedFn:
    """L^pm(s, ., .) as a TwistedFn (admissible denominator 1): the
    member named by ``parity`` of a pair from :func:`l_pm_pair_twisted`."""
    return l_pm_pair_twisted(s)[0 if parity is Parity.PLUS else 1]


# ---------------------------------------------------------------------------
# Hecke operators
# ---------------------------------------------------------------------------

def apply_hecke(kind: OperatorKind, m: int, F: TwistedFn) -> TwistedFn:
    """Apply one of the four Hecke families; the result has denominator m*d."""
    if kind not in _HECKE_KINDS:
        raise DomainError(f"not a Hecke family: {kind}")
    if m < 1:
        raise DomainError("Hecke index m must be >= 1")
    m = int(m)

    if kind is OperatorKind.T:
        def core(a, c, _m=m, _F=F):
            k = np.arange(_m).reshape((_m,) + (1,) * np.ndim(a))
            vals = _F.extend((a[None] + k) / _m, _m * c[None])
            return vals.sum(axis=0) / _m
    elif kind is OperatorKind.S:
        def core(a, c, _m=m, _F=F):
            k = np.arange(_m).reshape((_m,) + (1,) * np.ndim(a))
            phase = np.exp(2j * math.pi * k * a[None])
            vals = _F.extend(_m * a[None], (c[None] + k) / _m)
            return (phase * vals).sum(axis=0) / _m
    elif kind is OperatorKind.T_VEE:
        def core(a, c, _m=m, _F=F):
            k = np.arange(_m).reshape((_m,) + (1,) * np.ndim(a))
            phase = np.exp(2j * math.pi * ((1 - _m) * a[None] + k) / _m)
            vals = _F.extend((a[None] + k) / _m, 1.0 + _m * (c[None] - 1.0))
            return (phase * vals).sum(axis=0) / _m
    else:  # S_VEE
        def core(a, c, _m=m, _F=F):
            k = np.arange(_m).reshape((_m,) + (1,) * np.ndim(a))
            phase = np.exp(2j * math.pi * (_m - (k + 1)) * a[None])
            vals = _F.extend(1.0 + _m * (a[None] - 1.0),
                             (c[None] + _m - (k + 1)) / _m)
            return (phase * vals).sum(axis=0) / _m

    label = f"{kind.value}_{m}({F.label})"
    return TwistedFn(core, m * F.denominator, label)


# ---------------------------------------------------------------------------
# R-operator powers
# ---------------------------------------------------------------------------

def r_power(f: PointFn, power: int) -> PointFn:
    """R^power f for a point function f(a, c), where
    R f(a,c) = e^(-2 pi i a c) f(1-c, a); power 2 is the reflection
    involution J and power 0 the identity."""
    if power == 0:
        return f
    if power == 1:
        return lambda a, c: np.exp(-2j * math.pi * a * c) * f(1.0 - c, a)
    if power == 2:
        return lambda a, c: np.exp(-2j * math.pi * a) * f(1.0 - a, 1.0 - c)
    if power == 3:
        return lambda a, c: np.exp(-2j * math.pi * (a * c - c)) * f(c, 1.0 - a)
    raise DomainError("R power must be in 0..3")


def apply_R(F: TwistedFn, power: int = 1) -> TwistedFn:
    """Powers of R as TwistedFns; the denominator is unchanged."""
    if power == 0:
        return F
    return TwistedFn(r_power(F.extend, power), F.denominator,
                     f"R^{power}({F.label})")


# ---------------------------------------------------------------------------
# one-variable specializations
# ---------------------------------------------------------------------------

def kubert_1d(m: int | Sequence[int], f: Callable,
              x) -> complex | np.ndarray:
    """One-variable averaging operator (1/m) sum_{k<m} f((x+k)/m), x in (0,1).

    ``m`` is one index or a sequence of them.  For a sequence, f is called
    once, on the preimages of every m in the order given (for each m, k
    ascending), and row i of the result is the average for the i-th m,
    with the bits of the call with that m alone when f's values at a
    point do not depend on the other points of its call.
    """
    ms = [m] if np.ndim(m) == 0 else list(m)
    if not ms or not all(isinstance(mi, numbers.Integral) and mi >= 1
                         for mi in ms):
        raise DomainError(f"Kubert indices must be integers >= 1, got {m!r}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & (x_arr < 1.0)):
        raise DomainError("Kubert operator needs x in the open interval (0,1)")
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    ones = (1,) * x_arr.ndim
    vals = np.asarray(f(np.concatenate(
        [(x_arr[None] + np.arange(mi).reshape((mi,) + ones)) / mi
         for mi in ms])), dtype=np.complex128)
    ends = np.cumsum(ms)
    out = np.stack([vals[end - mi:end].sum(axis=0) / mi
                    for mi, end in zip(ms, ends)])
    if scalar:
        out = out[:, 0]
    if np.ndim(m) == 0:
        return complex(out[0]) if scalar else out[0]
    return out


# ---------------------------------------------------------------------------
# zeta-operator partial sums
# ---------------------------------------------------------------------------

def zeta_operator_partial(M: int, F: TwistedFn, a: float, c: float) -> complex:
    """Partial sum sum_{m=1..M} (T_m F)(a, c).

    All (m, k) shifts are evaluated through a single extension call; for
    F = zeta(s, ., .) with Re(s) > 1 the sum converges to
    zeta_Riemann(s) * F(a, c) as M grows.
    """
    if M < 1:
        raise DomainError("M must be >= 1")
    ms = []
    ks = []
    for m in range(1, M + 1):
        ms.extend([m] * m)
        ks.extend(range(m))
    ms = np.array(ms, dtype=float)
    ks = np.array(ks, dtype=float)
    vals = F.extend((a + ks) / ms, ms * c)
    return complex(np.sum(vals / ms))
