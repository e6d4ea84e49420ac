"""Evaluation of the Lerch zeta function family across the s-plane.

The one-sided series

    zeta(s, a, c) = sum_{n>=0} e^(2 pi i n a) (n + c)^(-s)

converges absolutely for Re(s) > 1 and conditionally (non-integer a) for
Re(s) > 0; everywhere else values are taken in the sense of analytic
continuation.  Evaluation strategies, per point:

* integer ``a``: the sum is a Hurwitz zeta value; Euler-Maclaurin, valid
  for every s != 1.
* ``a`` within ``_SMALL_A_CUTOFF`` of an integer: expansion of the series
  around the degenerate point in powers of the offset, with Hurwitz zeta
  coefficients (a Hurwitz splitting of the slowly oscillating sum).
* oscillatory ``a``: Levin u-acceleration of the partial sums, after a
  decimation step that splits the series into m interleaved subseries so
  the effective multiplier e^(2 pi i m a) sits near the optimally
  conditioned point -1.
* Re(s) <= ``_SIGMA_LO`` with non-integer a: reflection through the
  functional equation to 1 - s, where the series strategies apply.
* Re(s) >= ``_SIGMA_HI`` when the absolute tail bound is cheap at the
  point summed: plain truncated summation (the only strategy whose error
  estimate is the absolute tail bound rather than a stabilization or
  remainder estimate).  Only the scalar entries ``lerch_star`` and
  ``lerch_zeta`` take it.

The extended function zeta_star (two-sided support n + c > 0) and the
symmetrized pair L^+/L^- are linear combinations of one-sided values; the
completed functions multiply in the archimedean gamma factor.  Bases
(n + c) are positive reals throughout, so (n + c)^(-s) carries no branch
ambiguity.  One private engine, ``_engine``, evaluates zeta_star (kind
None) and L^+/L^- (kind Parity.PLUS / Parity.MINUS) on arrays.
``lerch_star``, ``lerch_star_many``, ``L_pm`` and ``l_pm_many`` wrap it;
``lerch_zeta`` at c > 1 and Re(s) > _SIGMA_LO sums the one-sided series at
c itself.

The one setting is the target tolerance: every public evaluator takes
``tol`` (``TARGET_TOL`` by default, 1e-13 for ``hurwitz_many`` and
``riemann_zeta``) and raises :class:`DomainError` unless it is finite
and positive.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .acceleration import levin_sum
from .errors import (
    DegenerateParameterError,
    DomainError,
)
from .special_functions import Parity, complex_gamma, gamma_R, root_number, tate_gamma

__all__ = [
    "Strategy",
    "LerchParams",
    "EvalResult",
    "TARGET_TOL",
    "lerch_star",
    "lerch_star_many",
    "L_pm",
    "l_pm_many",
    "completed_L",
    "hurwitz",
    "hurwitz_many",
    "riemann_zeta",
]

_INT_TOL = 1e-14
_EULER_GAMMA = 0.5772156649015328606
TWO_PI = 2.0 * math.pi

TARGET_TOL = 1e-12
# Re(s) at or below _SIGMA_LO reflects; direct summation needs Re(s) >=
# _SIGMA_HI and its tail bound within _DIRECT_CHEAP_TERMS terms at the
# point summed, since near _SIGMA_HI that bound needs astronomically many
# terms at tight tolerances
_SIGMA_HI = 1.5
_SIGMA_LO = -0.5
_SMALL_A_CUTOFF = 0.02
_DIRECT_CHEAP_TERMS = 50_000
_LEVIN_MAX_ORDER = 90


def _require_finite(**args) -> None:
    """Raise DomainError naming the first argument with a non-finite entry."""
    for name, x in args.items():
        if not np.isfinite(x).all():
            raise DomainError(f"{name} must be finite")


def _require_tol(tol) -> None:
    """Raise DomainError unless tol is finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, not {tol!r}")


class Strategy(enum.Enum):
    DIRECT_SERIES = "direct_series"
    ACCELERATED = "accelerated"
    REFLECTED = "reflected"


@dataclass(frozen=True)
class LerchParams:
    """The parameter triple (s, a, c) with grid-position classification.

    All three must be finite; :class:`DomainError` otherwise.
    """

    s: complex
    a: float
    c: float

    def __post_init__(self):
        for name in ("s", "a", "c"):
            if not cmath.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    @property
    def a_integral(self) -> bool:
        return abs(self.a - round(self.a)) <= _INT_TOL


@dataclass(frozen=True)
class EvalResult:
    """A value together with an a-posteriori error estimate.

    ``direct_series`` results carry the absolute tail bound, ``accelerated``
    results the stabilization estimate of successive transforms (or the
    Euler-Maclaurin remainder bound on the Hurwitz path), and ``reflected``
    results propagate the source estimates through the gamma factors.
    """

    value: complex
    error_estimate: float
    strategy: Strategy


# ---------------------------------------------------------------------------
# factors on distinct values
# ---------------------------------------------------------------------------

# Narrowest array whose elementwise factors are computed once per distinct
# value; np.unique costs about 21 us at widths 1-50, more than it saves
# there.  Measured on one Levin batch and one Hurwitz call with every a
# repeated 4 times and every c twice: the step cost 2-5 % at width 32,
# broke even near 48 and saved 8-9 % at 64 (13-25 % at 128-256).  On
# all-distinct inputs it costs 4-5 % at 64.
_DISTINCT_MIN = 64


def _distinct(x: np.ndarray):
    """(values, inverse index) with values[inverse] == x, for a 1-d x.

    From _DISTINCT_MIN elements up the values are the distinct ones;
    below it, and when every value is distinct, x itself comes back with
    inverse None.
    """
    if x.size < _DISTINCT_MIN:
        return x, None
    values, inverse = np.unique(x, return_inverse=True)
    if values.size == x.size:
        return x, None
    return values, inverse


def _gather(values: np.ndarray, inverse) -> np.ndarray:
    """values taken at ``inverse`` along the last axis (None: values as is).

    np.take keeps the result C-contiguous, so a reduction over it adds in
    the same order as over the array computed point by point.
    """
    return values if inverse is None else np.take(values, inverse, axis=-1)


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin
# ---------------------------------------------------------------------------

# B_2 .. B_32
_BERNOULLI_EVEN = np.array([
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0, 854513.0 / 138.0, -236364091.0 / 2730.0,
    8553103.0 / 6.0, -23749461029.0 / 870.0, 8615841276005.0 / 14322.0,
    -7709321041217.0 / 510.0,
])


# Euler-Maclaurin corrections kept: B_2j / (2j)! for j = 1 .. _EM_TERMS,
# and the remainder's coefficient |B_(2J+2)| / (2J+2)!, as Python floats
# (numpy scalars would cost about 1 us an operation in the per-s loop)
_EM_TERMS = 14
_EM_WEIGHTS = [float(_BERNOULLI_EVEN[j - 1] / math.factorial(2 * j))
               for j in range(1, _EM_TERMS + 1)]
_EM_BCOEF = float(abs(_BERNOULLI_EVEN[_EM_TERMS]) / math.factorial(2 * _EM_TERMS + 2))


def _em_plan(s: complex, xmin: float, tol: float):
    """Scalars of Euler-Maclaurin for zeta_H(s, x), x >= xmin, in Python
    arithmetic: (N, remainder scale and power, rounding-floor power,
    correction coefficients, correction exponents).  N doubles until the
    remainder bound sits below ``tol``."""
    J = _EM_TERMS
    sigma = s.real
    rise = math.prod([abs(s + m) for m in range(2 * J + 1)])
    safety = max(1.0, abs(s + 2 * J + 1) / (sigma + 2 * J + 1))
    scale = rise * safety * _EM_BCOEF
    power = -(sigma + 2 * J + 1)
    N = int(max(10.0, 0.4 * (abs(s) + 2 * J), 2.0 - sigma))
    for _ in range(40):
        if scale * (N + xmin) ** power <= tol or N > 1_000_000:
            break
        N *= 2
    poch, coefs = s, []
    for j in range(1, J + 1):
        coefs.append(_EM_WEIGHTS[j - 1] * poch)
        poch = poch * (s + 2 * j - 1) * (s + 2 * j)
    exps = [-(s + 2 * j - 1) for j in range(1, J + 1)]
    return N, scale, power, max(0.0, -sigma), coefs, exps


def _hurwitz_em(s, x: np.ndarray, tol: float):
    """Vectorized zeta_H(s, x) for x > 0, s != 1, with a remainder bound.

    ``s`` is one exponent or a 1-d array of them; values and bounds have
    shape np.shape(s) + x.shape, one row per exponent.  Truncated sum
    over n < N plus integral, half-term and Bernoulli corrections, with
    N, the bound and the coefficients of each exponent from
    :func:`_em_plan`.  The array work of all exponents runs in one pass,
    elementwise as for each alone, so every row has the bits of its
    one-exponent call.  Every factor is computed once per distinct x;
    the head powers are gathered to the points before their sum, so it
    adds over the caller's width (np.sum(axis=0) adds pairwise at width
    1, row by row from 2).
    """
    s_list = [complex(sk) for sk in np.ravel(s)]
    if any(abs(sk - 1.0) <= _INT_TOL for sk in s_list):
        raise DegenerateParameterError("Hurwitz zeta has its pole at s = 1")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("Hurwitz zeta requires x > 0")
    xmin = float(np.min(x, initial=np.inf))   # an empty x keeps the first N
    Ns, scales, powers, floors, coefs, exps = zip(
        *[_em_plan(sk, xmin, tol) for sk in s_list])
    s_col = np.array(s_list)[:, None]

    x_u, inverse = _distinct(x)
    n = np.concatenate([np.arange(N) for N in Ns])[:, None]
    terms = _gather((n + x_u) ** np.repeat(-s_col, Ns, axis=0), inverse)
    head = np.empty((len(s_list),) + x.shape, dtype=np.complex128)
    lo = 0
    for k, N in enumerate(Ns):
        head[k] = np.sum(terms[lo:lo + N], axis=0)
        lo += N
    y = (np.array(Ns)[:, None] + x_u).astype(complex)
    tail = y ** (1.0 - s_col) / (s_col - 1.0) + 0.5 * y ** (-s_col)
    coefs, exps = np.array(coefs), np.array(exps)
    for j in range(_EM_TERMS):
        tail = tail + coefs[:, j, None] * y ** exps[:, j, None]
    values = head + _gather(tail, inverse)
    # row by row with float exponents, as a one-exponent call does: numpy
    # takes a float exponent 0.5, 2 or -1 by a route with other last bits
    abs_y = np.abs(y)
    bound = np.array([scale * row ** power
                      for scale, row, power in zip(scales, abs_y, powers)])
    # rounding floor keyed to the largest summand, which dominates the
    # value itself when sigma < 0
    largest = np.array([row ** floor for row, floor in zip(abs_y, floors)])
    rounding = 1e-16 * np.sqrt(np.array(Ns))[:, None]
    errors = _gather(bound, inverse) + rounding * np.maximum(
        np.abs(values), _gather(largest, inverse))
    if np.ndim(s) == 0:
        return values[0], errors[0]
    return values, errors


def hurwitz_many(s: complex, x, tol: float = 1e-13):
    """Array version of :func:`hurwitz`; returns (values, error bounds)."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _require_finite(s=s, x=x_arr)
    _require_tol(tol)
    vals, errs = _hurwitz_em(s, x_arr.ravel(), tol)
    return vals.reshape(x_arr.shape), errs.reshape(x_arr.shape)


def hurwitz(s: complex, x: float, tol: float = TARGET_TOL) -> EvalResult:
    """Hurwitz zeta zeta_H(s, x) = zeta(s, 0, x) for x > 0, s != 1."""
    _require_finite(s=s, x=x)
    _require_tol(tol)
    vals, errs = _hurwitz_em(s, np.array([float(x)]), tol)
    return EvalResult(complex(vals[0]), float(errs[0]), Strategy.ACCELERATED)


def riemann_zeta(s: complex, tol: float = 1e-13) -> complex:
    """Riemann zeta via the Hurwitz path (s != 1)."""
    _require_finite(s=s)
    _require_tol(tol)
    vals, _ = _hurwitz_em(s, np.array([1.0]), tol)
    return complex(vals[0])


# ---------------------------------------------------------------------------
# digamma (real arguments), needed by the near-integer-a expansion
# ---------------------------------------------------------------------------

def _digamma(x: float) -> float:
    if x <= 0.0:
        raise DomainError("digamma implemented for x > 0 only")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for j in range(7, 0, -1):
        series += _BERNOULLI_EVEN[j - 1] / (2 * j) * inv2 ** j
    return acc + math.log(x) - 0.5 / x - series


# ---------------------------------------------------------------------------
# near-integer a: expansion in the offset with Hurwitz-zeta coefficients
# ---------------------------------------------------------------------------

def _phi_small_a(s: complex, a_off: np.ndarray, c: np.ndarray, tol: float):
    """sum_{n>=0} e^(2 pi i n a) (n+c)^(-s) for a = nearest integer + a_off.

    Expansion around the degenerate point in powers of w = 2 pi i a_off:

        Phi = e^(-w c) [ Gamma(1-s) (-w)^(s-1)
                         + sum_{k>=0} zeta_H(s-k, c) w^k / k! ]

    for non-integer s; at a positive integer s = m the k = m-1 term and
    the gamma term merge into the finite limit
    w^(m-1)/(m-1)! (psi(m) - psi(c) - log(-w)).  Effective convergence
    rate is |a_off| per order, so this path is reserved for small offsets.
    One multi-exponent :func:`_hurwitz_em` call gives zeta_H(s-k, c) for
    every order k up to kmax, each with its own head length and bound;
    the sum then stops by the rule below, and the rows past its stopping
    order go unused.
    """
    s = complex(s)
    w = (2j * math.pi) * a_off
    worst = float(np.max(np.abs(a_off)))
    kmax = min(60, max(10, int(math.log(max(tol, 1e-17)) /
                               math.log(max(worst, 1e-17))) + 6))
    m = round(s.real)
    s_is_pos_int = abs(s - m) <= _INT_TOL and m >= 1

    values = np.zeros(a_off.shape, dtype=np.complex128)
    errors = np.zeros(a_off.shape, dtype=float)
    log_neg_w = np.log(-w)
    if s_is_pos_int:
        psi_m = sum(1.0 / j for j in range(1, m)) - _EULER_GAMMA
        c_u, inverse = _distinct(c)
        psi_c = _gather(np.array([_digamma(ci) for ci in c_u]), inverse)
        lead = w ** (m - 1) / math.factorial(m - 1) * (psi_m - psi_c - log_neg_w)
    else:
        g = complex_gamma(1.0 - s).require_finite("Gamma(1-s)")
        lead = g * np.exp((s - 1.0) * log_neg_w)
    values += lead
    errors += 4e-16 * np.abs(lead)

    # the sum stops before the second of two small terms in a row: at
    # integer s and c = 1/2 or 1, zeta_H(s-k, c) vanishes at s-k = -2, -4,
    # ..., so one small term does not end the series.  The larger of the
    # last term summed and the first one left out bounds the omitted tail
    # crudely; the last term alone would be 0 after a vanishing one.
    pole = m - 1 if s_is_pos_int else None
    orders = [k for k in range(kmax + 1) if k != pole]
    zh, zh_err = _hurwitz_em(np.array([s - k for k in orders]), c, tol)
    rows = dict(zip(orders, zip(zh, zh_err)))
    wk = np.ones_like(w)  # w^k / k!
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


# ---------------------------------------------------------------------------
# oscillatory a: decimation + Levin acceleration
# ---------------------------------------------------------------------------

# Widest Levin batch, in series.  Measured on 10^4-point grids: with no
# cap they ran about 15 % slower, at 2048 about 10 % slower, and at 8192
# the peak RSS grew by 5 MB; the first Levin table here is 4 MiB
# (32 rows x 2 x 4096 x 16 B).
_LEVIN_BATCH = 4096


def _phi_levin(s: complex, a: np.ndarray, c: np.ndarray,
               tol: float | np.ndarray, max_order: int = _LEVIN_MAX_ORDER):
    """Levin-accelerated one-sided sum for well-separated a.

    The first 8 terms are summed directly; Levin takes the rest.
    ``tol`` is a scalar or one tolerance per point.  The phase is computed
    once per distinct a and the power once per distinct c of the batch.
    """
    a_u, a_inverse = _distinct(a)
    c_u, c_inverse = _distinct(c)

    def terms(idx):
        n = idx[:, None]
        # a named phase and an unnamed power: from 256 KiB up numpy reuses
        # the power's temporary for the product and swaps the operands,
        # and the product's last bits depend on that order
        phase = _gather(np.exp(2j * math.pi * np.mod(n * a_u, 1.0)), a_inverse)
        return phase * _gather((n + c_u) ** (-s), c_inverse)

    head = 8
    head_sum = np.sum(terms(np.arange(head)), axis=0)
    res = levin_sum(lambda idx: terms(head + idx), a.shape, tol,
                    max_order=max_order)
    return head_sum + res.value, res.error + 1e-16 * np.abs(head_sum)


def _phi_oscillatory(s: complex, a: np.ndarray, c: np.ndarray, tol: float):
    """Decimate into m interleaved subseries, then accelerate.

    zeta(s, a, c) = m^(-s) sum_{r<m} e^(2 pi i r a) zeta(s, m a, (r+c)/m),
    with m chosen per point so that frac(m a) sits near 1/2; the identity
    is the n = m j + r reindexing of the defining series and transfers to
    the continuation.  The subseries of every m go through Levin together,
    each with its own tolerance tol/sqrt(m), in consecutive batches of at
    most _LEVIN_BATCH series.
    """
    a_off = a - np.round(a)
    dist = np.abs(a_off)
    m_pt = np.maximum(1, np.round(0.5 / np.maximum(dist, 1e-12)).astype(int))
    m_pt[dist >= 0.35] = 1

    groups = [(m, np.nonzero(m_pt == m)[0]) for m in np.unique(m_pt)]
    # group m holds m x len(sel) subseries, row r at inner c = (r + c)/m
    inner_a = np.concatenate([np.broadcast_to(m * a[sel], (m, sel.size)).ravel()
                              for m, sel in groups])
    inner_c = np.concatenate([((np.arange(m)[:, None] + c[sel]) / m).ravel()
                              for m, sel in groups])
    inner_tol = np.concatenate([np.full(m * sel.size, tol / math.sqrt(m))
                                for m, sel in groups])
    sub_v = np.empty(inner_a.shape, dtype=np.complex128)
    sub_e = np.empty(inner_a.shape, dtype=float)
    for lo in range(0, inner_a.size, _LEVIN_BATCH):
        part = slice(lo, lo + _LEVIN_BATCH)
        sub_v[part], sub_e[part] = _phi_levin(s, inner_a[part], inner_c[part],
                                              inner_tol[part])

    values = np.zeros(a.shape, dtype=np.complex128)
    errors = np.zeros(a.shape, dtype=float)
    start = 0
    for m, sel in groups:
        stop = start + m * sel.size
        v = sub_v[start:stop].reshape(m, sel.size)
        e = sub_e[start:stop].reshape(m, sel.size)
        start = stop
        if m == 1:
            values[sel] = v[0]
            errors[sel] = e[0]
            continue
        r = np.arange(m)[:, None]
        coeff = np.exp(2j * math.pi * np.mod(r * a[sel][None, :], 1.0))
        m_pow = np.exp(-complex(s) * math.log(m))
        values[sel] = m_pow * np.sum(coeff * v, axis=0)
        errors[sel] = abs(m_pow) * (np.sum(e, axis=0)
                                    + 1e-16 * np.sum(np.abs(v), axis=0))
    return values, errors


# ---------------------------------------------------------------------------
# one-sided series: per-point path dispatch (requires Re(s) > _SIGMA_LO)
# ---------------------------------------------------------------------------

def _phi_dispatch(s: complex, a: np.ndarray, c: np.ndarray, tol: float):
    """Analytic continuation of sum_{n>=0} e^(2 pi i n a)(n+c)^(-s), c > 0.

    Chooses the integer-a / small-offset / oscillatory path per point.
    Callers reflect first for Re(s) <= _SIGMA_LO; this routine itself is
    meaningful whenever the Levin resummation stabilizes (in practice down
    to moderately negative Re(s)).
    """
    if np.any(c <= 0.0):
        raise DomainError("one-sided series requires c > 0")
    a_off = a - np.round(a)
    dist = np.abs(a_off)
    is_int = dist <= _INT_TOL
    is_small = (~is_int) & (dist < _SMALL_A_CUTOFF)
    is_osc = ~(is_int | is_small)

    values = np.zeros(a.shape, dtype=np.complex128)
    errors = np.zeros(a.shape, dtype=float)
    if np.any(is_int):
        v, e = _hurwitz_em(s, c[is_int], tol)
        values[is_int], errors[is_int] = v, e
    if np.any(is_small):
        v, e = _phi_small_a(s, a_off[is_small], c[is_small], tol)
        values[is_small], errors[is_small] = v, e
    if np.any(is_osc):
        v, e = _phi_oscillatory(s, a[is_osc], c[is_osc], tol)
        values[is_osc], errors[is_osc] = v, e
    return values, errors


# ---------------------------------------------------------------------------
# zeta_star and the symmetrized pair on the fundamental cell
# ---------------------------------------------------------------------------

def _reduce_to_cell(a: np.ndarray, c: np.ndarray):
    """Map (a, c) to a in [0,1), c in (0,1], collecting the twist phase.

    zeta_star(s, a, c) = phase * zeta_star(s, a_red, c_red) with
    phase = e^(-2 pi i k a) for the c-shift by k; a-shifts are free.
    """
    a_red = np.mod(a, 1.0)
    k = np.ceil(c).astype(int) - 1
    c_red = c - k
    phase = np.exp(-2j * math.pi * np.mod(k * a_red, 1.0))
    return a_red, c_red, phase


def _lpm_series_cell(s: complex, a: np.ndarray, c: np.ndarray, tol: float):
    """L^+ and L^- on the cell via the two one-sided halves.

    L^pm(s,a,c) = zeta(s,a,c) +- e^(-2 pi i a) zeta(s,1-a,1-c); both
    halves are returned so L^+ + L^- = 2 zeta_star holds by construction.
    """
    z, e = _phi_dispatch(s, np.concatenate([a, 1.0 - a]),
                         np.concatenate([c, 1.0 - c]), tol)
    za, zb = z[:a.size], z[a.size:]
    ea, eb = e[:a.size], e[a.size:]
    cross = np.exp(-2j * math.pi * a) * zb
    err = ea + eb + 1e-16 * (np.abs(za) + np.abs(zb))
    return za + cross, za - cross, err


def _lpm_reflected_cell(s: complex, a: np.ndarray, c: np.ndarray, tol: float):
    """L^+ and L^- on the cell through the functional equation.

    L^pm(s,a,c) = w_pm gamma^pm(1-s) e^(-2 pi i a c) L^pm(1-s, 1-c, a),
    with the right-hand pair expanded in one-sided sums at 1-s.
    """
    sp = 1.0 - complex(s)
    lp_in, lm_in, err_in = _lpm_series_cell(sp, 1.0 - c, a, tol)
    gp = tate_gamma(sp, Parity.PLUS)
    gm = tate_gamma(sp, Parity.MINUS)
    if gp.is_pole or gm.is_pole:
        raise DegenerateParameterError(
            "gamma factor at a pole; switch to the alternate basis")
    pre = np.exp(-2j * math.pi * a * c)
    lp = gp.value * pre * lp_in
    lm = root_number(Parity.MINUS) * gm.value * pre * lm_in
    gmax = max(abs(gp.value), abs(gm.value))
    err = gmax * err_in + 1e-15 * (np.abs(lp) + np.abs(lm))
    return lp, lm, err


def _engine(parity: Parity | None, s: complex, a: np.ndarray, c: np.ndarray,
            tol: float):
    """(values, errors, strategy) on arbitrary real (a, c).

    ``parity`` None gives zeta_star, Parity.PLUS or Parity.MINUS the
    matching member of the L-pair, which needs non-integer a and c.
    Above _SIGMA_LO zeta_star is the one-sided series on the cell and the
    L-pair its two halves; at or below it the L-pair is reflected, and
    zeta_star is (L^+ + L^-)/2 there except at integer a, which keeps the
    Hurwitz path (valid for all s != 1).
    """
    s = complex(s)
    a_red, c_red, phase = _reduce_to_cell(a, c)
    is_int_a = np.abs(a_red - np.round(a_red)) <= _INT_TOL
    reflect = s.real <= _SIGMA_LO
    strategy = Strategy.REFLECTED if reflect else Strategy.ACCELERATED
    if parity is not None:
        if np.any(is_int_a) or np.any(np.abs(c_red - np.round(c_red)) <= _INT_TOL):
            raise DegenerateParameterError(
                "L^+/L^- need non-integer a and c (two-sided series degenerates)")
        cell = _lpm_reflected_cell if reflect else _lpm_series_cell
        lp, lm, errors = cell(s, a_red, c_red, tol)
        values = lp if parity is Parity.PLUS else lm
    elif not reflect:
        values, errors = _phi_dispatch(s, a_red, c_red, tol)
    else:
        values = np.zeros(a_red.shape, dtype=np.complex128)
        errors = np.zeros(a_red.shape, dtype=float)
        if np.any(is_int_a):
            v, e = _hurwitz_em(s, c_red[is_int_a], tol)
            values[is_int_a], errors[is_int_a] = v, e
        rest = ~is_int_a
        if np.any(rest):
            lp, lm, err = _lpm_reflected_cell(s, a_red[rest], c_red[rest], tol)
            values[rest] = 0.5 * (lp + lm)
            errors[rest] = err
        else:
            strategy = Strategy.ACCELERATED
    return phase * values, errors, strategy


def _at_point(parity: Parity | None, p: LerchParams, tol: float) -> EvalResult:
    """The engine at one point."""
    values, errors, strategy = _engine(
        parity, p.s, np.array([p.a], dtype=float), np.array([p.c], dtype=float),
        tol)
    return EvalResult(complex(values[0]), float(errors[0]), strategy)


def _on_arrays(parity: Parity | None, s: complex, a, c, tol: float):
    """The engine over broadcast arrays; returns (values, errors)."""
    a_arr, c_arr = np.broadcast_arrays(np.asarray(a, dtype=float),
                                       np.asarray(c, dtype=float))
    _require_finite(s=s, a=a_arr, c=c_arr)
    _require_tol(tol)
    shape = a_arr.shape
    values, errors, _ = _engine(parity, s, a_arr.ravel().copy(),
                                c_arr.ravel().copy(), tol)
    return values.reshape(shape), errors.reshape(shape)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _zeta_direct(p: LerchParams, tol: float) -> EvalResult:
    """Truncated direct summation with the absolute integral tail bound.

    Reached only through :func:`_direct_is_cheap`, which guarantees
    Re(s) > 1, c > 0 and a term count within ``_DIRECT_CHEAP_TERMS``.
    """
    s = complex(p.s)
    sigma = s.real
    # sum_{n>=N} (n+c)^(-sigma) <= (N-1+c)^(1-sigma)/(sigma-1)
    needed = ((sigma - 1.0) * tol) ** (-1.0 / (sigma - 1.0)) + 1.0 - p.c
    N = int(max(8, math.ceil(needed)))
    total = 0.0 + 0.0j
    chunk = 500_000
    for start in range(0, N, chunk):
        n = np.arange(start, min(start + chunk, N), dtype=float)
        phases = np.exp(2j * math.pi * np.mod(n * p.a, 1.0))
        total += np.sum(phases * (n + p.c) ** (-s))
    bound = (N - 1.0 + p.c) ** (1.0 - sigma) / (sigma - 1.0)
    return EvalResult(complex(total), float(bound + 1e-16 * abs(total) * math.sqrt(N)),
                      Strategy.DIRECT_SERIES)


def _direct_is_cheap(p: LerchParams, tol: float) -> bool:
    """Whether plain summation of the one-sided series at p, the point
    summed, is the dispatch choice: non-integer a, Re(s) >= _SIGMA_HI, and
    a tail bound within reach."""
    sigma = complex(p.s).real
    if p.a_integral or sigma < _SIGMA_HI or sigma <= 1.0:
        return False
    needed = ((sigma - 1.0) * tol) ** (-1.0 / (sigma - 1.0)) + 1.0 - p.c
    return needed <= _DIRECT_CHEAP_TERMS


def lerch_star(p: LerchParams, tol: float = TARGET_TOL) -> EvalResult:
    """The extended function zeta_star(s, a, c) = sum_{n+c>0} e^(2 pi i n a)|n+c|^(-s).

    Dispatcher entry point: reduces (a, c) to the fundamental cell using
    twisted-periodicity and picks the regime strategy.  Agrees with the
    plain Lerch zeta function for 0 < c < 1.
    """
    _require_tol(tol)
    s = complex(p.s)
    if p.a_integral and abs(s - 1.0) <= _INT_TOL:
        raise DegenerateParameterError("simple pole at s = 1 on integer lines")
    # the gate looks at the cell point, in scalar arithmetic that gives
    # _reduce_to_cell's bits; the engine reduces the point itself
    k = math.ceil(p.c) - 1
    cell = LerchParams(s, p.a % 1.0, float(p.c - k))
    if _direct_is_cheap(cell, tol):
        inner = _zeta_direct(cell, tol)
        _, _, phase = _reduce_to_cell(np.array([p.a], dtype=float),
                                      np.array([p.c], dtype=float))
        return EvalResult(complex(phase[0]) * inner.value, inner.error_estimate,
                          Strategy.DIRECT_SERIES)
    return _at_point(None, p, tol)


def lerch_star_many(s: complex, a, c, tol: float = TARGET_TOL):
    """Vectorized zeta_star over broadcast arrays; returns (values, errors).

    This is the engine entry used by the twisted-function layer; it skips
    the direct-summation gate and always uses the continuation strategies.
    """
    return _on_arrays(None, s, a, c, tol)


def lerch_zeta(p: LerchParams, tol: float = TARGET_TOL) -> EvalResult:
    """The one-sided function zeta(s, a, c) = sum_{n>=0} e^(2 pi i n a)(n+c)^(-s).

    Requires c > 0.  Coincides with zeta_star for 0 < c <= 1.  For larger
    c and Re(s) > _SIGMA_LO the series is summed at c itself.  At or below
    _SIGMA_LO zeta_star is reflected, and the finitely many n < 0 terms with
    n + c > 0 that the extended function picks up are subtracted off.
    """
    _require_tol(tol)
    if p.c <= 0.0:
        raise DomainError("lerch_zeta requires c > 0")
    K = math.ceil(p.c) - 1
    if K <= 0:
        return lerch_star(p, tol)
    s = complex(p.s)
    if s.real > _SIGMA_LO:
        if _direct_is_cheap(p, tol):
            return _zeta_direct(p, tol)
        v, e = _phi_dispatch(s, np.array([p.a]), np.array([p.c]), tol)
        return EvalResult(complex(v[0]), float(e[0]), Strategy.ACCELERATED)
    base = lerch_star(p, tol)
    n = -np.arange(1, K + 1)
    extra = np.sum(np.exp(2j * math.pi * n * p.a)
                   * np.abs(n + p.c) ** (-complex(p.s)))
    value = base.value - complex(extra)
    return EvalResult(value, base.error_estimate + 1e-15 * abs(extra),
                      base.strategy)


def L_pm(p: LerchParams, parity: Parity, tol: float = TARGET_TOL) -> EvalResult:
    """The symmetrized combination L^+/L^- at (s, a, c).

    L^+ = sum_{n in Z} e^(2 pi i n a)|n+c|^(-s) and L^- the sgn(n+c)-signed
    variant; both are assembled from the same pair of one-sided values, so
    the identity L^+ + L^- = 2 zeta_star holds by construction.
    """
    _require_tol(tol)
    return _at_point(parity, p, tol)


def l_pm_many(s: complex, parity: Parity, a, c, tol: float = TARGET_TOL):
    """Vectorized L^+/L^- over broadcast arrays; returns (values, errors)."""
    return _on_arrays(parity, s, a, c, tol)


def lpm_is_identically_zero(s: complex, parity: Parity) -> bool:
    """Whether L^pm(s, ., .) vanishes identically in (a, c).

    This happens exactly where the Tate factor gamma^pm(1-s) has a zero
    (the functional equation then forces the L-side to vanish): the
    non-positive integers of matching parity.
    """
    g = tate_gamma(1.0 - complex(s), parity)
    return (not g.is_pole) and g.value == 0


def r_pm_is_identically_zero(s: complex, parity: Parity) -> bool:
    """Whether R_s^pm = e^(-2 pi i a c) L^pm(1-s, 1-c, a) vanishes
    identically: the pole set of gamma^pm(1-s) (positive integers of
    matching parity)."""
    return tate_gamma(1.0 - complex(s), parity).is_pole


def completed_L(p: LerchParams, parity: Parity,
                tol: float = TARGET_TOL) -> EvalResult:
    """Completed function: pi^(-(s+eps)/2) Gamma((s+eps)/2) L^pm(s, a, c).

    The gamma prefactor is exactly gamma_R of the matching parity.  Under
    (s, a, c) -> (1-s, 1-c, a) it satisfies the clean functional equations
    with root numbers 1 and i.
    """
    _require_tol(tol)
    g = gamma_R(p.s, parity)
    if g.is_pole:
        raise DegenerateParameterError(
            "completed function undefined: gamma factor at a pole")
    inner = L_pm(p, parity, tol)
    value = g.value * inner.value
    err = abs(g.value) * inner.error_estimate + 1e-15 * abs(value)
    return EvalResult(value, err, inner.strategy)
