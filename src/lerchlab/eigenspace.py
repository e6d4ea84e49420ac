"""The two-dimensional Lerch eigenspace, its Fourier slices, and the
eigenfunction characterization procedure.

For fixed s the space is spanned by the four twisted-periodic functions

    L_s^+, L_s^-,  R_s^pm(a,c) = e^(-2 pi i a c) L^pm(1-s, 1-c, a),

held as two pair-valued functions, (L^+, L^-) and (R^+, R^-), each
evaluated in one engine pass.  L_s^pm and R_s^pm are proportional through
the functional equation L_s^pm = w_pm gamma^pm(1-s) R_s^pm, so the span
is two-dimensional.  At integer s exactly one of the four vanishes
identically (a zero or pole of the Tate factor) and the other family
carries the space.

The characterization procedure recovers, from a candidate simultaneous
Hecke eigenfunction F, the two constants (A, B) such that F matches
(A+B)/2 L^+ + (A-B)/2 L^- (or the reflected-basis analogue): Fourier
coefficients of F on axis slices are normalized by |n + c|^s, tested for
piecewise constancy on the two sides of n + c = 0, and the reconstruction
is compared against F pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IdentityViolationError
from .lerch_core import lpm_is_identically_zero, r_pm_is_identically_zero
from .quadrature import line_nodes
from .special_functions import Parity, root_number, tate_gamma
from .twisted_space import TwistedFn, apply_R, l_pm_pair_twisted

__all__ = [
    "EigenBasis",
    "FourierSlice",
    "CharacterizationResult",
    "build_eigenspace",
    "j_split",
    "fourier_slice",
    "characterize",
]

# a characterized F must be piecewise constant to this relative deviation
_VIOLATION_TOL = 1e-4
# slices grade their panels this deep into each lattice line
_GRADE_DEPTH = 48


@dataclass
class EigenBasis:
    """Spanning set of the eigenspace at s as two pairs: ``pairs["L"]``
    is (L+, L-) and ``pairs["R"]`` is (R+, R-), each one TwistedFn with
    the members on a leading axis of 2 (see
    :func:`~lerchlab.twisted_space.l_pm_pair_twisted`).  ``active`` names
    the working pair and ``degenerate`` the members ("L+" .. "R-") that
    vanish identically."""

    s: complex
    pairs: dict[str, TwistedFn]
    active: str
    degenerate: tuple[str, ...] = ()


def build_eigenspace(s: complex) -> EigenBasis:
    """Spanning evaluators at s, with the active pair selected by regime.

    Re(s) > 0 activates the L-pair and Re(s) <= 0 the R-pair; in the
    overlap 0 < Re(s) < 1 both are valid (L is preferred) and the
    functional-equation dependency can be cross-checked with
    :func:`dependency_residual`.  Identically-vanishing members at integer
    s are flagged, not fatal.
    """
    s = complex(s)
    parities = (Parity.PLUS, Parity.MINUS)
    pairs = {"L": l_pm_pair_twisted(s),
             "R": apply_R(l_pm_pair_twisted(1 - s), 1)}
    degenerate = ([f"L{p.value}" for p in parities
                   if lpm_is_identically_zero(s, p)]
                  + [f"R{p.value}" for p in parities
                     if r_pm_is_identically_zero(s, p)])
    return EigenBasis(s, pairs, "L" if s.real > 0 else "R", tuple(degenerate))


def dependency_residual(basis: EigenBasis, points) -> float:
    """Max residual of L_s^pm = w_pm gamma^pm(1-s) R_s^pm at the points.

    Skips a parity when the Tate factor is at a pole (the degenerate
    member is then identically zero instead).
    """
    pts = np.asarray(points, dtype=float)
    a, c = pts[:, 0], pts[:, 1]
    lhs = basis.pairs["L"].extend(a, c)
    rhs = basis.pairs["R"].extend(a, c)
    worst = 0.0
    for row, parity in enumerate((Parity.PLUS, Parity.MINUS)):
        g = tate_gamma(1.0 - basis.s, parity)
        if not g.is_pole:
            coeff = root_number(parity) * g.value
            worst = max(worst,
                        float(np.max(np.abs(lhs[row] - coeff * rhs[row]))))
    return worst


def j_split(basis: EigenBasis) -> TwistedFn:
    """The J-eigenbasis (F+, F-) with J F^pm = +- F^pm, as one pair.

    The active pair is already J-diagonal; a degenerate active member is
    an error (the caller should use the other family's basis).
    """
    for name in (basis.active + "+", basis.active + "-"):
        if name in basis.degenerate:
            raise DomainError(
                f"active basis member {name} vanishes identically at "
                f"s = {basis.s}; J-split is degenerate")
    return basis.pairs[basis.active]


# ---------------------------------------------------------------------------
# Fourier slices
# ---------------------------------------------------------------------------

@dataclass
class FourierSlice:
    """Coefficients of one period-1 line integral family, n = -N .. N.

    ``a_axis``: f_n(c0) = int_0^1 F(a, c0) e^(-2 pi i n a) da.
    ``c_axis``: g_n(a0) = int_0^1 e^(2 pi i a0 c) F(a0, c) e^(-2 pi i n c) dc.
    ``sl[n]`` reads mode n and raises KeyError for |n| > N.
    """

    coefficients: np.ndarray

    def __getitem__(self, n: int) -> complex:
        N = len(self.coefficients) // 2
        if not -N <= n <= N:
            raise KeyError(n)
        return complex(self.coefficients[n + N])


def _slice_rule(denominator: int, N: int):
    """(nodes, weights, phases) shared by the slices of one function:
    the graded line rule and e^(-2 pi i n x) for n = -N .. N at its
    nodes."""
    x, w = line_nodes(denominator=denominator, max_mode=N,
                      grade_depth=_GRADE_DEPTH)
    ns = np.arange(-N, N + 1)
    return x, w, np.exp(-2j * math.pi * np.outer(ns, x))


def fourier_slice(F: TwistedFn, axis: str, fixed_coord: float,
                  N: int, *, _rule=None) -> FourierSlice:
    """Quadrature extraction of the slice coefficients n = -N .. N.

    Composite Gauss-Legendre with panels split at the function's declared
    discontinuity lattice and graded geometrically into the lattice
    lines, so integrable endpoint blow-ups (present outside the critical
    strip) integrate accurately; the sliver dropped at the grading cutoff
    biases every coefficient by the same O(cutoff^(1+alpha)) mass.
    ``_rule`` is internal to :func:`characterize`, which builds the rule
    for F's denominator and N once for all its slices; None builds it.
    """
    if axis not in ("a_axis", "c_axis"):
        raise DomainError("axis must be 'a_axis' or 'c_axis'")
    x, w, phases = (_rule if _rule is not None
                    else _slice_rule(F.denominator, N))
    if axis == "a_axis":
        vals = F.extend(x, fixed_coord)
    else:
        vals = (np.exp(2j * math.pi * fixed_coord * x)
                * F.extend(fixed_coord, x))
    coeffs = phases @ (w * vals)
    mags = np.abs(coeffs)
    if N >= 4:
        inner = float(np.max(mags[N - 2:N + 3]))          # |n| <= 2
        outer = float(np.max(np.r_[mags[:2], mags[-2:]]))  # |n| >= N-1
        growing = outer > 4.0 * inner and outer > 1.0
        # a divergent edge creates a giant mass shared by every mode
        absurd = float(np.min(mags)) > 1e6
        if growing or absurd:
            import warnings

            warnings.warn(
                f"slice coefficients fail to decay (|n|~{N}: {outer:.2e} vs "
                f"center {inner:.2e}); the slice is likely not integrable",
                RuntimeWarning, stacklevel=2)
    return FourierSlice(coeffs)


# ---------------------------------------------------------------------------
# characterization (constants recovery + reconstruction)
# ---------------------------------------------------------------------------

@dataclass
class CharacterizationResult:
    """Recovered constants and reconstruction quality.

    ``residual`` is the max pointwise |F - H| over the test points, for
    H = (A+B)/2 L^+ + (A-B)/2 L^- (``a_path``) or the reflected-basis
    analogue (``c_path``).  ``constancy_deviation`` is the worst weighted
    departure of the normalized coefficients from their fitted constant,
    and ``hecke_residual`` the worst violation of the dilation identity
    on the sampled coefficient pairs.
    """

    A: complex
    B: complex
    residual: float
    constancy_deviation: float = 0.0
    hecke_residual: float = 0.0


def characterize(F: TwistedFn, s: complex, path: str = "a_path",
                 N: int = 32) -> CharacterizationResult:
    """Recover (A, B) from a candidate simultaneous Hecke eigenfunction.

    ``a_path`` (needs Re(s) > 0) works with a-slices f_n(c): twisted
    periodicity gives f_n(c + l) = f_{n+l}(c) and the eigenfunction
    property gives f_{mn}(m c) = m^(-s) f_n(c), so the normalized values
    |n + c|^s f_n(c) must be one constant A on n + c > 0 and another B on
    n + c < 0.  ``c_path`` (needs Re(s) < 1) is the dual with
    g_n(a) |a - n|^(1-s) and the reflected reconstruction.  Departure from
    piecewise constancy beyond ``_VIOLATION_TOL`` (relative) raises
    :class:`IdentityViolationError`; this is how non-members (e.g. the
    untwisted c^(-s)) are rejected.  The reconstruction is compared at 40
    test points drawn from a fixed seed.  The dilation checks read
    coefficients up to |n| = 6, so N must be at least 6.
    """
    s = complex(s)
    if path not in ("a_path", "c_path"):
        raise DomainError("path must be 'a_path' or 'c_path'")
    if N < 6:
        raise DomainError(f"N = {N} skips the dilation checks, which read "
                          "coefficients up to |n| = 6; it must be at least 6")
    a_path = path == "a_path"
    if a_path and s.real <= 0:
        raise DomainError("a_path requires Re(s) > 0")
    if not a_path and s.real >= 1:
        raise DomainError("c_path requires Re(s) < 1")

    base = [0.17, 0.43, 0.68]
    shifts = [-1, 0, 1]
    hecke_pairs = [(2, base[0]), (3, base[1])]
    levels = [b + sh for b in base for sh in shifts]
    levels += [m * b for m, b in hecke_pairs]
    # a_path: a-slices at t = n + x with exponent s and the L-basis;
    # c_path: c-slices at t = x - n with exponent 1 - s and the R-basis
    expo = s if a_path else 1.0 - s
    rule = _slice_rule(F.denominator, N)
    slices = [fourier_slice(F, "a_axis" if a_path else "c_axis", lv, N,
                            _rule=rule)
              for lv in levels]
    # (normalized value, weight) on the A-side t > 0 and the B-side t < 0,
    # level by level and n ascending within a level: the order in which
    # the weighted sums below round
    sides = ([], [])
    for x, sl in zip(levels, slices):
        for n, v in zip(range(-N, N + 1), sl.coefficients.tolist()):
            t = n + x if a_path else x - n
            if abs(t) >= 0.05:
                sides[t < 0].append((v * np.exp(expo * math.log(abs(t))),
                                     abs(t) ** (-expo.real)))
    fits = []
    for side in sides:
        vals, wts = (np.array(col) for col in zip(*side))
        fits.append(complex(np.sum(wts * vals) / np.sum(wts)))
    A, B = fits
    scale = max(abs(A), abs(B), 1e-30)
    dev = max(0.0, *(abs(v - fit) * min(1.0, w) / scale
                     for fit, side in zip(fits, sides) for v, w in side))
    hecke_res = 0.0
    for m, b in hecke_pairs:
        base_sl = slices[levels.index(b)]
        if a_path:
            # dilation identity f_{mn}(m c) = m^(-s) f_n(c) on sampled pairs
            eig = np.exp(-s * math.log(m))
            dil_sl = slices[levels.index(m * b)]
            for n in range(-2, 3):
                hecke_res = max(hecke_res, abs(dil_sl[m * n] - eig * base_sl[n]))
        else:
            # dual dilation identity g_{mn-k}(a) = m^(s-1) g_n((a+k)/m)
            eig = np.exp((s - 1.0) * math.log(m))
            for k in range(m):
                sl = fourier_slice(F, "c_axis", (b + k) / m, N, _rule=rule)
                for n in range(-1, 2):
                    hecke_res = max(hecke_res,
                                    abs(base_sl[m * n - k] - eig * sl[n]))
    if dev > _VIOLATION_TOL or hecke_res > _VIOLATION_TOL:
        raise IdentityViolationError(
            "normalized Fourier coefficients are not piecewise constant; "
            "F is not in the eigenspace at this s",
            deviation=max(dev, hecke_res))
    pair = apply_R(l_pm_pair_twisted(expo), 0 if a_path else 1)
    ca, cb = 0.5 * (A + B), 0.5 * (A - B)

    def h_core(aa, cc):
        plus, minus = pair.extend(aa, cc)
        return ca * plus + cb * minus

    # H applies the twist phase once, to the sum; adding two extensions
    # would round differently
    H = TwistedFn(h_core, F.denominator)
    rng = np.random.default_rng(7)
    pa = rng.uniform(0.06, 0.94, 40)
    pc = rng.uniform(0.06, 0.94, 40)
    pc[-5:] += 1.0  # exercise the extension as well
    residual = float(np.max(np.abs(F.extend(pa, pc) - H.extend(pa, pc))))
    return CharacterizationResult(A, B, residual, dev, hecke_res)
