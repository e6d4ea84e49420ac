"""The two-dimensional Lerch eigenspace, its Fourier slices, and the
eigenfunction characterization procedure.

For fixed s the space is spanned by the four twisted-periodic functions

    L_s^+, L_s^-,  R_s^pm(a,c) = e^(-2 pi i a c) L^pm(1-s, 1-c, a),

of which each L/R pair is proportional through the functional equation
L_s^pm = w_pm gamma^pm(1-s) R_s^pm, so the span is two-dimensional.  At
integer s exactly one of the four vanishes identically (a zero or pole of
the Tate factor) and the other family carries the space.

The characterization procedure recovers, from a candidate simultaneous
Hecke eigenfunction F, the two constants (A, B) such that F matches
(A+B)/2 L^+ + (A-B)/2 L^- (or the reflected-basis analogue): Fourier
coefficients of F on axis slices are normalized by |n + c|^s, tested for
piecewise constancy on the two sides of n + c = 0, and the reconstruction
is compared against F pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IdentityViolationError
from .lerch_core import lpm_is_identically_zero, r_pm_is_identically_zero
from .quadrature import line_nodes
from .special_functions import Parity, root_number, tate_gamma
from .twisted_space import TwistedFn, apply_R, l_pm_twisted

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
    """Spanning set of the eigenspace at s with the active working pair."""

    s: complex
    L_plus: TwistedFn
    L_minus: TwistedFn
    R_plus: TwistedFn
    R_minus: TwistedFn
    active_pair: tuple[str, str]
    degenerate: tuple[str, ...] = ()

    def member(self, name: str) -> TwistedFn:
        return {
            "L+": self.L_plus, "L-": self.L_minus,
            "R+": self.R_plus, "R-": self.R_minus,
        }[name]

    def active(self) -> tuple[TwistedFn, TwistedFn]:
        return self.member(self.active_pair[0]), self.member(self.active_pair[1])


def build_eigenspace(s: complex) -> EigenBasis:
    """Spanning evaluators at s, with the active pair selected by regime.

    Re(s) > 0 activates (L+, L-) and Re(s) < 1 activates (R+, R-); in the
    overlap both are valid (L is preferred) and the functional-equation
    dependency can be cross-checked with :func:`dependency_residual`.
    Identically-vanishing members at integer s are flagged, not fatal.
    """
    s = complex(s)
    degenerate = []
    for name, parity in (("L+", Parity.PLUS), ("L-", Parity.MINUS)):
        if lpm_is_identically_zero(s, parity):
            degenerate.append(name)
    for name, parity in (("R+", Parity.PLUS), ("R-", Parity.MINUS)):
        if r_pm_is_identically_zero(s, parity):
            degenerate.append(name)
    active = ("L+", "L-") if s.real > 0 else ("R+", "R-")
    return EigenBasis(
        s=s,
        L_plus=l_pm_twisted(s, Parity.PLUS),
        L_minus=l_pm_twisted(s, Parity.MINUS),
        R_plus=apply_R(l_pm_twisted(1 - s, Parity.PLUS), 1),
        R_minus=apply_R(l_pm_twisted(1 - s, Parity.MINUS), 1),
        active_pair=active,
        degenerate=tuple(degenerate),
    )


def dependency_residual(basis: EigenBasis, points) -> float:
    """Max residual of L_s^pm = w_pm gamma^pm(1-s) R_s^pm at the points.

    Skips a parity when the Tate factor is at a pole (the degenerate
    member is then identically zero instead).
    """
    pts = np.asarray(points, dtype=float)
    a, c = pts[:, 0], pts[:, 1]
    worst = 0.0
    pairs = (("L+", "R+", Parity.PLUS), ("L-", "R-", Parity.MINUS))
    for lname, rname, parity in pairs:
        g = tate_gamma(1.0 - basis.s, parity)
        if g.is_pole:
            continue
        coeff = root_number(parity) * g.value
        lhs = basis.member(lname).extend(a, c)
        rhs = coeff * basis.member(rname).extend(a, c)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def j_split(basis: EigenBasis) -> tuple[TwistedFn, TwistedFn]:
    """The J-eigenbasis (F+, F-) with J F^pm = +- F^pm.

    The active pair is already J-diagonal; a degenerate active member is
    an error (the caller should use the other family's basis).
    """
    for name in basis.active_pair:
        if name in basis.degenerate:
            raise DomainError(
                f"active basis member {name} vanishes identically at "
                f"s = {basis.s}; J-split is degenerate")
    return basis.active()


# ---------------------------------------------------------------------------
# Fourier slices
# ---------------------------------------------------------------------------

@dataclass
class FourierSlice:
    """Coefficients of one period-1 line integral family.

    ``a_axis``: f_n(c0) = int_0^1 F(a, c0) e^(-2 pi i n a) da.
    ``c_axis``: g_n(a0) = int_0^1 e^(2 pi i a0 c) F(a0, c) e^(-2 pi i n c) dc.
    """

    axis: str
    fixed_coord: float
    coefficients: dict[int, complex] = field(default_factory=dict)
    n_range: tuple[int, int] = (0, 0)

    def __getitem__(self, n: int) -> complex:
        return self.coefficients[n]


def fourier_slice(F: TwistedFn, axis: str, fixed_coord: float,
                  N: int) -> FourierSlice:
    """Quadrature extraction of the slice coefficients n = -N .. N.

    Composite Gauss-Legendre with panels split at the function's declared
    discontinuity lattice and graded geometrically into the lattice
    lines, so integrable endpoint blow-ups (present outside the critical
    strip) integrate accurately; the sliver dropped at the grading cutoff
    biases every coefficient by the same O(cutoff^(1+alpha)) mass.
    """
    if axis not in ("a_axis", "c_axis"):
        raise DomainError("axis must be 'a_axis' or 'c_axis'")
    x, w = line_nodes(denominator=F.denominator, max_mode=N,
                      grade_depth=_GRADE_DEPTH)
    if axis == "a_axis":
        vals = F.extend(x, fixed_coord)
    else:
        vals = (np.exp(2j * math.pi * fixed_coord * x)
                * F.extend(fixed_coord, x))
    ns = np.arange(-N, N + 1)
    phases = np.exp(-2j * math.pi * np.outer(ns, x))
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
    return FourierSlice(axis=axis, fixed_coord=float(fixed_coord),
                        coefficients={int(n): complex(v)
                                      for n, v in zip(ns, coeffs)},
                        n_range=(-N, N))


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
    matched: TwistedFn
    constancy_deviation: float = 0.0
    hecke_residual: float = 0.0


def _slice_coeff_matrix(F, axis, levels, N):
    """Coefficients f_n(level) (or g_n) as a dict (n, level_index) -> value."""
    out = {}
    for idx, lv in enumerate(levels):
        sl = fourier_slice(F, axis, lv, N)
        for n, v in sl.coefficients.items():
            out[(n, idx)] = v
    return out


def _fit_sides(samples):
    """Weighted constants on the two sides of the coefficient support.

    ``samples`` is a list of (tilde_value, weight, side) with side +1 for
    the A-side and -1 for the B-side.  Returns (A, B, worst weighted
    deviation relative to the fitted scale).
    """
    out = {}
    for side in (+1, -1):
        vals = np.array([v for v, _, sd in samples if sd == side])
        wts = np.array([w for _, w, sd in samples if sd == side])
        if vals.size == 0:
            out[side] = 0.0 + 0.0j
            continue
        out[side] = complex(np.sum(wts * vals) / np.sum(wts))
    scale = max(abs(out[+1]), abs(out[-1]), 1e-30)
    dev = 0.0
    for v, w, sd in samples:
        rel_w = min(1.0, w)
        dev = max(dev, abs(v - out[sd]) * rel_w / scale)
    return out[+1], out[-1], dev


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
    test points drawn from a fixed seed.
    """
    s = complex(s)
    if path not in ("a_path", "c_path"):
        raise DomainError("path must be 'a_path' or 'c_path'")
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
    coeffs = _slice_coeff_matrix(F, "a_axis" if a_path else "c_axis",
                                 levels, N)
    samples = []
    for (n, idx), v in coeffs.items():
        x = levels[idx]
        t = n + x if a_path else x - n
        if abs(t) < 0.05:
            continue
        tilde = v * np.exp(expo * math.log(abs(t)))
        weight = abs(t) ** (-expo.real)
        samples.append((tilde, weight, 1 if t > 0 else -1))
    A, B, dev = _fit_sides(samples)
    hecke_res = 0.0
    for m, b in hecke_pairs:
        i_base = levels.index(b)
        if a_path:
            # dilation identity f_{mn}(m c) = m^(-s) f_n(c) on sampled pairs
            eig = np.exp(-s * math.log(m))
            i_dil = levels.index(m * b)
            for n in range(-2, 3):
                if (m * n, i_dil) in coeffs and (n, i_base) in coeffs:
                    lhs = coeffs[(m * n, i_dil)]
                    rhs = eig * coeffs[(n, i_base)]
                    hecke_res = max(hecke_res, abs(lhs - rhs))
        else:
            # dual dilation identity g_{mn-k}(a) = m^(s-1) g_n((a+k)/m)
            eig = np.exp((s - 1.0) * math.log(m))
            for k in range(m):
                sl = fourier_slice(F, "c_axis", (b + k) / m, N)
                for n in range(-1, 2):
                    if (m * n - k, i_base) in coeffs:
                        lhs = coeffs[(m * n - k, i_base)]
                        hecke_res = max(hecke_res, abs(lhs - eig * sl[n]))
    if dev > _VIOLATION_TOL or hecke_res > _VIOLATION_TOL:
        raise IdentityViolationError(
            "normalized Fourier coefficients are not piecewise constant; "
            "F is not in the eigenspace at this s",
            deviation=max(dev, hecke_res))
    plus, minus = (l_pm_twisted(expo, parity)
                   for parity in (Parity.PLUS, Parity.MINUS))
    if not a_path:
        plus, minus = apply_R(plus, 1), apply_R(minus, 1)
    ca, cb = 0.5 * (A + B), 0.5 * (A - B)

    def h_core(aa, cc):
        return ca * plus.extend(aa, cc) + cb * minus.extend(aa, cc)

    matched = TwistedFn(h_core, F.denominator, f"H[{path}](s={s})")

    rng = np.random.default_rng(7)
    pa = rng.uniform(0.06, 0.94, 40)
    pc = rng.uniform(0.06, 0.94, 40)
    pc[-5:] += 1.0  # exercise the extension as well
    residual = float(np.max(np.abs(F.extend(pa, pc) - matched.extend(pa, pc))))
    return CharacterizationResult(A=A, B=B, residual=residual,
                                  matched=matched,
                                  constancy_deviation=dev,
                                  hecke_residual=hecke_res)
