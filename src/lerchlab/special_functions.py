"""Complex gamma function and the gamma factors of the Lerch functional
equations.

The completed Lerch functions carry the archimedean factors

    gamma_R_plus(s)  = pi**(-s/2) * Gamma(s/2)
    gamma_R_minus(s) = gamma_R_plus(s + 1)

and the functional equations are governed by their ratios, the Tate gamma
functions

    tate_gamma_pm(s) = gamma_R_pm(s) / gamma_R_pm(1 - s),

which satisfy tate(s) * tate(1 - s) = 1 away from their integer zero/pole
sets.  The root numbers are w_plus = 1 and w_minus = i.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

__all__ = [
    "Parity",
    "GammaValue",
    "complex_gamma",
    "gamma_R",
    "tate_gamma",
    "root_number",
]


class Parity(enum.Enum):
    """Sign label of the symmetrized Lerch pair.

    ``PLUS`` corresponds to epsilon = 0 in the completed-function exponent
    (s + epsilon)/2 and ``MINUS`` to epsilon = 1.
    """

    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class GammaValue:
    """A gamma-factor value together with a pole flag.

    When ``is_pole`` is set the ``value`` field is meaningless; callers must
    branch on the flag instead of relying on infinities.
    """

    value: complex
    is_pole: bool = False

    def require_finite(self, what: str = "gamma factor") -> complex:
        if self.is_pole:
            from .errors import DegenerateParameterError

            raise DegenerateParameterError(f"{what} is at a pole")
        return self.value


# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
# Relative error is a few ulp times 1e-15 on the right half plane; the
# reflection formula extends it to Re z < 1/2.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)

_POLE_TOL = 1e-13


def _lanczos_gamma(z: complex) -> complex:
    """Lanczos sum for Re z >= 0.5 (no reflection, no pole checks)."""
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (z - 1.0 + k)
    t = z - 0.5 + _LANCZOS_G
    return math.sqrt(2.0 * math.pi) * t ** (z - 0.5) * cmath.exp(-t) * acc


def complex_gamma(z: complex) -> GammaValue:
    """Gamma(z) for complex z in double precision.

    Returns a pole flag at the non-positive integers (within 1e-13); all
    other arguments give a finite value with relative error well below
    1e-12 on the rectangle |Re z| <= 50, |Im z| <= 50.
    """
    z = complex(z)
    nearest = round(z.real)
    if nearest <= 0 and abs(z - nearest) <= _POLE_TOL:
        return GammaValue(complex("nan"), is_pole=True)
    if z.real >= 0.5:
        return GammaValue(_lanczos_gamma(z))
    # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z)), with
    # sin(pi z) = (-1)^n sin(pi (z - n)): z - n is exact, so the digits
    # sin keeps near its zero at n survive
    sign = -1.0 if nearest % 2 else 1.0
    sin_piz = sign * cmath.sin(cmath.pi * (z - nearest))
    return GammaValue(cmath.pi / (sin_piz * _lanczos_gamma(1.0 - z)))


def gamma_R(s: complex, parity: Parity) -> GammaValue:
    """Archimedean factor gamma_R: pi**(-s/2) Gamma(s/2) for ``PLUS``.

    The ``MINUS`` factor is defined as the ``PLUS`` factor at s + 1 and is
    computed through the identical code path.
    """
    if parity is Parity.MINUS:
        return gamma_R(s + 1, Parity.PLUS)
    g = complex_gamma(s / 2.0)
    if g.is_pole:
        return g
    return GammaValue(cmath.exp(-s / 2.0 * math.log(math.pi)) * g.value)


def tate_gamma(s: complex, parity: Parity) -> GammaValue:
    """Tate gamma function: gamma_R(s, p) / gamma_R(1 - s, p).

    Simple poles sit where the numerator gamma_R has a pole, and simple
    zeros (value exactly 0) where the denominator does; both sets are
    derived from the gamma_R definition rather than hard-coded.  Away from
    those integers the reflection identity tate(s) * tate(1-s) = 1 holds.
    """
    num = gamma_R(s, parity)
    den = gamma_R(1.0 - s, parity)
    if num.is_pole:
        return GammaValue(complex("nan"), is_pole=True)
    if den.is_pole:
        return GammaValue(0.0 + 0.0j)
    return GammaValue(num.value / den.value)


def root_number(parity: Parity) -> complex:
    """The functional-equation root number: 1 for PLUS, i for MINUS."""
    return 1.0 + 0.0j if parity is Parity.PLUS else 1.0j
