"""Independent oracles for the test suite.

Everything here avoids the package's evaluation strategies: plain partial
sums with explicit tail bounds (numpy only), and mpmath where a
high-precision reference is the stated oracle.  Keeping these separate is
what makes the dual-route assertions meaningful.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def direct_sum(s, a, c, N=1_000_000):
    """Partial sum of the one-sided Lerch series, chunked."""
    total = 0.0 + 0.0j
    for start in range(0, N, 200_000):
        n = np.arange(start, min(start + 200_000, N), dtype=float)
        total += np.sum(np.exp(2j * np.pi * (n * a % 1.0)) * (n + c) ** (-s))
    return total


def abs_tail_bound(s, c, N):
    """Absolute tail bound sum_{n>=N} (n+c)^(-Re s), Re s > 1."""
    sigma = complex(s).real
    return (N - 1.0 + c) ** (1.0 - sigma) / (sigma - 1.0)


def abel_tail_bound(s, a, c, N):
    """Summation-by-parts tail bound for non-integer a (oscillatory)."""
    sigma = complex(s).real
    z = np.exp(2j * np.pi * a)
    M = 2.0 / abs(1.0 - z)
    return M * (N + c) ** (-sigma) * (1.0 + abs(complex(s)) / sigma)


def two_sided_sum(s, a, c, N=200_000, signed=False):
    """Symmetric partial sum of L^+ (or L^- when signed) over |n| <= N."""
    total = 0.0 + 0.0j
    for start in range(-N, N + 1, 200_000):
        n = np.arange(start, min(start + 200_000, N + 1), dtype=float)
        t = n + c
        term = np.exp(2j * np.pi * (n * a % 1.0)) * np.abs(t) ** (-s)
        if signed:
            term = term * np.sign(t)
        total += np.sum(term)
    return total


def extended_sum(s, a, c, N=1_000_000):
    """Partial sum of zeta_star: over n + c > 0, n < N."""
    n_lo = int(np.floor(-c)) + 1
    n = np.arange(n_lo, N, dtype=float)
    return np.sum(np.exp(2j * np.pi * (n * a % 1.0)) * np.abs(n + c) ** (-s))


# A reference is accepted only when it is stable under 25 more digits:
# mpmath at a fixed precision is silently wrong at large |Im s| (30 digits
# at Im s ~ 75, 100 digits at Im s = 300).
EXTRA_DPS = 25
AGREE_REL = 1e-15


class UnsettledReference(RuntimeError):
    """Two working precisions disagree, so neither value is a reference."""


def _two_precision(evaluate, s, dps):
    """evaluate(dps) at dps and dps + EXTRA_DPS; the higher-precision value
    when they agree to AGREE_REL relative, else UnsettledReference.  The
    default dps grows with |Im s|."""
    if dps is None:
        dps = int(40 + 0.6 * abs(complex(s).imag))
    lo = evaluate(dps)
    hi = evaluate(dps + EXTRA_DPS)
    if abs(lo - hi) > AGREE_REL * abs(hi):
        raise UnsettledReference(
            f"{dps} and {dps + EXTRA_DPS} digits disagree: {lo!r} vs {hi!r}")
    return hi


def mp_gamma(z, dps=None):
    import mpmath as mp

    def evaluate(d):
        with mp.workdps(d):
            return complex(mp.gamma(z))

    return _two_precision(evaluate, z, dps)


def mp_lerch(s, a, c, dps=None):
    """mpmath's independently continued Lerch transcendent."""
    import mpmath as mp

    def evaluate(d):
        with mp.workdps(d):
            return complex(mp.lerchphi(mp.e ** (2j * mp.pi * mp.mpf(repr(a))),
                                       s, c))

    return _two_precision(evaluate, s, dps)


def mp_L_pm(sign, s, a, c, dps=None):
    """L^pm from two mpmath Lerch values (0 < a, c < 1)."""
    z1 = mp_lerch(s, a, c, dps)
    z2 = mp_lerch(s, 1.0 - a, 1.0 - c, dps)
    return z1 + sign * np.exp(-2j * np.pi * a) * z2


def mp_hurwitz(s, x, dps=None):
    import mpmath as mp

    def evaluate(d):
        with mp.workdps(d):
            return complex(mp.zeta(s, x))

    return _two_precision(evaluate, s, dps)
