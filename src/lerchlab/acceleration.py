"""Sequence acceleration for oscillatory series, vectorized over points.

The workhorse is the Levin u-transform applied to the partial sums of a
tail sum_{n>=0} t_n.  Row j of the transform table holds the numerator
and denominator of E(k, j), the order-k transform started at term j, for
the highest k reached so far: the table is one anti-diagonal
j + k = n.  Each new term n extends it by the two-term recursion

    E(k, j) = E(k-1, j+1) - f(k, j) E(k-1, j),

so the estimate at order n is num/den of row 0 after term n.  Terms come
in blocks of up to 24 (fewer on wide batches, one from 2048 points up):
the block's terms are generated in one call, each level k updates every
row of the block in one vectorized op on the stacked numerator and
denominator, and the error estimates of all the block's orders come in
one pass.  Every element sees the same arithmetic as a term-by-term
sweep, so results do not depend on the block size.

All arrays carry trailing "points" axes so a whole grid of series (one
per evaluation point) is accelerated in a single pass.  Convergence is
tracked per point through the stabilization of successive transform
orders; the returned error estimate is a small safety multiple of the last
two differences.  A point's estimates depend only on its own terms and
never grow, so a batch with per-point tolerances stops at the latest of
its points' own stopping orders.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import AccelerationFailureError

__all__ = ["levin_sum", "LevinResult"]

_SAFETY = 8.0
_TINY = 1e-300
# the u-transform's shift: omega_n = (_BETA + n) t_n
_BETA = 1.0
# no sum stops before this order
_MIN_ORDER = 6
# a block holds _BLOCK_TERMS terms, cut so that it holds at most
# _BLOCK_VALUES point values: from 2048 points up it is one term.  Most
# sums stop at order 17 to 19, so one 24-term block usually ends a sum.
# Measured on 2 shared cores (numpy 2.4.6) as the sum of per-op minima
# of one eval_scalar round (seed 1, 5-7 interleaved rounds): 8 terms
# 382 ms, 16 329-341, 20 293-302, 22 293, 24 296-307, 28 319, 32
# 314-327; the 10 x 10 grid ops stayed at 176-180 ms for every size.
_BLOCK_TERMS = 24
_BLOCK_VALUES = 2048
# table rows allocated up front; when the orders pass them the table
# doubles, or grows to the block's last term if that is further
_FIRST_ROWS = 32


class LevinResult:
    """Value/error pair for a batch of accelerated sums."""

    __slots__ = ("value", "error", "orders")

    def __init__(self, value: np.ndarray, error: np.ndarray, orders: int):
        self.value = value
        self.error = error
        self.orders = orders


@functools.lru_cache(maxsize=8)
def _factors(max_order: int) -> np.ndarray:
    """Read-only table f[k, j] of the recursion factors, k >= 1."""
    table = np.zeros((max_order, max_order))
    for k in range(1, max_order):
        for j in range(max_order - k):
            if k == 1:
                factor = 1.0
            else:
                base = (_BETA + j + k - 1.0) / (_BETA + j + k)
                factor = (_BETA + j) / (_BETA + j + k) * base ** (k - 2)
            table[k, j] = factor
    table.setflags(write=False)
    return table


def levin_sum(
    term_fn: Callable[[np.ndarray], np.ndarray],
    shape: tuple[int, ...],
    tol: float | np.ndarray,
    max_order: int = 80,
) -> LevinResult:
    """Accelerate sum_{n>=0} t_n with the Levin u-transform.

    ``term_fn(idx)`` gets a 1-d integer array of term indices and must
    return the terms t_idx as an array of shape ``idx.shape + shape``.
    ``tol`` is one tolerance for every point or an array of per-point
    tolerances that broadcasts to ``shape``; the sum stops at the first
    order (from ``_MIN_ORDER`` on) where every point's estimate is at or
    below its own tolerance.  Raises :class:`AccelerationFailureError`
    when some point fails to get there within ``max_order`` terms; the
    partially converged value and estimate ride along on the exception.
    """
    tols = np.broadcast_to(np.asarray(tol, dtype=float), shape)
    block = max(1, min(_BLOCK_TERMS, _BLOCK_VALUES // max(1, math.prod(shape))))
    factors = _factors(max_order)
    per_term = (-1,) + (1,) * len(shape)   # broadcast over a block's terms
    per_row = per_term + (1,)              # ... and over (num, den) rows
    # table[j] = (numerator, denominator) of E(n - j, j) after term n; a
    # row is written when its term arrives, before any level reads it.
    # Rows are allocated as the orders grow, since most sums stop early.
    table = np.empty((min(max_order, _FIRST_ROWS), 2) + shape, dtype=np.complex128)
    work = np.empty((block, 2) + shape, dtype=np.complex128)
    row0 = np.empty((block, 2) + shape, dtype=np.complex128)
    partial = np.zeros(shape, dtype=np.complex128)

    best = np.zeros(shape, dtype=np.complex128)
    err = np.full(shape, np.inf)
    # the estimate of the last order before the block and its difference
    # from the one before it (NaN while there is none)
    last = np.full(shape, np.nan + 0j)
    last_diff = np.full(shape, np.nan)

    for n0 in range(0, max_order, block):
        n1 = min(n0 + block, max_order)
        if n1 > len(table):
            size = min(max_order, max(n1, 2 * len(table)))
            grown = np.empty((size,) + table.shape[1:], dtype=np.complex128)
            grown[:n0] = table[:n0]
            table = grown
        idx = np.arange(n0, n1)
        terms = np.asarray(term_fn(idx), dtype=np.complex128)
        sums = np.empty_like(terms)
        for i, t_n in enumerate(terms):
            partial = np.add(partial, t_n, out=sums[i, ...])
        omega = (_BETA + idx).reshape(per_term) * terms
        omega = np.where(np.abs(omega) < _TINY, _TINY, omega)
        table[n0:n1, 0] = sums / omega
        table[n0:n1, 1] = 1.0 / omega
        # level k moves rows lo..hi-1 from E(k-1, j) to E(k, j); the
        # right-hand side reads only rows the level has not written yet
        for k in range(1, n1):
            lo = max(0, n0 - k)
            hi = n1 - k
            rows = table[lo:hi]
            scaled = work[:hi - lo]
            np.multiply(factors[k, lo:hi].reshape(per_row), rows, out=scaled)
            np.subtract(table[lo + 1:hi + 1], scaled, out=rows)
            if k >= n0:
                row0[k - n0] = table[0]   # E(k, 0): the order-k estimate

        # the stopping rule, on the estimates v_n from order 2 on: the
        # steps max(|v_n - v_n-1|, |v_n-1 - v_n-2|) and error estimates of
        # all the block's orders come in one pass (NaN, which never
        # improves on an estimate, until order 4), and the running best is
        # then taken one order at a time
        first = max(n0, 2)
        if first >= n1:
            continue
        den0 = row0[first - n0:n1 - n0, 1]
        d0 = np.where(np.abs(den0) < _TINY, _TINY, den0)
        vals = row0[first - n0:n1 - n0, 0] / d0
        diffs = np.empty(vals.shape)
        np.abs(vals[:1] - last, out=diffs[:1])
        np.abs(vals[1:] - vals[:-1], out=diffs[1:])
        steps = np.empty(vals.shape)
        np.maximum(diffs[:1], last_diff, out=steps[:1])
        np.maximum(diffs[1:], diffs[:-1], out=steps[1:])
        ests = _SAFETY * steps + 1e-16 * np.abs(vals)
        for n, val, est in zip(range(first, n1), vals, ests):
            improved = est < err
            best = np.where(improved, val, best)
            err = np.where(improved, est, err)
            if n >= _MIN_ORDER and (err <= tols).all():
                return LevinResult(best, err, n + 1)
        last, last_diff = vals[-1], diffs[-1]

    lo, hi = tols.min(), tols.max()
    bound = f"{lo:g}" if lo == hi else f"per-point tolerances {lo:g} to {hi:g}"
    raise AccelerationFailureError(
        f"Levin transform did not stabilize below {bound} within "
        f"{max_order} terms (worst estimate {err.max():g})",
        value=best,
        error_estimate=err,
    )
