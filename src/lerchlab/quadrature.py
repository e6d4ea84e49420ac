"""Composite Gauss-Legendre quadrature on the unit interval and square.

Line rules split [0, 1] at the discontinuity lattice j/d, refine panels
until the oscillation e^(2 pi i n x) of the highest requested mode is
resolved, and optionally grade the panels abutting each lattice line
geometrically toward it.  Grading makes integrable endpoint blow-ups
(|x - j/d|^alpha with alpha > -1) converge: the mass of the innermost
piece of a depth-L stack scales like 2^(-L (1 + alpha)).

The square rule is the tensor product of two line rules, kept as one
node axis per variable; its weights sum to the unit area exactly up to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["QuadratureGrid", "line_nodes", "unit_square_grid"]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# points per graded piece, and the distance from a lattice line at which
# a graded stack stops
_GRADED_POINTS = 16
_EDGE_CUTOFF = 1e-12


def _leggauss(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _map_panel(x0: float, x1: float, points: int):
    t, w = _leggauss(points)
    half = 0.5 * (x1 - x0)
    return x0 + half * (t + 1.0), half * w


def _graded_pieces(lo: float, hi: float, depth: int, toward_lo: bool):
    """Geometric pieces of [lo, hi] accumulating at one end.

    The stack stops at _EDGE_CUTOFF distance from the singular end and the
    final sliver is dropped: its mass is O(cutoff^(1+alpha)) for an
    integrable |x - e|^alpha blow-up, and dropping it keeps all nodes
    clear of the lattice-rejection radius of the integrand.
    """
    width = hi - lo
    depth = min(depth, max(1, int(math.ceil(math.log2(width / _EDGE_CUTOFF)))))
    pieces = []
    if toward_lo:
        for j in range(depth, 0, -1):
            pieces.append((lo + width * 0.5 ** j, lo + width * 0.5 ** (j - 1)))
    else:
        for j in range(depth, 0, -1):
            pieces.append((hi - width * 0.5 ** (j - 1), hi - width * 0.5 ** j))
        pieces = pieces[::-1]
    return pieces


def line_nodes(denominator: int = 1, points_per_panel: int = 64,
               max_mode: int = 0, grade_depth: int = 0):
    """Composite GL nodes/weights on (0, 1).

    Panels split at j/denominator and are subdivided so each holds at
    most ~8 oscillation periods of mode ``max_mode``.  With
    ``grade_depth`` > 0 the subpanels touching a lattice line are
    replaced by a geometric stack toward the line, truncated at
    _EDGE_CUTOFF (see :func:`_graded_pieces`).
    """
    if denominator < 1:
        raise DomainError("denominator must be positive")
    edges = np.linspace(0.0, 1.0, denominator + 1)
    nodes = []
    weights = []

    def emit(x0, x1, pts):
        x, w = _map_panel(x0, x1, pts)
        nodes.append(x)
        weights.append(w)

    for i in range(denominator):
        e0, e1 = edges[i], edges[i + 1]
        width = e1 - e0
        n_sub = max(1, int(math.ceil((abs(max_mode) * width) / 8.0)))
        if grade_depth > 0 and n_sub < 2:
            n_sub = 2  # keep the two graded stacks disjoint
        sub = np.linspace(e0, e1, n_sub + 1)
        for j in range(n_sub):
            s0, s1 = sub[j], sub[j + 1]
            if grade_depth > 0 and j == 0:
                for (p0, p1) in _graded_pieces(s0, s1, grade_depth, True):
                    emit(p0, p1, _GRADED_POINTS)
            elif grade_depth > 0 and j == n_sub - 1:
                for (p0, p1) in _graded_pieces(s0, s1, grade_depth, False):
                    emit(p0, p1, _GRADED_POINTS)
            else:
                emit(s0, s1, points_per_panel)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass
class QuadratureGrid:
    """Tensor GL rule on the unit square in axis form.

    ``a`` is an (Na, 1) column of a-nodes, ``c`` a (1, Nc) row of c-nodes
    and ``weights`` their (Na, Nc) outer product, so a function that
    broadcasts evaluates its a- and c-factors once per axis node.
    """

    a: np.ndarray
    c: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.weights.size

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


def unit_square_grid(panels_per_axis: int = 4,
                     points_per_panel: int = 16) -> QuadratureGrid:
    """Plain tensor rule with panels_per_axis^2 square panels."""
    return rectangle_grid(panels_per_axis, panels_per_axis, points_per_panel)


def rectangle_grid(panels_a: int, panels_c: int,
                   points_per_panel: int = 16) -> QuadratureGrid:
    """Tensor rule with different panel counts per axis (operators of the
    Hecke family dilate only one coordinate, so matching the refinement to
    the axis saves a factor ~m in nodes)."""
    xa, wa = line_nodes(denominator=panels_a,
                        points_per_panel=points_per_panel)
    xc, wc = line_nodes(denominator=panels_c,
                        points_per_panel=points_per_panel)
    return QuadratureGrid(xa[:, None], xc[None, :], np.outer(wa, wc))
