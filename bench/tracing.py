"""Span tracing of lerchlab's public functions, from outside the package.

``Tracer.install`` wraps each traced function where its callers look it
up: in every ``lerchlab`` module whose namespace holds it (so
``levin_sum`` is wrapped in ``lerch_core``, ``apply_hecke`` in
``harness`` and ``eigenspace``), methods on their class
(``TwistedFn.extend``, ``QuadratureGrid.integrate``), the check groups in
``harness.CHECK_GROUPS``, and the core of every test function that
``harness.smooth_twisted_fn`` returns.  Each call records a span (name,
start, end, parent span, counts).  Spans stay in memory; ``uninstall``
restores the originals.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

COMPLEX_BYTES = 16
LEVIN_DEFAULT_MAX_ORDER = 80


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(x) for x in arrays]).size)


def _levin_counts(args, kwargs, result, failed):
    # levin_sum(term_fn, shape, tol, max_order=80, ...): a failure counts
    # max_order orders; the transform keeps two tables of max_order rows
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    max_order = kwargs.get("max_order",
                           args[3] if len(args) > 3 else LEVIN_DEFAULT_MAX_ORDER)
    points = int(np.prod(shape))
    orders = max_order if failed else result.orders
    return {"points": points, "orders": orders, "failures": int(failed),
            "table_bytes": 2 * max_order * points * COMPLEX_BYTES}


def _points(i, j):
    return lambda args, kwargs, result, failed: {"points": _size(args[i], args[j])}


def _nodes(args, kwargs, result, failed):
    return {"nodes": 0 if failed else len(result[0])}


# (module, attribute, span name, counts)
FUNCTIONS = (
    ("lerchlab.acceleration", "levin_sum", "acceleration.levin_sum", _levin_counts),
    ("lerchlab.special_functions", "complex_gamma", "special_functions.complex_gamma", None),
    ("lerchlab.special_functions", "gamma_R", "special_functions.gamma_R", None),
    ("lerchlab.special_functions", "tate_gamma", "special_functions.tate_gamma", None),
    ("lerchlab.lerch_core", "lerch_star", "lerch_core.lerch_star", None),
    ("lerchlab.lerch_core", "lerch_zeta", "lerch_core.lerch_zeta", None),
    ("lerchlab.lerch_core", "L_pm", "lerch_core.L_pm", None),
    ("lerchlab.lerch_core", "completed_L", "lerch_core.completed_L", None),
    ("lerchlab.lerch_core", "lerch_star_many", "lerch_core.lerch_star_many", _points(1, 2)),
    ("lerchlab.lerch_core", "l_pm_many", "lerch_core.l_pm_many", _points(2, 3)),
    ("lerchlab.lerch_core", "hurwitz_many", "lerch_core.hurwitz_many", None),
    ("lerchlab.twisted_space", "apply_hecke", "twisted_space.apply_hecke", None),
    ("lerchlab.twisted_space", "zeta_operator_partial",
     "twisted_space.zeta_operator_partial", None),
    ("lerchlab.quadrature", "line_nodes", "quadrature.line_nodes", _nodes),
    ("lerchlab.diff_ops", "apply_D", "diff_ops.apply_D", None),
    ("lerchlab.diff_ops", "commutator_residual", "diff_ops.commutator_residual", None),
    ("lerchlab.diff_ops", "raising_lowering_scan", "diff_ops.raising_lowering_scan", None),
    ("lerchlab.eigenspace", "fourier_slice", "eigenspace.fourier_slice", None),
    ("lerchlab.eigenspace", "characterize", "eigenspace.characterize", None),
    ("lerchlab.eigenspace", "dependency_residual", "eigenspace.dependency_residual", None),
    ("lerchlab.harness", "lp_norm", "harness.lp_norm", None),
    ("lerchlab.harness", "inner_product", "harness.inner_product", None),
    ("lerchlab.cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, counts]
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result, failed = None, True
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if counts is not None:
                    span[4] = counts(args, kwargs, result, failed)

        return traced

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        from lerchlab import harness
        from lerchlab.quadrature import QuadratureGrid
        from lerchlab.twisted_space import TwistedFn

        modules = [m for n, m in sys.modules.items()
                   if n == "lerchlab" or n.startswith("lerchlab.")]
        for module, attr, name, counts in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original, counts)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._set(m, attr, traced)
        self._set(TwistedFn, "extend", self.wrap(
            "twisted_space.extend", TwistedFn.extend, _points(1, 2)))
        self._set(QuadratureGrid, "integrate", self.wrap(
            "quadrature.integrate", QuadratureGrid.integrate))
        for group, fn in list(harness.CHECK_GROUPS.items()):
            self._restore.append((harness.CHECK_GROUPS, group, fn))
            harness.CHECK_GROUPS[group] = self.wrap(f"harness.group.{group}", fn)
        make_test_fn = harness.smooth_twisted_fn

        def smooth_twisted_fn(*args, **kwargs):
            fn = make_test_fn(*args, **kwargs)
            fn.core = self.wrap("harness.test_fn", fn.core, _points(0, 1))
            return fn

        self._set(harness, "smooth_twisted_fn", smooth_twisted_fn)

    def uninstall(self):
        while self._restore:
            obj, attr, original = self._restore.pop()
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")


def layer_metrics(spans) -> dict:
    """calls, self_s, total_s and summed counts per span name, plus the
    named per-layer metrics derived from them."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    sums = defaultdict(int)
    table_max = 0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        total_s[name] += end - start
        for key, value in (counts or {}).items():
            if key == "table_bytes":
                table_max = max(table_max, value)
            else:
                sums[f"{name}.{key}"] += value
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        if name.startswith("harness.group."):
            out[f"{name}.s"] = total_s[name]
    out.update(sums)
    out["acceleration.levin_sum.table_mb"] = table_max / 1e6
    out["quadrature.nodes"] = sums.get("quadrature.line_nodes.nodes", 0)
    return out
