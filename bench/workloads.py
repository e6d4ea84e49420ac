"""Seeded inputs, ops and output checks of the three benchmark workloads.

Every workload is one round of ops in a seeded order; a run repeats whole
rounds.  Ops call lerchlab through attribute lookups on the package at
call time, so the tracer's wrappers (tracing.py) see them.

* eval_scalar  -- one scalar call per op over seven input classes.
* eval_grid    -- one batch call per op over (a, c) grids at seeded s.
* verify_suite -- one ``lerchlab verify --group <g>`` call per op,
  through ``cli.main``; a round covers all 11 check groups.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import lerchlab
import lerchlab.cli

BENCH_DIR = Path(__file__).resolve().parent
VERIFY_CONFIG = BENCH_DIR / "verify.cfg"

# Relative accuracy a checked value must meet against the mpmath
# reference: far looser than the 1e-12 evaluation target (checked values
# agree to about 1e-14), far tighter than the wrong values seen here
# (off by 6.5e-7 to 1).
RTOL = 1e-9

# |Im s| <= T_MAX outside crit_high_t, and the strip starts at Re s = 0.3:
# beyond either, Levin fails to stabilise at a share of points that grows
# with |Im s| (FOUND lines in CHANGES.md), and one failing point makes a
# whole batch raise.
T_MAX = 12.0

SCALAR_FUNCS = ("lerch_star", "lerch_zeta", "L_pm", "completed_L")
SCALAR_CLASSES = ("direct", "strip", "near_int_a", "int_a", "reflected",
                  "crit_low_t", "crit_high_t")
# A round has 6 * 71 + 24 = 450 ops, so p99 sits 4.5 ops a round from the
# top: mid-way through the copies of the 5th-slowest crit_high_t op, not
# on the edge between two of the fixed ops' latencies.
SCALAR_PER_CLASS = 71          # ops per seeded class per round
SCALAR_CHECKED_PER_CLASS = 4   # seeded subsample checked against mpmath
CRIT_HIGH_POINTS = 24          # fixed points, all checked
CRIT_HIGH_SEED = 20151126      # crit_high_t does not depend on --seed

GRID_REGIONS = (("strip", (0.3, 1.5)), ("critical", (0.5, 0.5)),
                ("re_gt_1", (1.5, 4.0)), ("reflected", (-4.0, -0.5)))
GRID_T_BANDS = 4               # s values per region, one per |Im s| band
GRID_NARROW = 10               # narrow batches are 10 x 10 points
GRID_WIDE = 100                # wide batches are 100 x 100 points

VERIFY_GROUPS = ("special_fns", "functional_equations", "hecke_eigen",
                 "operator_algebra", "commutators", "differential_eigen",
                 "eigenspace_structure", "adjoint", "characterization",
                 "milnor_baseline", "zeta_operator")
# Record counts that verify.cfg implies: hecke_eigen one per hecke_s,
# differential_eigen two per eigen_s, eigenspace_structure four per
# eigen_structure_s, adjoint 2 * adjoint_m_max + 10, characterization
# 2 * len(char_s) + 1, milnor_baseline one per milnor_s.
VERIFY_RECORDS = {"special_fns": 3, "functional_equations": 2,
                  "hecke_eigen": 3, "operator_algebra": 6, "commutators": 6,
                  "differential_eigen": 2, "eigenspace_structure": 4,
                  "adjoint": 14, "characterization": 3, "milnor_baseline": 2,
                  "zeta_operator": 1}


class Workload:
    """One round of ops plus what the run needs to time and check them.

    ``checked`` lists (op index, flat value index, point spec, fixed) for
    the values compared against mpmath; ``fixed`` marks points that do
    not depend on the seed (their references share one cache file).
    """

    def __init__(self, name, seed, ops, warmup, tail_pct, min_rounds,
                 checked=()):
        self.name = name
        self.seed = seed
        self.ops = ops
        self.warmup = warmup
        self.tail_pct = tail_pct
        self.min_rounds = min_rounds
        self.checked = list(checked)


# ---------------------------------------------------------------------------
# eval_scalar
# ---------------------------------------------------------------------------

class ScalarOp:
    """One scalar call; spec = (function, s, a, c, parity)."""

    def __init__(self, cls, spec):
        self.cls = cls
        self.spec = spec

    def run(self):
        func, s, a, c, parity = self.spec
        p = lerchlab.LerchParams(s, a, c)
        if func == "lerch_star":
            return lerchlab.lerch_star(p)
        if func == "lerch_zeta":
            return lerchlab.lerch_zeta(p)
        if func == "L_pm":
            return lerchlab.L_pm(p, lerchlab.Parity(parity))
        return lerchlab.completed_L(p, lerchlab.Parity(parity))

    @staticmethod
    def output(raw):
        return np.array([raw.value]), np.array([raw.error_estimate])


def _scalar_point(rng, cls, func):
    t = rng.uniform(-T_MAX, T_MAX)
    a = rng.uniform(0.02, 0.98)
    if cls == "direct":
        s = complex(rng.uniform(1.5, 6.0), t)
    elif cls == "strip":
        s = complex(rng.uniform(0.3, 1.5), t)
    elif cls == "near_int_a":
        s = complex(rng.uniform(-0.5, 3.0), t)
        d = rng.uniform(1e-4, 0.02)
        a = d if rng.random() < 0.5 else 1.0 - d
    elif cls == "int_a":
        s = complex(rng.uniform(-2.0, 3.0), t)
        a = float(rng.integers(0, 2))
    elif cls == "reflected":
        # a kept 0.05 from integers: see the FOUND line on reflected zeta*
        s = complex(rng.uniform(-4.0, -0.5), t)
        a = rng.uniform(0.05, 0.95)
    elif cls == "crit_low_t":
        s = complex(0.5, t)
    else:
        raise ValueError(cls)
    return _with_c(rng, func, s, a)


def _with_c(rng, func, s, a):
    # lerch_star takes c past 1 (twisted-periodic reduction); lerch_zeta
    # stays in (0, 1] (see the FOUND line on c > 1 in CHANGES.md); the
    # L-pair needs a, c in the open unit square for its reference.
    hi = {"lerch_star": 2.5, "lerch_zeta": 1.0}.get(func, 0.95)
    c = rng.uniform(0.05, hi)
    parity = "+" if rng.random() < 0.5 else "-"
    return (func, s, float(a), float(c), parity)


def crit_high_specs():
    """The fixed crit_high_t points: s = 1/2 + it, 20 <= |t| <= 100,
    |t| stratified into equal bands, drawn from a constant seed."""
    rng = np.random.default_rng(CRIT_HIGH_SEED)
    specs = []
    for k in range(CRIT_HIGH_POINTS):
        t = 20.0 + 80.0 * (k + rng.uniform()) / CRIT_HIGH_POINTS
        s = complex(0.5, t if rng.random() < 0.5 else -t)
        func = SCALAR_FUNCS[k % len(SCALAR_FUNCS)]
        specs.append(_with_c(rng, func, s, rng.uniform(0.02, 0.98)))
    return specs


def eval_scalar(seed):
    rng = np.random.default_rng([seed, 1])
    ops, checked = [], []
    for cls in SCALAR_CLASSES[:-1]:
        funcs = SCALAR_FUNCS[:2] if cls == "int_a" else SCALAR_FUNCS
        for k in range(SCALAR_PER_CLASS):
            ops.append(ScalarOp(cls, _scalar_point(rng, cls, funcs[k % len(funcs)])))
    ops += [ScalarOp("crit_high_t", spec) for spec in crit_high_specs()]
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    for cls in SCALAR_CLASSES[:-1]:
        idx = [i for i, op in enumerate(ops) if op.cls == cls]
        for i in rng.choice(idx, SCALAR_CHECKED_PER_CLASS, replace=False):
            checked.append((int(i), 0, ops[i].spec, False))
    checked += [(i, 0, op.spec, True) for i, op in enumerate(ops)
                if op.cls == "crit_high_t"]
    warmup = ScalarOp("warmup", _scalar_point(rng, "strip", "lerch_star"))
    # p99 needs 1000 ops: 3 rounds give 1350
    return Workload("eval_scalar", seed, ops, warmup, 99.0, 3, checked)


# ---------------------------------------------------------------------------
# eval_grid
# ---------------------------------------------------------------------------

class GridOp:
    """One batch call over an (a, c) grid at one s."""

    def __init__(self, cls, func, s, parity, a, c):
        self.cls = cls
        self.func = func
        self.s = s
        self.parity = parity
        self.a = a
        self.c = c

    def run(self):
        if self.func == "lerch_star_many":
            return lerchlab.lerch_star_many(self.s, self.a, self.c)
        return lerchlab.l_pm_many(self.s, lerchlab.Parity(self.parity),
                                  self.a, self.c)

    @staticmethod
    def output(raw):
        values, errors = raw
        return values.ravel(), errors.ravel()

    def spec(self, flat):
        func = "lerch_star" if self.func == "lerch_star_many" else "L_pm"
        return (func, self.s, float(self.a.ravel()[flat]),
                float(self.c.ravel()[flat]), self.parity)


def _grid(rng, n, lo=0.0, hi=1.0):
    a = rng.uniform(lo, hi, n)
    c = rng.uniform(0.0, 1.0, n)
    A, C = np.meshgrid(a, c, indexing="ij")
    return A, C


def eval_grid(seed):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for region, (lo, hi) in GRID_REGIONS:
        # zeta* at reflected s keeps a 0.05 from integers (FOUND line on
        # reflected zeta*); the L-pair takes the whole a range there
        a_lo = 0.05 if region == "reflected" else 0.0
        for band in range(GRID_T_BANDS):
            width = T_MAX / GRID_T_BANDS
            t = rng.uniform(width * band, width * (band + 1))
            s = complex(rng.uniform(lo, hi), t if rng.random() < 0.5 else -t)
            wide = ("lerch_star_many", "l_pm_many")[band % 2]
            parity = "+" if rng.random() < 0.5 else "-"
            ops.append(GridOp("wide", wide, s, parity,
                              *_grid(rng, GRID_WIDE, *_a_range(wide, a_lo))))
            for func, parity in (("lerch_star_many", "+"), ("l_pm_many", "+"),
                                 ("l_pm_many", "-")):
                ops.append(GridOp("narrow", func, s, parity,
                                  *_grid(rng, GRID_NARROW, *_a_range(func, a_lo))))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    checked = []
    for i, op in enumerate(ops):
        flat = int(rng.integers(op.a.size))
        checked.append((i, flat, op.spec(flat), False))
    warmup = GridOp("warmup", "lerch_star_many", 0.5 + 3j, "+", *_grid(rng, GRID_NARROW))
    # p95: a round has 64 ops (16 wide), so 4 rounds give at least 256 ops
    return Workload("eval_grid", seed, ops, warmup, 95.0, 4, checked)


def _a_range(func, a_lo):
    return (a_lo, 1.0 - a_lo) if func == "lerch_star_many" else (0.0, 1.0)


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------

class VerifyOp:
    """``lerchlab verify --group <group>`` in-process, reports to workdir."""

    def __init__(self, group, seed, workdir):
        self.cls = group
        self.json_path = Path(workdir) / f"{group}.json"
        self.argv = ["verify", "--group", group, "--config", str(VERIFY_CONFIG),
                     "--seed", str(seed), "--json-out", str(self.json_path),
                     "--csv-out", str(Path(workdir) / f"{group}.csv"), "--quiet"]

    def run(self):
        return lerchlab.cli.main(self.argv)

    def output(self, code):
        records = json.loads(self.json_path.read_text())
        return code, [(r["identity"], r["residual"], r["passed"]) for r in records]


def verify_suite(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    ops = [VerifyOp(VERIFY_GROUPS[i], seed, workdir)
           for i in rng.permutation(len(VERIFY_GROUPS))]
    warmup = VerifyOp("special_fns", seed, workdir)
    # p80: a round has 11 ops, so 5 rounds give at least 55 ops
    return Workload("verify_suite", seed, ops, warmup, 80.0, 5)


def build(name, seed, workdir):
    if name == "eval_scalar":
        return eval_scalar(seed)
    if name == "eval_grid":
        return eval_grid(seed)
    return verify_suite(seed, workdir)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def same_output(x, y):
    """Bit-for-bit equality of two outputs of one op."""
    if isinstance(x[0], np.ndarray):
        return np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
    return x == y


def output_count(x):
    """Values an op produced (eval) or identity records that passed (verify)."""
    if isinstance(x[0], np.ndarray):
        return int(x[0].size)
    return sum(1 for _, _, passed in x[1] if passed)


def check_values(workload, outputs, references):
    """Compare the checked values against their references.

    Returns (problems, bad_ops, underruns): messages for values off the
    reference outside crit_high_t, the indices of crit_high_t ops whose
    value is off (they count as failed ops), and the number of checked
    values whose true error exceeds their error estimate.
    """
    problems, bad_ops, underruns = [], set(), 0
    for (i, flat, spec, _), ref in zip(workload.checked, references):
        if outputs[i] is None:
            continue  # raised; counted as a failed op already
        value = complex(outputs[i][0][flat])
        estimate = float(outputs[i][1][flat])
        err = abs(value - ref)
        underruns += err > estimate
        if not err <= RTOL * abs(ref):
            if workload.ops[i].cls == "crit_high_t":
                bad_ops.add(i)
            else:
                problems.append(f"{spec}: value {value!r}, mpmath {ref!r}, "
                                f"relative error {err / abs(ref):.3g}")
    return problems, bad_ops, underruns


def check_records(workload, outputs):
    problems = []
    for op, out in zip(workload.ops, outputs):
        if out is None:
            continue  # raised; reported as a failed op
        code, records = out
        want = VERIFY_RECORDS[op.cls]
        if code != 0 or len(records) != want or not all(r[2] for r in records):
            problems.append(f"{op.cls}: exit {code}, {len(records)} records "
                            f"(want {want}), failing "
                            f"{[r[0] for r in records if not r[2]]}")
    return problems

