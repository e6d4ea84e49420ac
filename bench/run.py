#!/usr/bin/env python3
"""lerchlab benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload eval_scalar --seed 1 --seconds 30 --trace 0

Workloads: eval_scalar, eval_grid, verify_suite (see workloads.py and
README.md).  A run builds the workload's inputs from --seed, runs one
untimed warm-up op, then repeats whole rounds of ops (one caller, no
threads) until --seconds have passed (default: run_seconds of
BENCHMARK.json) and the workload's minimum round count is reached.  It
checks the outputs against mpmath (eval workloads) or the suite's own
tolerances (verify_suite) and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs one traced round of every workload and reports the per-layer
metrics, plus the tracing overhead measured on the named workload.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS/OpenMP thread: numpy here links a threaded OpenBLAS, and a
# second pool thread competing for the two cores makes timings wander
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / ".cache"
WORKLOADS = ("eval_scalar", "eval_grid", "verify_suite")
SETUP_EVERY_S = 2.5


def parse_args(argv, run_seconds):
    parser = argparse.ArgumentParser(description="lerchlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the warm-up op, print setup_s and exit")
    return parser.parse_args(argv)


class RunRecord:
    """Latencies, first-round outputs and failures of a workload's rounds."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []        # seconds, every op attempted, in order
        self.first = None          # outputs of the first round (None: raised)
        self.failed_ops = set()    # op indices that raised
        self.values = 0            # values produced by ops that did not raise
        self.rounds = 0
        self.unstable = []         # ops whose output changed between rounds


def run_rounds(workload, seconds, min_rounds, nonconvergence, between_ops=None):
    import workloads

    record = RunRecord(workload)
    ops = workload.ops
    begin = time.perf_counter()
    while (record.rounds < min_rounds
           or time.perf_counter() - begin < seconds):
        outputs = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except nonconvergence:
                raw = None
            record.latencies.append(time.perf_counter() - t0)
            outputs.append(None if raw is None else op.output(raw))
            if between_ops is not None:
                between_ops()
        record.rounds += 1
        if record.first is None:
            record.first = outputs
            record.failed_ops = {i for i, out in enumerate(outputs) if out is None}
        for i, out in enumerate(outputs):
            if (out is None) != (record.first[i] is None) or (
                    out is not None and not workloads.same_output(out, record.first[i])):
                record.unstable.append(i)
            elif out is not None:
                record.values += workloads.output_count(out)
    return record


def check(record):
    """Problems found, failed op indices and estimate underruns of a run."""
    import refs
    import workloads

    workload = record.workload
    problems = [f"op {i} ({workload.ops[i].cls}) changed between rounds"
                for i in sorted(set(record.unstable))]
    failed = set(record.failed_ops)
    underruns = 0
    if workload.checked:
        bad, bad_ops, underruns = workloads.check_values(
            workload, record.first, refs.references(workload))
        problems += bad
        failed |= bad_ops
    else:
        problems += workloads.check_records(workload, record.first)
    for i in sorted(failed):
        if workload.ops[i].cls != "crit_high_t":
            problems.append(f"op {i} ({workload.ops[i].cls}) failed")
    return problems, failed, underruns


def op_counts(record, failed):
    n_ops = len(record.workload.ops)
    attempted = record.rounds * n_ops
    return attempted, record.rounds * len(failed)


class SetupSampler:
    """setup_s of this run and of fresh processes that repeat its set-up.

    Called between ops, it starts one such process at most every
    SETUP_EVERY_S, so the samples spread over the run as the timed ops
    do: host speed here swings in stretches of seconds, and set-ups
    taken back to back all land in the same stretch.  The child's time
    falls between ops, outside every latency.
    """

    def __init__(self, args, own_setup_s):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                     args.workload, "--seed", str(args.seed), "--setup-only"]
        self.times = [own_setup_s]
        self.last = time.perf_counter()

    def __call__(self):
        if time.perf_counter() - self.last < SETUP_EVERY_S:
            return
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=120, check=True)
        self.times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        self.last = time.perf_counter()


def end_to_end(workload, record, setup_s, peak_rss_mb, failed):
    import numpy as np

    lat_ms = np.array(record.latencies) * 1e3
    # crit_high_t ops whose (scalar) value missed the reference add nothing
    good = record.values - record.rounds * len(failed - record.failed_ops)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_tail_ms": float(np.percentile(lat_ms, workload.tail_pct)),
        "work_per_s": good / float(np.sum(record.latencies)),
    }


def per_layer(args, built, nonconvergence):
    """One traced round of every workload, then the tracing overhead on
    the named workload from untraced and traced runs of each of its ops."""
    import numpy as np
    import tracing

    tracer = tracing.Tracer()
    traced = {}
    for name, workload in built.items():
        workload.warmup.output(workload.warmup.run())
        gc.collect()
        tracer.install()
        try:
            traced[name] = run_rounds(workload, 0.0, 1, nonconvergence)
        finally:
            tracer.uninstall()
    CACHE_DIR.mkdir(exist_ok=True)
    tracer.write(CACHE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracing.layer_metrics(tracer.spans)

    scalar = traced["eval_scalar"]
    lat = np.array(scalar.latencies) * 1e3
    for cls in {op.cls for op in scalar.workload.ops}:
        idx = [i for i, op in enumerate(scalar.workload.ops) if op.cls == cls]
        metrics[f"lerch_core.class.{cls}.p50_ms"] = float(np.median(lat[idx]))

    # overhead: every op runs twice back to back, untraced and traced in
    # alternating order, so host speed swings (up to 1.5x between rounds
    # here) hit both sides alike
    workload = built[args.workload]
    elapsed = {False: 0.0, True: 0.0}
    begin = time.perf_counter()
    k = 0
    while k < len(workload.ops) or time.perf_counter() - begin < args.seconds:
        op = workload.ops[k % len(workload.ops)]
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            throwaway = tracing.Tracer()
            if with_spans:
                throwaway.install()
            try:
                t0 = time.perf_counter()
                try:
                    op.run()
                except nonconvergence:
                    pass
                elapsed[with_spans] += time.perf_counter() - t0
            finally:
                throwaway.uninstall()
        k += 1
    metrics["bench.trace_overhead_pct"] = 100.0 * (elapsed[True] / elapsed[False] - 1.0)
    return traced, metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec["run_seconds"])
    if not (ROOT / "src" / "lerchlab" / "__init__.py").is_file():
        print(f"error: lerchlab sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lerchlab
    import workloads

    CACHE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CACHE_DIR) as workdir:
        names = WORKLOADS if args.trace else (args.workload,)
        built = {name: workloads.build(name, args.seed, workdir) for name in names}
        workload = built[args.workload]
        nonconvergence = lerchlab.NonConvergenceError

        if args.trace:
            traced, metrics = per_layer(args, built, nonconvergence)
            problems, underruns = [], 0
            for name, record in traced.items():
                found, failed, n_under = check(record)
                problems += [f"{name}: {p}" for p in found]
                underruns += n_under
                if name == args.workload:
                    attempted, n_failed = op_counts(record, failed)
            metrics["lerch_core.estimate_underruns"] = underruns
            wanted = spec["per_layer"]
        else:
            workload.warmup.output(workload.warmup.run())
            gc.collect()
            gc.freeze()
            setup_s = time.perf_counter() - T_START
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            sampler = SetupSampler(args, setup_s)
            record = run_rounds(workload, args.seconds, workload.min_rounds,
                                nonconvergence, sampler)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            gc.unfreeze()
            problems, failed, _ = check(record)
            attempted, n_failed = op_counts(record, failed)
            setup_s = statistics.median(sampler.times)
            metrics = end_to_end(workload, record, setup_s, peak_rss_mb, failed)
            wanted = spec["end_to_end"]
            print(f"{args.workload}: {record.rounds} rounds, {attempted} ops, "
                  f"op_tail_ms is p{workload.tail_pct:g}, setup_s is the median "
                  f"of {len(sampler.times)} set-ups")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:48s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {n_failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": n_failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
