#!/usr/bin/env python3
"""Run two sets of benchmark runs and report whether they agree.

    python3 bench/compare.py --runs 10 [--workload eval_grid ...]

Every run uses its own seed (set k of 0, 1, run r gets seed
first + k * runs + r).  For each workload and end-to-end metric this
prints, per set, the median and the spread (third minus first quartile,
from ``statistics.quantiles(values, n=4)``, as a share of the median),
then checks the bounds in BENCHMARK.json: every spread within its bound,
the second set's median no worse than the first's by more than the
bound, every run correct, and the same failed share in every run.
Exits 0 when all of that holds.  Raw results go to
bench/.cache/compare-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = {}
    ok = True
    for workload in args.workload or names:
        sets = []
        for k in range(2):
            runs = []
            for r in range(args.runs):
                seed = args.first_seed + k * args.runs + r
                runs.append(run_once(spec, workload, seed))
                print(f"{workload} set {k} seed {seed}: {runs[-1]['wall_s']:.1f} s",
                      file=sys.stderr)
            sets.append(runs)
        results[workload] = sets
        print(f"\n{workload}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  correct in every run: {correct}; failed shares: "
              f"{sorted(shares)}")
        ok &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = sign * (medians[1] / medians[0] - 1.0)
            good = drift <= bound and all(s <= bound for s in spreads)
            ok &= good
            print(f"  {name:12s} bound {bound:.2f}  "
                  + "  ".join(f"median {m:.6g} spread {s:.3f}"
                              for m, s in zip(medians, spreads))
                  + f"  worse by {drift:+.3f}"
                  + ("" if good else "  OUTSIDE BOUND"))
    out = BENCH_DIR / ".cache" / f"compare-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))
    print(f"\n{'agree' if ok else 'DISAGREE'}; raw results in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
