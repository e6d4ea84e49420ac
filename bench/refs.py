#!/usr/bin/env python3
"""mpmath references for the checked values of the eval workloads.

Each reference is computed independently of lerchlab, from mpmath's
``lerchphi`` at 30 significant digits:

    zeta(s, a, c)      = lerchphi(e^(2 pi i a), s, c)                (c > 0)
    zeta_star(s, a, c) = zeta(s, a, c) + sum_{k=1}^{ceil(c)-1} e^(-2 pi i k a) (c-k)^(-s)
    L^pm(s, a, c)      = zeta(s, a, c) pm e^(-2 pi i a) zeta(s, 1-a, 1-c)  (0 < a, c < 1)
    Lhat^pm(s, a, c)   = pi^(-(s+eps)/2) Gamma((s+eps)/2) L^pm(s, a, c)

References are cached in bench/.cache: one file per workload and seed,
plus one for the seed-independent crit_high_t points.  Making them ahead
of a run (they cost 0.1-0.6 s a point):

    python3 bench/refs.py --workload eval_scalar --seed 1
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import mpmath as mp

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / ".cache"
DIGITS = 30


def _phi(s, a, c):
    return mp.lerchphi(mp.expjpi(2 * a), s, c)


def reference(spec) -> complex:
    """The exact value of one checked point, spec = (function, s, a, c, parity)."""
    func, s, a, c, parity = spec
    shifts = math.ceil(c) - 1
    with mp.workdps(DIGITS):
        s, a, c = mp.mpc(s), mp.mpf(a), mp.mpf(c)
        if func == "lerch_zeta":
            return complex(_phi(s, a, c))
        if func == "lerch_star":
            value = _phi(s, a, c)
            for k in range(1, shifts + 1):
                value += mp.expjpi(-2 * k * a) * (c - k) ** (-s)
            return complex(value)
        sign = 1 if parity == "+" else -1
        value = _phi(s, a, c) + sign * mp.expjpi(-2 * a) * _phi(s, 1 - a, 1 - c)
        if func == "completed_L":
            half = (s + (0 if parity == "+" else 1)) / 2
            value *= mp.pi ** (-half) * mp.gamma(half)
        return complex(value)


def _key(spec) -> str:
    return repr(tuple(spec))


def _cached(specs, path: Path) -> list[complex]:
    table = json.loads(path.read_text()) if path.is_file() else {}
    missing = [spec for spec in specs if _key(spec) not in table]
    for spec in missing:
        value = reference(spec)
        table[_key(spec)] = [value.real, value.imag]
    if missing:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(table))
        tmp.replace(path)
    return [complex(*table[_key(spec)]) for spec in specs]


def references(workload) -> list[complex]:
    """References for ``workload.checked``, in order, from the cache or mpmath."""
    specs = [spec for _, _, spec, _ in workload.checked]
    fixed = [spec for _, _, spec, is_fixed in workload.checked if is_fixed]
    seeded = [spec for _, _, spec, is_fixed in workload.checked if not is_fixed]
    values = dict(zip(map(_key, fixed), _cached(fixed, CACHE_DIR / "refs-fixed.json")))
    values.update(zip(map(_key, seeded), _cached(
        seeded, CACHE_DIR / f"refs-{workload.name}-seed{workload.seed}.json")))
    return [values[_key(spec)] for spec in specs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("eval_scalar", "eval_grid"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import workloads

    workload = workloads.build(args.workload, args.seed, None)
    print(f"{len(references(workload))} references cached for "
          f"{args.workload} seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
