"""Command-line interface: point evaluation, the verification suite,
characterization, and report re-rendering.

Exit codes: 0 success / all checks passed, 1 evaluation error or check
failure, 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, IdentityViolationError, LerchLabError
from .lerch_core import (
    TARGET_TOL,
    EvalResult,
    LerchParams,
    L_pm,
    _require_tol,
    completed_L,
    hurwitz,
    lerch_star,
    lerch_zeta,
)
from .special_functions import Parity

_FUNCTIONS = ("zeta", "zeta-star", "L", "L-hat", "hurwitz")


def _parse_complex(text: str) -> complex:
    """Accept 're,im' or a plain Python literal like '2', '0.5+10j'."""
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(text.replace(" ", ""))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lerchlab",
        description="Lerch zeta evaluation and identity verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at (s, a, c)")
    p_eval.add_argument("--function", choices=_FUNCTIONS, default="zeta")
    p_eval.add_argument("--s", required=True,
                        help="complex s as re,im or a literal like 0.5+10j; "
                             "use --s=-1.5,0 for negative real parts")
    p_eval.add_argument("--a", type=float, required=True)
    p_eval.add_argument("--c", type=float, required=True)
    p_eval.add_argument("--parity", choices=("+", "-"), default="+",
                        help="parity for L / L-hat")
    p_eval.add_argument("--tol", type=float, default=TARGET_TOL,
                        help="target tolerance, finite and > 0 "
                             f"(default {TARGET_TOL:g})")

    p_verify = sub.add_parser("verify", help="run identity check groups")
    p_verify.add_argument("--group", action="append", default=None,
                          help="check group (repeatable; default: all)")
    p_verify.add_argument("--config", default=None,
                          help="flat key=value config file")
    p_verify.add_argument("--json-out", default="lerchlab_report.json")
    p_verify.add_argument("--csv-out", default="lerchlab_report.csv")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--deterministic", action="store_true",
                          help="zero runtime fields for byte-identical reports")
    p_verify.add_argument("--quiet", action="store_true")

    p_char = sub.add_parser("characterize",
                            help="recover (A, B) for a candidate eigenfunction")
    p_char.add_argument("--function", choices=("zeta-star", "L+", "L-"),
                        default="zeta-star")
    p_char.add_argument("--s", required=True)
    p_char.add_argument("--path", choices=("a", "c"), default="a")
    p_char.add_argument("--n", type=int, default=32,
                        help="coefficient range, at least 6")

    p_report = sub.add_parser("report", help="re-render a JSON report as CSV")
    p_report.add_argument("--json-in", required=True)
    p_report.add_argument("--csv-out", required=True)
    return parser


def _print_eval(result: EvalResult):
    print(json.dumps({
        "value": [result.value.real, result.value.imag],
        "error_estimate": result.error_estimate,
        "strategy": result.strategy.value,
    }))


def _cmd_eval(args) -> int:
    s = _parse_complex(args.s)
    params = LerchParams(s, args.a, args.c)
    _require_tol(args.tol)
    parity = Parity(args.parity)
    try:
        if args.function == "zeta":
            result = lerch_zeta(params, args.tol)
        elif args.function == "zeta-star":
            result = lerch_star(params, args.tol)
        elif args.function == "L":
            result = L_pm(params, parity, args.tol)
        elif args.function == "L-hat":
            result = completed_L(params, parity, args.tol)
        else:
            result = hurwitz(s, args.c, args.tol)
    except LerchLabError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    _print_eval(result)
    return 0


def _cmd_verify(args) -> int:
    from .harness import run_suite

    try:
        code, records = run_suite(config_path=args.config, groups=args.group,
                                  json_path=args.json_out,
                                  csv_path=args.csv_out, seed=args.seed,
                                  deterministic_timing=args.deterministic)
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LerchLabError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        for r in records:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.identity}  residual={r.residual:.3e} "
                  f"tol={r.tolerance:.3e}")
        n_pass = sum(r.passed for r in records)
        print(f"{n_pass}/{len(records)} checks passed; "
              f"report: {args.json_out}, {args.csv_out}")
    return code


def _cmd_characterize(args) -> int:
    from .eigenspace import characterize
    from .twisted_space import l_pm_twisted, lerch_star_twisted

    s = _parse_complex(args.s)
    if args.function == "zeta-star":
        F = lerch_star_twisted(s)
    else:
        parity = Parity.PLUS if args.function == "L+" else Parity.MINUS
        F = l_pm_twisted(s, parity)
    path = "a_path" if args.path == "a" else "c_path"
    try:
        result = characterize(F, s, path, N=args.n)
    except IdentityViolationError as exc:
        print(json.dumps({"error": str(exc), "deviation": exc.deviation}))
        return 1
    except LerchLabError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    print(json.dumps({
        "A": [result.A.real, result.A.imag],
        "B": [result.B.real, result.B.imag],
        "residual": result.residual,
        "constancy_deviation": result.constancy_deviation,
        "hecke_residual": result.hecke_residual,
    }))
    return 0


def _cmd_report(args) -> int:
    from .harness import write_csv
    from .report import ReportRecord

    try:
        raw = json.loads(open(args.json_in).read())
        records = [ReportRecord(identity=r["identity"], params=r["params"],
                                residual=r["residual"], tolerance=r["tolerance"],
                                passed=r["passed"], runtime_ms=r["runtime_ms"])
                   for r in raw]
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    write_csv(records, args.csv_out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "characterize":
            return _cmd_characterize(args)
        return _cmd_report(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
