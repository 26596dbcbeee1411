"""Command-line interface: discriminant-resultant series, identity
verification and independence certificates, with deterministic seeded
runs and JSON or text output.

Exit codes: 0 success, 1 verification failure, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import __version__
from .binforms import BinaryForm, NumericDegenerateError, dr_series
from .brackets import AssignmentBudgetError, generic_points
from .independence import run_independence_suite
from .verify import CHECKS, NotApplicable, passed

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call of
    main.  Parsing fills a new namespace each time, so no call sees another
    call's values; the parser itself must not be mutated."""
    parser = argparse.ArgumentParser(
        prog="drbracket",
        description="Exact discriminant-resultant computations and "
                    "machine-checkable identity certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed; identical flags give identical output")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--budget", type=float, default=None,
                       help="soft time budget in seconds (warns on stderr)")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("dr-series", help="compute the DR series of a pair of forms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("symbolic", "numeric"), default="symbolic")
    p.add_argument("--in", dest="infile", default=None,
                   help="JSON file with {'f_n': form, 'f_m': form}")
    p.add_argument("--forms", default=None,
                   help="the same JSON object, inline")
    common(p)

    p = sub.add_parser("verify", help="verify one of the library's identities, "
                                      "or all of them at n = 2..N")
    p.add_argument("target", choices=(*CHECKS, "all"))
    p.add_argument("--n", type=int, default=4,
                   help="the n to check; for 'all', the largest")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mode", choices=("symbolic", "numeric"), default="numeric")
    common(p)

    p = sub.add_parser("independence", help="emit independence certificates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10,
                   help="random points for the Jacobian check")
    common(p)
    return parser


def _load_forms(args) -> tuple:
    if args.infile and args.forms:
        raise UsageError("give either --in or --forms, not both")
    if args.mode == "symbolic" and (args.infile or args.forms):
        raise UsageError("--in and --forms give numeric forms: "
                         "use --mode numeric")
    raw = None
    if args.infile:
        try:
            with open(args.infile, encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read --in file: {exc}")
    elif args.forms:
        raw = args.forms
    if raw is None:
        if args.mode == "numeric":
            raise UsageError("numeric mode needs --in or --forms")
        return (BinaryForm.generic(args.n, "a"),
                BinaryForm.generic(args.n - 2, "b"))
    try:
        data = json.loads(raw)
        f_n = BinaryForm.from_json(data["f_n"])
        f_m = BinaryForm.from_json(data["f_m"])
    except (json.JSONDecodeError, KeyError, ValueError, TypeError,
            ZeroDivisionError, RecursionError) as exc:
        raise UsageError(f"malformed form input: {exc}")
    if f_n.degree != args.n or f_m.degree != args.n - 2:
        raise UsageError("form degrees disagree with --n")
    return f_n, f_m


def cmd_dr_series(args) -> tuple:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    f_n, f_m = _load_forms(args)
    try:
        series = dr_series(f_n, f_m, mode=args.mode)
    except NumericDegenerateError as exc:
        return {"error": str(exc)}, EXIT_FAILURE
    # print computed values in full: lift the interpreter's cap on the
    # digits of an int turned into a string, but only here, so that input
    # parsing keeps it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        values = series.to_json()["entries"]
        entries = [{"r": r, "value": v,
                    "text": v if isinstance(v, str) else str(e)}
                   for r, (e, v) in enumerate(zip(series.entries, values))]
    finally:
        sys.set_int_max_str_digits(limit)
    return {"n": args.n, "mode": args.mode, "entries": entries}, EXIT_OK


def cmd_verify(args) -> tuple:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")

    def run(name, n):
        return CHECKS[name](n, args.trials, seed=args.seed, mode=args.mode)
    if args.target == "all":
        if args.mode == "numeric":
            # every numeric check draws its points from these seeds: an
            # exhausted sampler, most likely at the largest n, stops the
            # run before any check has run
            for n in range(args.n, 1, -1):
                generic_points(n, args.trials, args.seed)
        # every check at n = 2..N, "n/a" where it does not apply
        results = []
        for n in range(2, args.n + 1):
            checks = {}
            for name in CHECKS:
                try:
                    checks[name] = run(name, n)
                except NotApplicable:
                    checks[name] = "n/a"
            results.append({"n": n, "checks": checks})
        ok = all(passed(report) for row in results
                 for report in row["checks"].values() if report != "n/a")
        return ({"target": "all", "results": results, "all_passed": ok},
                EXIT_OK if ok else EXIT_FAILURE)
    try:
        report = run(args.target, args.n)
    except NotApplicable as exc:
        raise UsageError(str(exc))
    return report, EXIT_OK if passed(report) else EXIT_FAILURE


def cmd_independence(args) -> tuple:
    if args.n < 3:
        raise UsageError("the independence suite starts at --n 3")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    summary = run_independence_suite(args.n, seed=args.seed,
                                     jacobian_points=args.trials)
    code = EXIT_OK if summary["all_independent"] else EXIT_FAILURE
    return summary, code


def _render_text(payload: dict) -> str:
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {v}")
        else:
            lines.append(f"{pad}{obj}")
    walk(payload)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its codes
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.budget is not None and not 0 <= args.budget < math.inf:
            raise UsageError("--budget must be a finite number of seconds, "
                             "at least 0")
        if args.command == "dr-series":
            payload, code = cmd_dr_series(args)
        elif args.command == "verify":
            payload, code = cmd_verify(args)
        else:
            payload, code = cmd_independence(args)
    except (UsageError, AssignmentBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = {k: v for k, v in sorted(vars(args).items()) if k != "forms"}
    payload = {"version": __version__, "config": config, **payload}
    elapsed = time.perf_counter() - started
    if args.budget is not None and elapsed > args.budget:
        print(f"warning: took {elapsed:.3f} s, over the --budget of "
              f"{args.budget} s", file=sys.stderr)
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = _render_text(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out file: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout (``| head``): point it at devnull so
            # that the interpreter's last flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
