#!/usr/bin/env python3
"""Turn untraced drbench result files into rows of a BENCH_<label>.json file.

    python3 scripts/bench_row.py --label LABEL [RESULT.json ...]

Each result file is one ``drbench/run.py --trace 0`` run, as written to
``.bench_out/<workload>-seed<seed>-trace0.json``; with no files given, those
in ``.bench_out/`` are read. Runs of the same source, workload, seed and
machine form one row, which holds the commit, seed, nproc, CPU and Python of
the runs, how many runs there were and how many were correct, and the median
and the first and third quartiles (q1, q3) of each end-to-end metric with its
unit. The rows are written, sorted, to ``BENCH_<label>.json`` at the root of
the checkout (or to ``--out``). Measure a parent and a change by passing the
result files of both: a median difference smaller than the parent's q3 - q1
is not resolved by the runs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a row's identity: the runs it takes the medians of agree on all of these
KEY = ("workload", "seed", "commit", "source_sha256", "nproc", "cpu", "python")


class NotARow(ValueError):
    """A file that is not an untraced drbench result."""


def load_run(path: Path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    try:
        prov, result = data["provenance"], data["result"]
        traced = prov["traced_passes"]
        metrics = {name: (m["value"], m["unit"])
                   for name, m in result["metrics"].items()}
        key = tuple(prov[k] for k in KEY)
        correct = result["correct"]
    except (KeyError, TypeError) as exc:
        raise NotARow(f"{path}: not a drbench result file ({exc})")
    if traced:
        raise NotARow(f"{path}: a --trace 1 run; rows take untraced runs only")
    return {"key": key, "metrics": metrics, "correct": correct}


def summary(values: list, unit: str) -> dict:
    """Median and quartiles of one metric over a row's runs. The quartiles
    interpolate between the sorted values (statistics.quantiles with the
    inclusive method), so they lie within the runs' range; one run gives
    q1 = median = q3."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "unit": unit}


def rows(runs) -> list:
    groups = {}
    for run in runs:
        groups.setdefault(run["key"], []).append(run)
    out = []
    for key, group in sorted(groups.items(), key=lambda kv: [str(v) for v in kv[0]]):
        names = group[0]["metrics"]
        if any(r["metrics"].keys() != names.keys() for r in group):
            raise NotARow(f"runs of {key[0]} at {key[2]} report different metrics")
        row = dict(zip(KEY, key))
        row["runs"] = len(group)
        row["correct_runs"] = sum(bool(r["correct"]) for r in group)
        row["metrics"] = {
            name: summary([r["metrics"][name][0] for r in group], unit)
            for name, (_, unit) in names.items()}
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: BENCH_<label>.json at the root)")
    parser.add_argument("files", nargs="*", type=Path)
    args = parser.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error("--label takes letters, digits, '-' and '_' only")
    files = args.files or sorted((ROOT / ".bench_out").glob("*-trace0.json"))
    if not files:
        parser.error("no result files given and none in .bench_out/")
    try:
        table = rows(load_run(path) for path in files)
    except (OSError, json.JSONDecodeError, NotARow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    with open(out, "w") as fh:
        json.dump({"label": args.label, "rows": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
