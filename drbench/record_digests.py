"""Record the output digest of one pass per workload and seed.

    python3 drbench/record_digests.py [WORKLOAD ...] 0-39 2211

With no workload named, every workload is recorded. Run from the root of a
checkout at the commit whose outputs are the reference; the digests are merged
into drbench/digests.json. A pass with any failed request is not recorded.
"""

import json
import sys

import run


def parse_seeds(args):
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv) -> int:
    chosen = [a for a in argv if a in run.WORKLOADS] or sorted(run.WORKLOADS)
    seeds = parse_seeds(a for a in argv if a not in run.WORKLOADS)
    try:
        with open(run.DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for workload in chosen:
        for seed in seeds:
            _, reqs = run.set_up(workload, seed)
            failures, dig = run.check_pass(reqs, run.run_pass(reqs)[1])
            if failures:
                print(f"{workload} seed {seed}: {failures}", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = dig
            print(workload, seed, dig, flush=True)
            with open(run.DIGESTS, "w") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
