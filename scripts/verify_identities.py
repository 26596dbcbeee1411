#!/usr/bin/env python3
"""Run every identity check of drbracket.verify and print a summary table.

One row per n, one column per check: "ok" when the check made at least
one trial and found no failure, "FAIL" otherwise, and "n/a" when the check
does not apply at that n.  Exits 0 when every applicable cell is "ok".

    python3 scripts/verify_identities.py --n-max 6 --trials 50
"""

import argparse
import sys
import time

from drbracket.verify import CHECKS, NotApplicable, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.n_min < 2:
        parser.error("--n-min must be at least 2")
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    print(f"{'n':>3}  " + "  ".join(f"{name:>10}" for name in CHECKS)
          + f"  {'seconds':>8}")
    all_ok = True
    for n in range(args.n_min, args.n_max + 1):
        started = time.perf_counter()
        row = []
        for check in CHECKS.values():
            try:
                report = check(n, args.trials, seed=args.seed)
            except NotApplicable:
                row.append("n/a")
                continue
            ok = passed(report)
            all_ok = all_ok and ok
            row.append("ok" if ok else "FAIL")
        elapsed = time.perf_counter() - started
        print(f"{n:>3}  " + "  ".join(f"{cell:>10}" for cell in row)
              + f"  {elapsed:>8.2f}")
    print("all checks passed" if all_ok else "FAILURES above")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
