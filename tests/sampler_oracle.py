"""The integer point sampler as first written, kept as an oracle for
drbracket.brackets.random_generic_assignment.

It draws each coordinate with Random.randint and tests a candidate with
every pairwise bracket, so it shares neither the sampler's getrandbits
draws nor its one-pass genericity test. Stdlib only: besides being
imported by the tests, it compares the two samplers on its own, which is
how it is run on interpreters that have no pytest:

    PYTHONPATH=src python tests/sampler_oracle.py [SEEDS]

It prints one line per n and exits 1 on the first disagreement.
"""

import itertools
import sys
from random import Random

from drbracket.brackets import (ASSIGNMENT_BOUND, ASSIGNMENT_BUDGET,
                                AssignmentBudgetError, all_symbols,
                                bracket_eval, derive_seed,
                                random_generic_assignment)

# n = 24 at seed 3 exhausts the budget
EXHAUSTED = (24, 3)


def pairwise_nonzero(vectors) -> bool:
    """Whether every two of the vectors have a nonzero bracket."""
    return all(u * y - x * v
               for (u, v), (x, y) in itertools.combinations(vectors, 2))


def randint_sampler(n: int, seed: int) -> dict:
    rng = Random(derive_seed(seed, "assignment"))
    symbols = all_symbols(n)
    bound = ASSIGNMENT_BOUND
    for _ in range(ASSIGNMENT_BUDGET):
        cand = {s: (rng.randint(-bound, bound), rng.randint(-bound, bound))
                for s in symbols}
        if any(u == 0 or v == 0 for s, (u, v) in cand.items() if s[0] == "a"):
            continue
        ok = True
        for s, t in itertools.combinations(symbols, 2):
            if bracket_eval(s, t, cand) == 0:
                ok = False
                break
        if ok:
            return cand
    raise AssignmentBudgetError(
        f"no generic assignment at n={n} among {ASSIGNMENT_BUDGET} candidates "
        f"with coordinates in [-{bound}, {bound}]; try another seed or a "
        f"smaller n")


def budget_message(sampler, n: int, seed: int) -> str:
    try:
        sampler(n, seed)
    except AssignmentBudgetError as exc:
        return str(exc)
    raise AssertionError(f"a generic point at n={n}, seed {seed}")


def first_difference(n: int, seeds) -> str:
    """The first seed at which the two samplers disagree, described, or
    '' when they agree at every one."""
    for seed in seeds:
        want = randint_sampler(n, seed)
        got = random_generic_assignment(n, seed)
        # same symbols in the same order, each with the same (u, v)
        if list(got.items()) != list(want.items()):
            return f"n={n} seed={seed}: {got} != {want}"
    return ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seeds = range(int(argv[0]) if argv else 200)
    for n in range(2, 17):
        difference = first_difference(n, seeds)
        if difference:
            print(difference)
            return 1
        print(f"n={n}: {len(seeds)} seeds identical")
    want = budget_message(randint_sampler, *EXHAUSTED)
    if budget_message(random_generic_assignment, *EXHAUSTED) != want:
        print(f"n={EXHAUSTED[0]} seed={EXHAUSTED[1]}: budget messages differ")
        return 1
    print(f"n={EXHAUSTED[0]} seed={EXHAUSTED[1]}: {want}")
    print(sys.version.split()[0], "ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
