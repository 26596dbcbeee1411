"""The library's identity checks, one implementation each.

Every check has the signature ``check(n, trials, seed=0, mode="numeric")``
and returns a JSON-ready report that echoes ``n`` and ``mode``, whose
``trials`` is the number of checks actually made and whose ``failures``
lists the witnesses of each failed one.  A check that discards degenerate
samples also reports them as ``skipped``.  A numeric check draws each point
once (``generic_points``); symbolic mode is the one ``coordinate_point``.
A report counts as a pass only under ``passed``: at least one check made
and no failure.  Checks that do not apply at the given n or mode raise
``NotApplicable``; a mode other than ``numeric`` or ``symbolic`` and a
negative ``trials`` raise a plain ``ValueError`` in every check.
"""

from __future__ import annotations

import itertools
from random import Random

from .binforms import dr_series, sl2_transform
from .brackets import (all_symbols, bracket_eval, check_mode_and_trials,
                       coordinate_point, derive_seed, dr_bracket_sum,
                       forms_from_assignment, generic_points,
                       plucker_relation, symbol_name, verify_theorem1)
from .laurent import PolygonModel, laurent_expand_bracket, var_name


class NotApplicable(ValueError):
    """The check has nothing to verify at this n or in this mode."""


def passed(report: dict) -> bool:
    return report["trials"] >= 1 and not report["failures"]


def theorem1(n: int, trials: int, seed: int = 0, mode: str = "numeric") -> dict:
    """Bracket-sum expression = resultant-based series (verify_theorem1)."""
    return {"target": "theorem1",
            **verify_theorem1(n, trials=trials, seed=seed, mode=mode)}


def vanishing(n: int, trials: int, seed: int = 0, mode: str = "numeric") -> dict:
    """DR_{n,1} = 0: at the coordinate point in symbolic mode or for n <= 4,
    otherwise at `trials` random generic points."""
    check_mode_and_trials(mode, trials)
    if mode == "symbolic" or n <= 4:
        mode, points = "symbolic", [coordinate_point(all_symbols(n))]
    else:
        points = generic_points(n, trials, seed)
    poly = dr_bracket_sum(n, 1)
    failures = []
    for trial, point in enumerate(points):
        if poly.evaluate(point) != 0:
            failures.append({"kind": "symbolic", "n": n} if mode == "symbolic"
                            else {"trial": trial})
    return {"target": "vanishing", "n": n, "mode": mode, "trials": len(points),
            "failures": failures}


def plucker(n: int, trials: int, seed: int = 0, mode: str = "numeric") -> dict:
    """The Pluecker relation on four of the symbols of n, drawn per trial,
    at random integer points."""
    check_mode_and_trials(mode, trials)
    if mode != "numeric" or n < 3:
        raise NotApplicable("plucker is checked in numeric mode, for n >= 3")
    rng = Random(derive_seed(seed, "plucker"))
    failures = []
    for trial in range(trials):
        syms = rng.sample(all_symbols(n), 4)
        assignment = {s: (rng.randint(-50, 50), rng.randint(-50, 50))
                      for s in syms}
        if plucker_relation(*syms).evaluate(assignment) != 0:
            failures.append({"trial": trial,
                             "symbols": [symbol_name(s) for s in syms]})
    return {"target": "plucker", "n": n, "mode": mode, "trials": trials,
            "failures": failures}


def invariance(n: int, trials: int, seed: int = 0, mode: str = "numeric") -> dict:
    """DR(g.f_n, g.f_{n-2}) = DR(f_n, f_{n-2}) for g = (1 + bc, b, c, 1).

    A g whose transformed f_n has a_0 * a_n = 0 is skipped and only g is
    redrawn, at most 50 * trials draws in all, as jacobian_rank does.
    """
    check_mode_and_trials(mode, trials)
    if mode != "numeric":
        raise NotApplicable("invariance is checked in numeric mode only")
    points = generic_points(n, trials, seed)
    rng = Random(derive_seed(seed, "invariance"))
    failures = []
    checked = skipped = 0
    while checked < trials and checked + skipped < 50 * trials:
        f_n, f_m = forms_from_assignment(points[checked], n)
        b, c = rng.randint(-3, 3), rng.randint(-3, 3)
        g = (1 + b * c, b, c, 1)
        moved = sl2_transform(f_n, g)
        if moved.coefficients[0] == 0 or moved.coefficients[-1] == 0:
            skipped += 1
            continue
        if (dr_series(moved, sl2_transform(f_m, g)).entries
                != dr_series(f_n, f_m).entries):
            failures.append({"trial": checked, "g": list(g)})
        checked += 1
    return {"target": "invariance", "n": n, "mode": mode, "trials": checked,
            "skipped": skipped, "failures": failures}


def laurent(n: int, trials: int, seed: int = 0, mode: str = "numeric") -> dict:
    """Every bracket's polygon Laurent expansion inverts only the invertible
    diagonals, and re-evaluates to the bracket at `trials` random points."""
    check_mode_and_trials(mode, trials)
    if mode != "numeric" or n < 3:
        raise NotApplicable("laurent is checked in numeric mode, for n >= 3")
    points = generic_points(n, trials, seed)
    model = PolygonModel(n)
    defs = model.defining_brackets()
    inv = set(model.invertible_vars())
    expansions = {(x, y): laurent_expand_bracket(model, x, y)
                  for x, y in itertools.combinations(all_symbols(n), 2)}
    failures = []
    for (x, y), lp in expansions.items():
        for mono in lp.terms:
            for v, e in mono.exponents:
                if e < 0 and v not in inv:
                    failures.append({"kind": "denominator",
                                     "bracket": [symbol_name(x), symbol_name(y)],
                                     "variable": var_name(v)})
    for trial, assignment in enumerate(points):
        values = {v: bracket_eval(s, t, assignment)
                  for v, (s, t) in defs.items()}
        for (x, y), lp in expansions.items():
            if lp.evaluate(values) != bracket_eval(x, y, assignment):
                failures.append({"kind": "evaluation", "trial": trial,
                                 "bracket": [symbol_name(x), symbol_name(y)]})
    return {"target": "laurent", "n": n, "mode": mode, "trials": trials,
            "failures": failures}


CHECKS = {"theorem1": theorem1, "vanishing": vanishing, "plucker": plucker,
          "invariance": invariance, "laurent": laurent}
