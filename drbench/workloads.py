"""Request lists of the four benchmark workloads.

A workload is a closed loop with one client: the requests of a pass run back
to back in one thread of one process. A request is one call of a user-facing
entry point of drbracket (``verify_theorem1``, ``jacobian_rank``,
``dr_series``, ``drbracket.cli.main``, ...). Its inputs are generated here
from the workload seed; the library receives only those inputs.

Each request class has latencies close to each other, and the mix of every
workload is chosen so that the 50th and 90th percentiles of a pass fall inside
one class rather than on the step between two sizes. Every pass has at least
100 requests, so at least ten lie beyond the 90th percentile.

Requests look their entry point up in the library module at call time, so the
traced run sees the wrapped bindings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List


class CheckFailed(Exception):
    """A request's output is wrong."""


@dataclass
class Request:
    kind: str                    # request class, e.g. "theorem1 n=7"
    params: dict                 # JSON description of the generated inputs
    run: Callable[[], object]    # the timed call
    check: Callable[[object], str]  # output -> digest text; raises CheckFailed


def workload_rng(seed: int, workload: str) -> random.Random:
    """Generator of one workload's inputs, stable across interpreters."""
    h = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


# --------------------------------------------------------------- theorem1-int
# Randomized Theorem 1 on integer generic assignments. The Fraction Bareiss
# determinant in binforms and BracketPolynomial.evaluate dominate; laurent,
# independence and symbolic MultiPoly are bypassed.
# p50 falls in the n=6 class (ranks 35..65), p90 in the n=8 class (85..100).
THEOREM1_MIX = ((5, 35), (6, 30), (7, 20), (8, 15))


def _check_theorem1(report) -> str:
    _require(report["failures"] == [], f"identity failures: {report['failures'][:1]}")
    _require(report["trials"] >= 1, "no trials checked")
    return _canonical(report)


def theorem1_int(m, seed: int) -> List[Request]:
    rng = workload_rng(seed, "theorem1-int")
    reqs = []
    for n, count in THEOREM1_MIX:
        for _ in range(count):
            s = rng.getrandbits(32)
            reqs.append(Request(
                f"theorem1 n={n}", {"n": n, "trials": 1, "seed": s},
                lambda n=n, s=s: m.brackets.verify_theorem1(n, trials=1, seed=s),
                _check_theorem1))
    rng.shuffle(reqs)
    return reqs


# --------------------------------------------------------------- certificates
# The independence pipeline through the library: the only workload where
# binforms runs on DualScalar entries and where laurent and independence do
# real work. Bracket-sum evaluation is bypassed.
# p50 falls in the n=5 Laurent-evaluation class, p90 in the class of
# one-point Jacobians at n=4 and the direct n=5, r=5 expansion.
JACOBIAN_MIX = ((3, 5), (4, 13), (5, 2), (6, 1))
RANK_NS = range(3, 13)
RANK_REPEATS = 2
DOMINANCE_CASES = ((4, (0, 2, 3, 4)), (5, (0, 2, 3, 4, 5)))
# n=5, r=2..4 take 0.7-1.7 s each; they are left out so a pass stays short.
LEADING_CASES = ((4, (0, 2, 3, 4)), (5, (0, 5)))
LAURENT_EVAL_MIX = ((3, 5), (4, 5), (5, 35), (6, 5))
LAURENT_POINTS = 4


def _jacobian_request(m, n: int, s: int) -> Request:
    def check(res) -> str:
        expected = len(m.laurent.dr_rows(n))
        _require(res["points"] == 1, f"{res['points']} points accepted")
        _require(res["expected_rank"] == expected, "wrong expected rank")
        _require(res["max_rank"] == expected,
                 f"Jacobian rank {res['max_rank']} < {expected}")
        return _canonical(res)
    return Request(f"jacobian n={n}", {"n": n, "points": 1, "seed": s},
                   lambda: m.independence.jacobian_rank(n, points=1, seed=s),
                   check)


def _rank_request(m, n: int) -> Request:
    method = "direct" if n == 3 else "closed_form"

    def run():
        P = m.laurent.degree_matrix_P(n, method)
        rank, trail = m.independence.integer_matrix_rank(P.matrix())
        monos = [m.laurent.LaurentMonomial.from_dict(
            {v: d for v, d in zip(P.columns, degrees) if d})
            for _, degrees in P.rows]
        cert = m.independence.multiplicative_independence(monos, P.columns)
        return P, rank, trail, cert

    def check(out) -> str:
        P, rank, trail, cert = out
        _require(rank == len(P.rows) == n, f"degree matrix rank {rank} < {n}")
        _require(cert.verdict == "independent" and cert.rank == n,
                 f"certificate verdict {cert.verdict}")
        return _canonical({"P": P.to_json(), "rank": rank,
                           "trail": [list(t) for t in trail],
                           "certificate": cert.to_json()})
    return Request(f"rank n={n}", {"n": n, "method": method}, run, check)


def _dominance_request(m, n: int, r: int) -> Request:
    def check(res) -> str:
        _require(res["dominant"] is True, f"I=[r] term not dominant at n={n}, r={r}")
        return _canonical(res)
    return Request(f"dominance n={n}", {"n": n, "r": r},
                   lambda: m.laurent.dominance_check(n, r), check)


def _leading_request(m, n: int, r: int) -> Request:
    def run():
        model = m.laurent.PolygonModel(n)
        p = m.laurent.laurent_expand_poly(model, m.brackets.dr_bracket_sum(n, r))
        return m.laurent.lex_leading_monomial(p, model), len(p.terms)

    def check(out) -> str:
        lm, terms = out
        _require(lm == m.laurent.lm_dr_closed_form(n, r),
                 f"leading monomial {lm} differs from the closed form")
        return _canonical({"lm": str(lm), "terms": terms})
    return Request(f"leading n={n} r={r}", {"n": n, "r": r}, run, check)


def _laurent_eval_request(m, n: int, seeds: List[int]) -> Request:
    def run():
        model = m.laurent.PolygonModel(n)
        defs = model.defining_brackets()
        syms = m.brackets.all_symbols(n)
        expansions = {(x, y): m.laurent.laurent_expand_bracket(model, x, y)
                      for x, y in itertools.combinations(syms, 2)}
        points = []
        for s in seeds:
            assignment = m.brackets.random_generic_assignment(n, s)
            values = {v: m.brackets.bracket_eval(a, b, assignment)
                      for v, (a, b) in defs.items()}
            points.append((assignment, {xy: lp.evaluate(values)
                                        for xy, lp in expansions.items()}))
        return model, expansions, points

    def check(out) -> str:
        model, expansions, points = out
        invertible = set(model.invertible_vars())
        for lp in expansions.values():
            for mono in lp.terms:
                _require(all(e >= 0 or v in invertible for v, e in mono.exponents),
                         f"illegal denominator in {mono}")
        digest = []
        for assignment, got in points:
            for (x, y), value in got.items():
                _require(value == m.brackets.bracket_eval(x, y, assignment),
                         f"Laurent value of [{x}, {y}] is wrong")
                digest.append(m.rationals.format_rational(value))
        return _canonical(digest)
    return Request(f"laurent-eval n={n}", {"n": n, "seeds": seeds}, run, check)


def certificates(m, seed: int) -> List[Request]:
    rng = workload_rng(seed, "certificates")
    reqs = []
    for n, count in JACOBIAN_MIX:
        reqs += [_jacobian_request(m, n, rng.getrandbits(32)) for _ in range(count)]
    reqs += [_rank_request(m, n) for n in RANK_NS for _ in range(RANK_REPEATS)]
    reqs += [_dominance_request(m, n, r) for n, rs in DOMINANCE_CASES for r in rs]
    reqs += [_leading_request(m, n, r) for n, rs in LEADING_CASES for r in rs]
    for n, count in LAURENT_EVAL_MIX:
        reqs += [_laurent_eval_request(
            m, n, [rng.getrandbits(32) for _ in range(LAURENT_POINTS)])
            for _ in range(count)]
    rng.shuffle(reqs)
    return reqs


# ------------------------------------------------------------------- symbolic
# MultiPoly-bound: symbolic series on generic forms and on forms where a
# subset of coefficients is replaced by seeded nonzero integers, plus
# symbolic Theorem 1 (n<=3) and symbolic r=1 vanishing (n<=4). Fully generic
# n=5 (about 98 s) and symbolic Theorem 1 at n=4 (about 84 s) would each
# outlast a run and are left out.
# Which coefficients are fixed matters far more to the cost than their
# values, so the subsets are spread evenly over all subsets of each size, the
# same for every seed; the seed draws the values.
# (n, fixed coefficients, count). p50 falls in the class of n=4 forms with
# 6-7 fixed coefficients (ranks 35..70), p90 in the n=4/k=5, n=5/k=9 class
# (ranks 70..96).
SERIES_MIX = ((3, 0, 3), (3, 1, 6), (3, 2, 6), (3, 3, 6), (3, 4, 6),
              (4, 7, 20), (4, 6, 13),
              (4, 5, 10), (5, 9, 13),
              (4, 0, 1), (4, 4, 1), (5, 8, 2))
SYMBOLIC_THEOREM1_MIX = ((2, 2), (3, 3))
VANISHING_MIX = ((2, 2), (3, 4), (4, 2))
COEFF_BOUND = 9


def _coefficient_names(n: int) -> List[str]:
    return [f"a{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n - 1)]


def _fixed_subsets(n: int, k: int, count: int) -> List[tuple]:
    subsets = list(itertools.combinations(_coefficient_names(n), k))
    return [subsets[(j * len(subsets) // count) if count <= len(subsets)
                    else j % len(subsets)] for j in range(count)]


def _series_request(m, n: int, subset: tuple, rng: random.Random) -> Request:
    MultiPoly = m.multipoly.MultiPoly
    names = _coefficient_names(n)
    k = len(subset)
    fixed = {v: _nonzero(rng, COEFF_BOUND) for v in subset}
    point = {v: _nonzero(rng, COEFF_BOUND) for v in names}
    coeffs = [MultiPoly.constant(fixed[v]) if v in fixed else MultiPoly.variable(v)
              for v in names]
    f_n = m.binforms.BinaryForm.from_coeffs(coeffs[:n + 1])
    f_m = m.binforms.BinaryForm.from_coeffs(coeffs[n + 1:])

    def check(series) -> str:
        _require(series.n == n and len(series.entries) == n + 1, "wrong length")
        _require(series.entries[1].is_zero, "entry r=1 is not identically zero")
        # spot check against the numeric path at a seeded point
        values = [Fraction(fixed.get(v, point[v])) for v in names]
        numeric = m.binforms.dr_series(
            m.binforms.BinaryForm.from_coeffs(values[:n + 1]),
            m.binforms.BinaryForm.from_coeffs(values[n + 1:]), mode="numeric")
        for r, (sym, num) in enumerate(zip(series.entries, numeric.entries)):
            _require(sym.evaluate(point) == num, f"entry r={r} disagrees at a point")
        return _canonical(series.to_json())
    return Request(f"series n={n} k={k}", {"n": n, "fixed": fixed, "point": point},
                   lambda: m.binforms.dr_series(f_n, f_m, mode="symbolic"), check)


def _symbolic_theorem1_request(m, n: int) -> Request:
    return Request(f"theorem1-symbolic n={n}", {"n": n},
                   lambda: m.brackets.verify_theorem1(n, mode="symbolic"),
                   _check_theorem1)


def _vanishing_request(m, n: int) -> Request:
    def check(poly) -> str:
        _require(poly.is_zero, f"r=1 bracket sum does not vanish at n={n}")
        return _canonical(poly.to_json())
    return Request(f"vanishing n={n}", {"n": n},
                   lambda: m.brackets.dr_bracket_sum(n, 1).expand_to_coordinates(),
                   check)


def symbolic(m, seed: int) -> List[Request]:
    rng = workload_rng(seed, "symbolic")
    reqs = []
    for n, k, count in SERIES_MIX:
        reqs += [_series_request(m, n, subset, rng)
                 for subset in _fixed_subsets(n, k, count)]
    for n, count in SYMBOLIC_THEOREM1_MIX:
        reqs += [_symbolic_theorem1_request(m, n) for _ in range(count)]
    for n, count in VANISHING_MIX:
        reqs += [_vanishing_request(m, n) for _ in range(count)]
    rng.shuffle(reqs)
    return reqs


# --------------------------------------------------------------- cli-rational
# In-process ``drbracket dr-series --mode numeric --forms <json> --format
# json`` with seeded p/q coefficients: the only workload with non-integer
# inputs and the only one through cli and rationals (parsing and rendering).
# p50 falls in the n=6 class (ranks 0..60), p90 in the n=8 class (80..95).
CLI_MIX = ((6, 60), (7, 20), (8, 15), (9, 2), (10, 1), (11, 1), (12, 1))
RATIONAL_BOUND = 99


def _rational(rng: random.Random) -> str:
    return f"{_nonzero(rng, RATIONAL_BOUND)}/{rng.randint(1, RATIONAL_BOUND)}"


def _cli_request(m, n: int, rng: random.Random) -> Request:
    forms = {"f_n": {"degree": n, "coefficients": [_rational(rng) for _ in range(n + 1)]},
             "f_m": {"degree": n - 2, "coefficients": [_rational(rng) for _ in range(n - 1)]}}
    argv = ["dr-series", "--n", str(n), "--mode", "numeric",
            "--forms", json.dumps(forms), "--format", "json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = m.cli.main(argv)
        return code, out.getvalue()

    def check(out) -> str:
        code, text = out
        _require(code == 0, f"exit code {code}")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from None
        entries = payload.get("entries", [])
        _require(payload.get("n") == n and len(entries) == n + 1, "wrong entry count")
        _require(entries[1]["value"] == "0", "entry r=1 is not zero")
        return text
    return Request(f"cli n={n}", {"argv": argv}, run, check)


def cli_rational(m, seed: int) -> List[Request]:
    rng = workload_rng(seed, "cli-rational")
    reqs = [_cli_request(m, n, rng) for n, count in CLI_MIX for _ in range(count)]
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "theorem1-int": theorem1_int,
    "certificates": certificates,
    "symbolic": symbolic,
    "cli-rational": cli_rational,
}
