"""Spans around the public functions of each drbracket module, recorded from
the benchmark's own files.

A span is (name, start, end, parent, request). Spans stay in memory in a flat
integer array and are written out when the benchmark ends. A function is
wrapped once and the wrapper replaces every binding a caller can look up: each
attribute of the package or one of its modules that holds the function (``dr_series`` is
bound in binforms, brackets, independence, cli and the package) and every name
of a class that holds the method (``__mul__`` and ``__rmul__``).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Dict, List, Sequence, Tuple

# (span name, module, attribute, workload on which it must record calls)
SPANS = (
    ("cli.main", "cli", "main", "cli-rational"),
    ("rationals.parse", "rationals", "parse_rational", "cli-rational"),
    ("rationals.format", "rationals", "format_rational", "cli-rational"),
    ("rationals.dual_mul", "rationals", "DualScalar.__mul__", "certificates"),
    ("binforms.dr_series", "binforms", "dr_series", "theorem1-int"),
    ("binforms.det", "binforms", "det_fraction_free", "theorem1-int"),
    ("multipoly.interpolate", "multipoly", "interpolate_in_t", "symbolic"),
    ("multipoly.mul", "multipoly", "MultiPoly.__mul__", "symbolic"),
    ("multipoly.exact_div", "multipoly", "MultiPoly.exact_div", "symbolic"),
    ("brackets.evaluate", "brackets", "BracketPolynomial.evaluate", "theorem1-int"),
    ("brackets.bracket_sum", "brackets", "dr_bracket_sum", "theorem1-int"),
    ("brackets.assignment", "brackets", "random_generic_assignment", "theorem1-int"),
    ("brackets.expand", "brackets", "BracketPolynomial.expand_to_coordinates",
     "symbolic"),
    ("laurent.expand_poly", "laurent", "laurent_expand_poly", "certificates"),
    ("laurent.expand_bracket", "laurent", "laurent_expand_bracket", "certificates"),
    ("laurent.leading", "laurent", "lex_leading_monomial", "certificates"),
    ("laurent.dominance", "laurent", "dominance_check", "certificates"),
    ("laurent.evaluate", "laurent", "LaurentPoly.evaluate", "certificates"),
    ("independence.jacobian", "independence", "jacobian_rank", "certificates"),
    ("independence.rank", "independence", "integer_matrix_rank", "certificates"),
    ("independence.mult_indep", "independence", "multiplicative_independence",
     "certificates"),
)
REQUEST = "request"

# Counters taken at span boundaries: span name -> (counter, f(args, result)).
COUNTERS = {
    "binforms.det": ("binforms.det.order3", lambda m, a, r: len(a[0]) ** 3),
    "brackets.evaluate": ("brackets.evaluate.terms", lambda m, a, r: len(a[0])),
    "laurent.expand_poly": ("laurent.expand_poly.terms", lambda m, a, r: len(r.terms)),
    "binforms.dr_series": ("multipoly.result_terms", lambda m, a, r: sum(
        len(e.terms) for e in r.entries if isinstance(e, m.multipoly.MultiPoly))),
    # accepted points times the 2n directions each needs
    "independence.jacobian": ("independence.jacobian.useful",
                              lambda m, a, r: 2 * r["n"] * r["points"]),
}
COUNTER_NAMES = ("binforms.det.order3", "brackets.evaluate.terms",
                 "laurent.expand_poly.terms", "multipoly.result_terms")

FIELDS = 5  # name, start_ns, end_ns, parent, request


def metric_names() -> List[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for span, *_ in SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += list(COUNTER_NAMES)
    names += ["independence.jacobian.useful_ratio",
              "independence.jacobian.dr_series_calls", "trace.overhead_frac"]
    return names


def self_times(spans: Sequence[Tuple[int, int, int, int]]) -> Dict[int, int]:
    """Self time per span name: each span's duration minus the durations of
    its direct children. Works for nested and re-entrant spans alike, since
    children are attributed to their parent by index, not by name."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[int, int] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start - child[i])
    return out


class Tracer:
    """Wraps the functions named in ``specs`` and records their spans."""

    def __init__(self, mods, specs=SPANS):
        self.mods = mods
        self.specs = specs
        self.names = [s[0] for s in specs] + [REQUEST]
        self.spans = array("q")
        self.counts: Dict[str, int] = {}
        self.stack = [-1]
        self.request = -1
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, idx: int, fn, counter):
        spans, stack, clock, mods = self.spans, self.stack, time.perf_counter_ns, self.mods

        def wrapper(*args, **kwargs):
            i = len(spans) // FIELDS
            spans.extend((idx, clock(), 0, stack[-1], self.request))
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i * FIELDS + 2] = clock()
                stack.pop()
            if counter is not None:
                name, f = counter
                self.counts[name] = self.counts.get(name, 0) + f(mods, args, result)
            return result
        functools.update_wrapper(wrapper, fn)
        return wrapper

    def call(self, request_id: int, fn):
        """Run one request under a root span."""
        self.request = request_id
        try:
            return self._wrap(len(self.names) - 1, fn, None)()
        finally:
            self.request = -1

    # -- patching ------------------------------------------------------------
    def patch(self) -> None:
        modules = list(vars(self.mods).values())
        for idx, (name, modname, attr, _) in enumerate(self.specs):
            owner = getattr(self.mods, modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(idx, original, COUNTERS.get(name))
            holders = [owner] if path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def unpatch(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------
    def span_tuples(self, first: int = 0) -> List[Tuple[int, int, int, int]]:
        """(name, start, end, parent) of spans ``first`` onwards, with parents
        renumbered relative to ``first``."""
        a = self.spans
        return [(a[i], a[i + 1], a[i + 2], a[i + 3] - first if a[i + 3] >= 0 else -1)
                for i in range(first * FIELDS, len(a), FIELDS)]

    def span_count(self) -> int:
        return len(self.spans) // FIELDS

    def layer_metrics(self, first: int = 0) -> dict:
        """Per-layer metrics of the spans recorded since span ``first`` and
        of the counters taken since ``counts`` was last reset."""
        spans = self.span_tuples(first)
        counts = self.counts
        selfs = self_times(spans)
        calls = [0] * len(self.names)
        for name, *_ in spans:
            calls[name] += 1
        out = {}
        for idx, (name, *_) in enumerate(self.specs):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = selfs.get(idx, 0) / 1e9
        for name in COUNTER_NAMES:
            out[name] = counts.get(name, 0)
        jac = self.names.index("independence.jacobian")
        dr = self.names.index("binforms.dr_series")
        inside = sum(1 for s in spans if s[0] == dr and _has_ancestor(spans, s, jac))
        out["independence.jacobian.dr_series_calls"] = inside
        useful = counts.get("independence.jacobian.useful", 0)
        out["independence.jacobian.useful_ratio"] = useful / inside if inside else 0.0
        return out

    def write(self, path) -> None:
        """Write every span recorded as JSON: ``spans`` is the flat list of
        FIELDS integers per span, written in chunks to keep memory flat."""
        head = json.dumps({"names": self.names,
                           "fields": ["name", "start_ns", "end_ns", "parent", "request"]})
        with open(path, "w") as fh:
            fh.write(head[:-1] + ', "spans": [')
            step = 10000 * FIELDS
            for i in range(0, len(self.spans), step):
                fh.write(("," if i else "") + ",".join(map(str, self.spans[i:i + step])))
            fh.write("]}\n")


def _has_ancestor(spans, span, name: int) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def coverage_gaps(metrics: dict, workload: str) -> List[str]:
    """Span names that recorded no call on the workload they are heavy on."""
    return [name for name, _, _, heavy in SPANS
            if heavy == workload and metrics[f"{name}.calls"] == 0]
