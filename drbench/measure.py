"""Order statistics, digests and the CPU-speed calibration of the benchmark."""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from fractions import Fraction
from typing import Iterable, Sequence

MIN_BEYOND = 10
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the pct-th percentile."""
    return n - math.ceil(n * pct / 100)


def highest_percentile(n: int, candidates: Sequence[float] = CANDIDATE_PERCENTILES):
    """The highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None if even the lowest has fewer."""
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """pct-th percentile by linear interpolation between order statistics."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def digest(texts: Iterable[str]) -> str:
    """SHA-256 over the canonical output texts of a pass, in request order."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def calibration_work():
    """A fixed piece of pure-Python work like the library's own: a Fraction
    Bareiss elimination and a product of two dict-of-tuple polynomials. It
    lives here, not in drbracket, so no change to the library can move it."""
    n = 8
    a = [[Fraction((i * 7 + j * 3) % 11 + 5 * (i == j), 1 + (i + j) % 4) for j in range(n)]
         for i in range(n)]
    prev = Fraction(1)
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    p = {(i, j): i * 31 + j - 40 for i in range(7) for j in range(7)}
    q = {}
    for (i, j), c in p.items():
        for (k, l), d in p.items():
            q[i + k, j + l] = q.get((i + k, j + l), 0) + c * d
    return a[n - 1][n - 1], sum(q.values())


def calibration_ns() -> int:
    """Wall-clock time of one run of calibration_work, in ns."""
    t0 = time.perf_counter_ns()
    calibration_work()
    return time.perf_counter_ns() - t0


def scaled(latencies: Sequence[int], calibrations: Sequence[int], ref_ns: float,
           window: int = 2) -> list:
    """Each latency times ref_ns over the median of the calibrations taken
    near it: calibrations[i] and calibrations[i + 1] bracket latencies[i], and
    the window nearest ones on each side are used. A latency measured while
    the CPU ran at half speed and a calibration that took 2 * ref_ns reads as
    it would at full speed."""
    out = []
    for i, lat in enumerate(latencies):
        near = calibrations[max(0, i + 1 - window):i + 1 + window]
        out.append(lat * ref_ns / statistics.median(near))
    return out
