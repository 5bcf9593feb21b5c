"""Arithmetic the benchmark reports: host-speed scaling, medians,
spreads, percentiles, self times of nested spans, and failure
accounting.

Kept free of any simulator import so the tests in ``test_measure.py``
exercise it alone.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter, process_time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Percentiles the benchmark may report beside a median, highest last.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A percentile is shown only with at least this many samples beyond it.
MIN_BEYOND = 10

# One span: (name, start, end, parent index or -1).
Span = Tuple[str, float, float, int]

# The host's speed drifts by a quarter or more over tens of seconds on a
# shared machine, and the simulator slows with it.  A fixed pure-Python
# loop is timed right before and right after every timed repetition,
# and the repetition's seconds are scaled to a host on which the loop
# takes REFERENCE_S seconds (about its median on the 2-vCPU Xeon VM the
# benchmark was set up on).  The loop is not simulator code, so a
# change to the simulator moves the scaled figures as it moves the
# unscaled ones.
REFERENCE_ITERATIONS = 500_000
REFERENCE_S = 0.05


def reference() -> Tuple[float, float]:
    """Wall and CPU seconds of the fixed reference loop."""
    wall0, cpu0 = perf_counter(), process_time()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return perf_counter() - wall0, process_time() - cpu0


def host_scale(*reference_seconds: float) -> float:
    """Factor taking seconds measured beside these reference-loop
    times to seconds on the reference host."""
    return REFERENCE_S * len(reference_seconds) / sum(reference_seconds)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def percentile_rank(count: int, pct: float) -> int:
    """Zero-based nearest-rank index of the ``pct`` percentile of ``count``."""
    return max(0, math.ceil(pct / 100.0 * count) - 1)


def reportable_percentile(
    values: Sequence[float], candidates: Iterable[float] = PERCENTILES
) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` for the highest percentile with at least
    :data:`MIN_BEYOND` samples ranked beyond it, else ``None``."""
    ordered = sorted(values)
    best = None
    for pct in candidates:
        rank = percentile_rank(len(ordered), pct)
        if ordered and len(ordered) - (rank + 1) >= MIN_BEYOND:
            best = (pct, ordered[rank])
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, sample count, spread, the reportable percentile and the
    samples themselves."""
    found = reportable_percentile(values)
    return {
        "median": median(values),
        "n": len(values),
        "spread": spread(values),
        "percentile": None if found is None else {"pct": found[0],
                                                  "value": found[1]},
        "values": list(values),
    }


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """Per span name: ``(calls, self seconds)``.

    A span's self time is its duration minus the durations of its
    direct children; children never outlast their parent, since each
    span is a call made inside the parent's call.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, List[float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[index]
    return {name: (int(calls), own) for name, (calls, own) in totals.items()}


class Tally:
    """Runs or cells attempted and failed, with the reasons for failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def record(self, problems: Sequence[str]) -> None:
        """Count one run or cell; it failed when ``problems`` is
        non-empty, once however many checks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                self.reasons[problem] = self.reasons.get(problem, 0) + 1

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed_share
