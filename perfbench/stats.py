"""The benchmark's own arithmetic: medians, tails, self time, the compare rule.

Kept free of the program's imports so its tests run in milliseconds.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


#: A tail needs this many samples beyond it.
TAIL_BEYOND = 10
#: Below this many samples there is no tail: the median is reported.
TAIL_MIN_SAMPLES = 40


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten samples above it,
    or ``None`` when there are too few samples for a tail."""
    if n < TAIL_MIN_SAMPLES:
        return None
    # The p-th percentile (nearest rank) is sample ceil(p/100 * n);
    # n - rank samples lie beyond it.
    p = 99
    while p > 50 and n - math.ceil(p / 100 * n) < TAIL_BEYOND:
        p -= 1
    return p


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values) -> tuple[float, int | None]:
    """(value, percentile): the tail percentile's value, or the median
    with ``None`` when the sample is too small to have a tail."""
    values = list(values)
    if not values:
        return 0.0, None
    p = tail_percentile(len(values))
    if p is None:
        return median(values), None
    return percentile(values, p), p


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [(max(start, s), min(end, e)) for s, e in children if e > start and s < end]
    return (end - start) - covered(clipped)


@dataclass
class Comparison:
    metric: str
    parent: tuple[float, float, float]
    child: tuple[float, float, float]
    pairs: int
    won: int
    lost: int
    verdict: str


def compare(metric: str, parent, child, better: str = "lower", bound: float | None = None) -> Comparison:
    """Judge ``child`` against ``parent`` runs of one metric.

    A gain needs the child to win at least nine tenths of the pairs
    (run i of each side, ties counting for neither) and a median gap
    wider than the parent's own interquartile distance.  A loss is the
    mirror image.  Otherwise, with a bound, the child's median reads
    "within bound" or "worse than bound" of the parent's; without one,
    "unresolved".
    """
    parent, child = list(parent), list(child)
    sign = 1.0 if better == "lower" else -1.0
    pairs = min(len(parent), len(child))
    won = sum(1 for p, c in zip(parent, child) if sign * (p - c) > 0)
    lost = sum(1 for p, c in zip(parent, child) if sign * (c - p) > 0)
    pq, cq = quartiles(parent), quartiles(child)
    gap = sign * (pq[1] - cq[1])
    iqr = pq[2] - pq[0]
    need = math.ceil(0.9 * pairs)
    if pairs and won >= need and gap > iqr:
        verdict = "gain"
    elif pairs and lost >= need and -gap > iqr:
        verdict = "loss"
    elif bound is not None and pq[1]:
        worse = -gap / abs(pq[1])
        verdict = "within bound" if worse <= bound else "worse than bound"
    else:
        verdict = "unresolved"
    return Comparison(metric, pq, cq, pairs, won, lost, verdict)
