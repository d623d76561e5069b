"""Pure statistics for the serving benchmark: percentiles, the tail
rule, span self time and the derived per-layer figures.

Nothing here touches the program under test, so every function is
unit-tested on hand-made numbers (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail metric may be fixed at, lowest first: the usual
#: latency percentiles.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile leaving at least
    :data:`TAIL_MIN_BEYOND` samples beyond it, for a sample of size
    ``samples``.  Below 20 samples no percentile above the median
    qualifies, and the median is returned: the tail then equals the
    median and says nothing more."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if samples * (100.0 - p) >= TAIL_MIN_BEYOND * 100.0 - 1e-6:
            best = p
    return best


def tail(values: Sequence[float], p: float) -> float:
    """The tail metric at percentile ``p``: the median when ``p`` is 50
    (too few samples for anything higher), else the percentile."""
    return median(values) if p <= 50.0 else percentile(values, p)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for a, b in clipped:
        if cur_start is None or a > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` holds ``(name, start, end, parent)`` tuples, ``parent``
    being the index of the parent span or ``-1`` for a root."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, ()), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def unaccounted(e2e_p50: float, layer_p50s: Iterable[float]) -> float:
    """Client-visible median minus the sum of the traced layer medians
    for the same requests: what the socket, dispatch, executor hop and
    interpreter-lock wait cost, seen from outside."""
    return e2e_p50 - sum(layer_p50s)


def hop(door_p50: float, direct_p50: float) -> float:
    """What one front-door hop adds to a read, taken from two medians
    of the same run."""
    return door_p50 - direct_p50


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``), the benchmark's
    run-to-run steadiness figure."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
