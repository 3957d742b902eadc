"""Order statistics shared by the benchmark's parent and child processes.

Kept free of any ``repro`` import so the orchestrating parent stays a
few milliseconds to start and never warms the program's caches.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; a tail read from fewer samples is one outlier's value.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks -- the ``inclusive`` method of
    :func:`statistics.quantiles`."""
    ordered: List[float] = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th
    percentile's rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def percentile_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples are enough to report the ``q``-th
    percentile: at least :data:`MIN_SAMPLES_BEYOND` of them beyond it."""
    return n > 0 and samples_beyond(n, q) >= MIN_SAMPLES_BEYOND


def self_time(
    start: float, end: float, children: Iterable[Sequence[float]]
) -> float:
    """A span's duration minus the part of ``[start, end]`` that its
    child intervals cover (overlapping children are counted once)."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(
        (max(s, start), min(e, end)) for s, e in children
    ):
        if child_end <= cursor:
            continue
        covered += child_end - max(child_start, cursor)
        cursor = child_end
    return (end - start) - covered

