"""Host-speed calibration: a fixed kernel timed next to the work.

The benchmark shares a few cores of a host with other load, and that
load changes how fast those cores run -- by a third or more, in
episodes of a fraction of a second to minutes, and in the process's own
CPU time as much as in wall time.  An operation that happened to run
during such an episode is slow for reasons that have nothing to do with
the program.

So a pass times this kernel at its edges and, between operations, every
:data:`INTERVAL_S` of host time: a :class:`Calibrator` cuts the pass
into segments with a kernel time at each cut.  The kernel is fixed code
of the benchmark's own, a mix of interpreted Python and NumPy array work
like the simulator's.  A segment's host speed is :data:`REFERENCE_S`
over the mean kernel time at its two ends, and every host time inside
the segment is multiplied by that speed: it becomes seconds at the
reference speed.  A change to the program moves those seconds; a busy
neighbour slows the kernel and the program alike and leaves them be.
The kernel's own time is left out of every timing, and the raw host
times are printed next to the rescaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

import numpy

#: A typical time of one :func:`kernel` call on the machine the benchmark
#: was defined on (Intel Xeon, 2 vCPUs, CPython 3.11, NumPy 2.4), where it
#: read 2.2-3.6 ms as other load came and went.  Only a scale: it turns
#: speeds into seconds.
REFERENCE_S = 0.0030

#: Kernel calls per calibration block at either edge of a pass.
SAMPLES = 10

#: Least host time between two kernel calls inside a pass.
INTERVAL_S = 0.1

_RNG = numpy.random.default_rng(20240611)
_VALUES = _RNG.random(60_000)
_BINS = _RNG.integers(0, 8192, 60_000)
# Preallocated outputs: the kernel allocates no large block, so its speed
# does not depend on the heap the program left behind (a freed large
# array moves glibc's mmap threshold, and a fresh mapping faults its
# pages in on every call).
_ORDERED = numpy.empty_like(_VALUES)
_RUNNING = numpy.empty_like(_VALUES)


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    total = 0
    table = {}
    for i in range(12_000):
        total += i * i
        table[i & 511] = total
    _ORDERED[:] = _VALUES
    _ORDERED.sort()
    numpy.cumsum(_ORDERED, out=_RUNNING)
    counts = numpy.bincount(_BINS, minlength=8192)
    found = numpy.searchsorted(_ORDERED, _RUNNING[:4000] / _RUNNING[-1])
    return float(total % 7) + float(counts[7]) + float(found.sum())


def block(samples: int = SAMPLES) -> List[float]:
    """Time ``samples`` kernel calls, in seconds each."""
    times = []
    clock = time.perf_counter
    for _ in range(samples):
        start = clock()
        kernel()
        times.append(clock() - start)
    return times


class Calibrator:
    """Cuts one pass into segments, with a kernel time at every cut.

    :meth:`begin` and :meth:`end` run a :func:`block` at the pass's
    edges; :meth:`mark`, called between two operations, runs the kernel
    once when :attr:`interval_s` has passed since the last cut (never,
    when it is ``None``: a traced pass keeps its spans free of kernel
    time and is calibrated at its edges only).
    """

    def __init__(self, interval_s: Optional[float] = INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: Kernel time at each cut, seconds; one more than the segments.
        self.kernel_s: List[float] = []
        #: Host time of each segment, kernel time excluded.
        self.segments_s: List[float] = []
        self._clock = time.perf_counter
        self._start = 0.0

    def begin(self) -> None:
        self.kernel_s.append(statistics.median(block()))
        self._start = self._clock()

    def mark(self) -> bool:
        """At an operation boundary: cut here if a cut is due.  Returns
        whether the kernel ran (its time then belongs to no segment)."""
        if self.interval_s is None:
            return False
        now = self._clock()
        if now - self._start < self.interval_s:
            return False
        self.segments_s.append(now - self._start)
        self.kernel_s.append(block(1)[0])
        self._start = self._clock()
        return True

    @property
    def segment(self) -> int:
        """Index of the segment now running."""
        return len(self.segments_s)

    def end(self) -> None:
        self.segments_s.append(self._clock() - self._start)
        self.kernel_s.append(statistics.median(block()))

    def speeds(self) -> List[float]:
        """Host speed of each segment against the reference."""
        return [
            2.0 * REFERENCE_S / (before + after)
            for before, after in zip(self.kernel_s, self.kernel_s[1:])
        ]
