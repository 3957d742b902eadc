"""The front half of the pipeline, generated once per process.

A frame's traffic -- the Fig. 2 state machine's output -- is a pure
function of the workload, the level, the simulation scale and the
read/write block size.  It does not depend on the channel count or the
clock the figures sweep, so every point of a grid that shares those
four inputs shares one frame.  :func:`build_frame` is the one copy of
the front half (instantiate the workload, :func:`choose_scale`,
:meth:`VideoRecordingLoadModel.generate_frame`); :func:`frame_for`
memoises its result in a bounded, thread-safe LRU of
:data:`FRAME_MEMO_SIZE` frames.

The memo key is ``(BoundWorkload, H264Level, scale, chunk_budget,
block_bytes)``: the canonical-key fields of a sweep point minus the
system configuration.  Both objects are frozen values compared by
content, so a re-registered spec with a different structure, or a
different parameter binding, misses.  The stored frame is a tuple of
frozen :class:`~repro.controller.request.MasterTransaction`\\ s, so no
consumer can change a frame another consumer shares.

The memo lives per process, not per grid: the feasibility oracle's
exact and analytic tiers simulate one point per call, and pool
workers, the explorer and the sensitivity analysis reuse frames with
no plumbing.  Inspect it with :func:`frame_memo_stats`, drop it with
:func:`clear_frame_memo`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.controller.request import MasterTransaction
from repro.load.model import DEFAULT_BLOCK_BYTES, VideoRecordingLoadModel
from repro.load.scaling import DEFAULT_CHUNK_BUDGET, choose_scale
from repro.lru import LockedLRU
from repro.telemetry.profile import NULL_PROFILER

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.telemetry.session import Telemetry
    from repro.usecase.levels import H264Level
    from repro.workloads.spec import BoundWorkload

#: One generated frame: (resolved scale, the frame's transactions).
Frame = Tuple[float, Tuple[MasterTransaction, ...]]

#: Frames kept alive.  Figure grids run levels-major, so a grid needs
#: one frame at a time; eight covers the feasibility oracle's eight
#: (workload, level) frames as well.
FRAME_MEMO_SIZE = 8

_FRAMES: "LockedLRU[Frame]" = LockedLRU(FRAME_MEMO_SIZE)


def build_frame(
    instantiate: Callable[[], Any],
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    profiler: Any = NULL_PROFILER,
) -> Frame:
    """Generate one frame, unmemoised: ``instantiate()`` returns the
    use case (a :class:`~repro.workloads.spec.WorkloadInstance` or the
    legacy :class:`~repro.usecase.pipeline.VideoRecordingUseCase`).

    ``scale=None`` picks the scale with :func:`choose_scale` under
    ``chunk_budget``.  The work is timed under ``profiler``'s
    ``load.build``, ``load.scale`` and ``load.generate`` phases.
    """
    with profiler.phase("load.build"):
        use_case = instantiate()
        load = VideoRecordingLoadModel(use_case, block_bytes=block_bytes)
    with profiler.phase("load.scale"):
        if scale is None:
            scale = choose_scale(use_case.total_bytes_per_frame(), chunk_budget)
    with profiler.phase("load.generate"):
        transactions = tuple(load.generate_frame(scale=scale))
    return scale, transactions


def frame_for(
    workload: "BoundWorkload",
    level: "H264Level",
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    telemetry: Optional["Telemetry"] = None,
) -> Frame:
    """The ``(scale, transactions)`` of one frame of ``workload`` at
    ``level``, from the memo.

    A miss runs :func:`build_frame` on ``workload.instantiate(level)``
    under ``telemetry``'s phases; a hit records no phase.  Either way
    the ``load.memo_hits`` / ``load.memo_misses`` counters of a live
    session are bumped (both are registered, at zero if need be).
    """
    profiler = telemetry.profiler if telemetry is not None else NULL_PROFILER
    frame, hit = _FRAMES.get_or_compute(
        (workload, level, scale, chunk_budget, block_bytes),
        lambda: build_frame(
            lambda: workload.instantiate(level),
            scale,
            chunk_budget,
            block_bytes,
            profiler,
        ),
    )
    if telemetry is not None:
        telemetry.registry.counter("load.memo_hits").add(int(hit))
        telemetry.registry.counter("load.memo_misses").add(int(not hit))
    return frame


def frame_memo_stats() -> dict:
    """Counters of the frame memo: the closed ledger of
    :class:`~repro.lru.LockedLRU` (hits, misses, lookups, insertions,
    evictions, entries)."""
    return _FRAMES.stats()


def clear_frame_memo() -> None:
    """Drop every memoised frame and reset the statistics."""
    _FRAMES.clear()
