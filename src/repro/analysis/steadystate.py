"""Steady-state GOP analysis: per-frame variation over a recording.

The paper sizes the memory for the steady-state inter-coded (P) frame
— correctly, since P frames dominate both the schedule and the memory
load.  A real H.264 stream, though, is a **group of pictures**: every
``gop_length`` frames an intra-coded (I) frame resets the prediction
chain, and I frames read *no* reference frames, so their memory load
is far lighter.  This module quantifies the resulting per-frame
profile:

- worst-frame access time (what real-time sizing must cover — and it
  is the P frame, confirming the paper's methodology),
- the I-frame "breather" and the headroom it returns,
- sustained average power over a whole GOP (slightly below the
  paper's per-P-frame Fig. 5 number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.realtime import RealTimeVerdict, realtime_verdict
from repro.core.config import SystemConfig
from repro.core.system import MultiChannelMemorySystem
from repro.errors import ConfigurationError
from repro.load.frames import frame_for
from repro.load.scaling import DEFAULT_CHUNK_BUDGET
from repro.power.report import compute_frame_power
from repro.usecase.levels import H264Level
from repro.usecase.pipeline import VideoRecordingUseCase
from repro.workloads.registry import WorkloadLike, resolve_workload


@dataclass(frozen=True)
class GopAnalysis:
    """Per-frame behaviour of one GOP on one configuration."""

    level: H264Level
    config: SystemConfig
    gop_length: int
    #: Access time of an I frame / a P frame, ms.
    i_frame_ms: float
    p_frame_ms: float
    #: Frame-average power of each frame kind, mW.
    i_frame_power_mw: float
    p_frame_power_mw: float

    @property
    def frame_pattern_ms(self) -> List[float]:
        """Per-frame access times over one GOP (I then P...)."""
        return [self.i_frame_ms] + [self.p_frame_ms] * (self.gop_length - 1)

    @property
    def worst_frame_ms(self) -> float:
        """The frame real-time sizing must cover."""
        return max(self.i_frame_ms, self.p_frame_ms)

    @property
    def worst_frame_verdict(self) -> RealTimeVerdict:
        """Feasibility of the worst frame."""
        return realtime_verdict(self.worst_frame_ms, self.level.frame_period_ms)

    @property
    def i_frame_headroom(self) -> float:
        """Fraction of the P-frame time the I frame gives back."""
        if self.p_frame_ms <= 0:
            return 0.0
        return 1.0 - self.i_frame_ms / self.p_frame_ms

    @property
    def sustained_power_mw(self) -> float:
        """GOP-average power: one I frame, gop_length-1 P frames."""
        return (
            self.i_frame_power_mw + (self.gop_length - 1) * self.p_frame_power_mw
        ) / self.gop_length

    def summary(self) -> str:
        """One-line report."""
        return (
            f"{self.level.column_title} on {self.config.channels}ch: "
            f"I {self.i_frame_ms:.1f} ms / P {self.p_frame_ms:.1f} ms "
            f"(headroom {self.i_frame_headroom * 100:.0f} %), GOP power "
            f"{self.sustained_power_mw:.0f} mW, worst-frame "
            f"{self.worst_frame_verdict}"
        )


def analyze_gop(
    level: H264Level,
    config: SystemConfig,
    gop_length: Optional[int] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    workload: WorkloadLike = None,
) -> GopAnalysis:
    """Simulate one I frame and one P frame of ``workload`` at
    ``level`` on ``config`` and assemble the GOP profile.

    ``workload`` selects the declarative pipeline (``None`` = the
    paper's ``h264_camcorder``).  The spec's
    :class:`~repro.workloads.spec.GopSpec` supplies the default GOP
    length and names the parameter that flips the intra-coded variant;
    a workload with no ``intra_param`` (e.g. ``vdcm_display``) has no
    I/P distinction, so both frame kinds simulate identically and the
    profile is flat.
    """
    bound = resolve_workload(workload)
    if gop_length is None:
        gop_length = max(2, bound.spec.gop.length)
    if gop_length < 2:
        raise ConfigurationError(f"gop_length must be >= 2, got {gop_length}")

    results = {}
    for kind, intra in (("I", True), ("P", False)):
        scale, frame = frame_for(
            bound.intra_variant(intra), level, chunk_budget=chunk_budget
        )
        result = MultiChannelMemorySystem(config).run(frame, scale=scale)
        power = compute_frame_power(config, result, level.frame_period_ms)
        results[kind] = (result.access_time_ms, power.total_power_mw)

    return GopAnalysis(
        level=level,
        config=config,
        gop_length=gop_length,
        i_frame_ms=results["I"][0],
        p_frame_ms=results["P"][0],
        i_frame_power_mw=results["I"][1],
        p_frame_power_mw=results["P"][1],
    )
