"""The benchmark's three workloads, their inputs and their output checks.

Each workload has a ``setup`` (everything before the first timed
operation) and a ``run`` (one timed pass).  Exact points run on
``batch`` only: ``reference`` is the specification, not the hot path,
and ``fast`` is slated for retirement.

- ``paper_figures`` -- ``run_fig3``, ``run_fig4``, ``run_fig5`` sharing
  one fresh result cache: what a user runs to reproduce the paper.
  Clock is Fig. 3's inner axis, so the decode cache and the result
  cache are both exercised.
- ``zoo_format_sweep`` -- every zoo workload x level x {1,2,4,8}
  channels at 400 MHz, no cache: 80 distinct points, so every
  cross-point reuse mechanism is bypassed.
- ``oracle_query_mix`` -- one closed-loop client sending a seeded,
  read-heavy stream of :meth:`FeasibilityOracle.query` calls against a
  prefilled cache.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.calibrate import Calibrator
from repro.analysis import sweep as sweep_module
from repro.analysis.experiments import run_fig3, run_fig4, run_fig5
from repro.analysis.sweep import SweepPoint, point_key, simulate_use_case
from repro.backends.registry import get_backend
from repro.core.config import PAPER_CHANNEL_COUNTS, PAPER_FREQUENCIES_MHZ, SystemConfig
from repro.load.scaling import DEFAULT_CHUNK_BUDGET
from repro.oracle import FeasibilityOracle
from repro.regression.baseline import verify_paper
from repro.service.cache import ResultCache
from repro.telemetry.progress import CallbackProgressSink, ProgressEvent
from repro.telemetry.session import Telemetry
from repro.usecase.levels import PAPER_LEVELS, level_by_name
from repro.workloads.registry import available_workloads, resolve_workload

BACKEND = "batch"

#: The paper's own traffic model (the default workload).
CAMCORDER = "h264_camcorder"

#: Committed exact outputs every workload's points are checked against.
EXPECTED_PATH = Path(__file__).with_name("expected.json")

ZOO_FREQ_MHZ = 400.0

#: The oracle stream's domain.  ``vvc_encoder`` is in it because VVC
#: reference traffic is where closed-form memory models break first;
#: the two prefilled levels get surrogate surfaces, the other two only
#: what the stream itself computes.
ORACLE_WORKLOADS = (CAMCORDER, "vvc_encoder")
ORACLE_LEVELS = ("3.1", "4", "4.2", "5.2")
PREFILL_LEVELS = ("4", "5.2")
OFFGRID_FREQS_MHZ = (233.0, 300.0, 366.0, 433.0, 500.0)
ACCURACY_BUDGETS = (0.0, 0.05, 0.15, 0.3)

#: Repeat queries per (workload, level, channels) cell.  Together with
#: the cell's two exact writes and two screening queries this makes the
#: stream about 70 % microsecond reads, so the median sits inside the
#: surface-hit mode and the 90th percentile inside the compute mode,
#: never in the gap between them.
READS_PER_CELL = 5


def point_id(workload: str, level: str, channels: int, freq_mhz: float) -> str:
    """Stable, human-readable identity of one exact point (the canonical
    cache key is not used: it embeds the engine version)."""
    return f"{workload}/{level}/{channels}ch/{freq_mhz:g}MHz/b{DEFAULT_CHUNK_BUDGET}"


def record(point: SweepPoint) -> Dict[str, Any]:
    """The outputs of one exact point that must not change."""
    return {
        "access_time_ms": point.access_time_ms,
        "total_power_mw": point.total_power_mw,
        "verdict": point.verdict.name,
        "engine_stats": point.result.engine_stats(),
    }


def bursts(point: SweepPoint) -> int:
    """Simulated 16-byte bursts of one point."""
    stats = point.result.engine_stats()
    return stats["reads"] + stats["writes"]


def load_expected() -> Dict[str, Dict[str, Any]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["points"]


def mismatched(
    expected: Dict[str, Dict[str, Any]], points: Sequence[Tuple[str, SweepPoint]]
) -> List[str]:
    """Ids of the points whose outputs differ from the expected ones --
    compared with ``==``, no tolerance; a point with no expected entry
    counts as a mismatch."""
    return [pid for pid, point in points if expected.get(pid) != record(point)]


def compute_exact(workload: str, level: str, channels: int, freq_mhz: float) -> SweepPoint:
    """One exact point, computed the way every workload computes it."""
    return simulate_use_case(
        level_by_name(level),
        SystemConfig(channels=channels, freq_mhz=freq_mhz, backend=BACKEND),
        chunk_budget=DEFAULT_CHUNK_BUDGET,
        workload=workload,
    )


@dataclass
class Outcome:
    """What one timed pass produced."""

    attempted: int
    failed: int
    #: Per-operation host latency, seconds.
    latencies_s: List[float]
    #: The calibration segment each operation ran in.
    segments: List[int]
    #: (point id, exact point) for every exact answer delivered.
    exact: List[Tuple[str, SweepPoint]]
    #: Exact points this pass simulated (not served from a store).
    computed: List[SweepPoint]
    #: Non-exact oracle answers, checked against re-simulation.
    screened: List[Any] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        """Fingerprint of every answer, to compare passes of one run."""
        body = [(pid, record(point)) for pid, point in self.exact]
        body += [answer.to_json() for answer in self.screened]
        text = json.dumps(body, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Heartbeats:
    """Per-point latency of a sweep: the time between successive point
    deliveries (the first measured from the sweep call).  Each delivery
    is an operation boundary, where the calibrator may cut."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.latencies_s: List[float] = []
        self.segments: List[int] = []
        self.calibrator = calibrator
        self._last = 0.0
        self.sink = CallbackProgressSink(self._on_event)

    def start(self) -> None:
        self._last = time.perf_counter()

    def _on_event(self, event: ProgressEvent) -> None:
        if event.coords:
            now = time.perf_counter()
            self.latencies_s.append(now - self._last)
            self.segments.append(self.calibrator.segment)
            self._last = time.perf_counter() if self.calibrator.mark() else now


class Workload:
    name = ""
    #: Whether :meth:`run` accepts ``workers`` (pooled sweeps).
    poolable = False

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self, calibrator: Calibrator) -> None:
        """Everything before the first timed operation; ``calibrator``
        may cut between set-up operations."""
        get_backend(BACKEND)

    def run(self, calibrator: Calibrator, workers: Optional[int] = None,
            telemetry: Optional[Telemetry] = None) -> Outcome:
        raise NotImplementedError

    def point_ids(self) -> List[Tuple[str, str, int, float]]:
        """(workload, level, channels, MHz) of every exact point the
        workload can deliver -- what ``--regenerate`` recomputes."""
        raise NotImplementedError

    def finish(self, outcome: Outcome) -> None:
        """Collect the pass's answers, outside the timed window."""

    def check_extra(self, outcome: Outcome) -> Dict[str, Any]:
        """Workload-specific checks run outside the timed window."""
        return {}


class PaperFigures(Workload):
    name = "paper_figures"

    def setup(self, calibrator: Calibrator) -> None:
        super().setup(calibrator)
        resolve_workload(CAMCORDER)
        self.cache = ResultCache(self.scratch / "cache")

    def run(self, calibrator: Calibrator, workers: Optional[int] = None,
            telemetry: Optional[Telemetry] = None) -> Outcome:
        beats = Heartbeats(calibrator)
        kwargs = dict(
            backend=BACKEND, cache=self.cache, progress=beats.sink, strict=False,
            telemetry=telemetry,
        )
        beats.start()
        fig3 = run_fig3(**kwargs)
        beats.start()
        fig4 = run_fig4(**kwargs)
        beats.start()
        fig5 = run_fig5(**kwargs)
        return Outcome(
            attempted=len(fig3.channel_counts) * len(fig3.frequencies_mhz)
            + 2 * len(fig4.levels) * len(fig4.channel_counts),
            failed=len(fig3.failures) + len(fig4.failures) + len(fig5.failures),
            latencies_s=beats.latencies_s,
            segments=beats.segments,
            exact=[],
            computed=[],
            extra={"figures": (fig3, fig4, fig5)},
        )

    def finish(self, outcome: Outcome) -> None:
        # Fig. 3 returns only access times and verdicts; its full points
        # are read back from the cache the pass just filled, and a cell
        # that disagrees with its stored point counts as a mismatch.
        fig3, fig4, fig5 = outcome.extra.pop("figures")
        inconsistent = []
        for freq, per in fig3.access_ms.items():
            for channels, access_ms in per.items():
                config = SystemConfig(channels=channels, freq_mhz=freq, backend=BACKEND)
                point = self.cache.get(point_key(fig3.level, config))
                pid = _id_of(point, CAMCORDER)
                if (
                    point.access_time_ms != access_ms
                    or point.verdict is not fig3.verdicts[freq][channels]
                ):
                    inconsistent.append(pid)
                outcome.exact.append((pid, point))
        for figure in (fig4, fig5.fig4):
            for per in figure.points.values():
                outcome.exact.extend(
                    (_id_of(point, CAMCORDER), point) for point in per.values()
                )
        # A fresh cache means every distinct point was simulated once.
        outcome.computed = list(dict(outcome.exact).values())
        outcome.extra["inconsistent"] = inconsistent

    def point_ids(self) -> List[Tuple[str, str, int, float]]:
        ids = [
            (CAMCORDER, "3.1", m, f)
            for f in PAPER_FREQUENCIES_MHZ
            for m in PAPER_CHANNEL_COUNTS
        ]
        ids += [
            (CAMCORDER, level.name, m, ZOO_FREQ_MHZ)
            for level in PAPER_LEVELS
            for m in PAPER_CHANNEL_COUNTS
        ]
        return ids

    def check_extra(self, outcome: Outcome) -> Dict[str, Any]:
        verification = verify_paper(backend=BACKEND)
        return {
            "paper_cells_mismatched": verification.cells_mismatched,
            "paper_cells_checked": verification.cells_checked,
        }


class ZooFormatSweep(Workload):
    name = "zoo_format_sweep"
    poolable = True

    def setup(self, calibrator: Calibrator) -> None:
        super().setup(calibrator)
        self.workloads = [resolve_workload(name) for name in available_workloads()]
        self.configs = [
            SystemConfig(channels=m, freq_mhz=ZOO_FREQ_MHZ, backend=BACKEND)
            for m in PAPER_CHANNEL_COUNTS
        ]

    def run(self, calibrator: Calibrator, workers: Optional[int] = None,
            telemetry: Optional[Telemetry] = None) -> Outcome:
        beats = Heartbeats(calibrator)
        exact: List[Tuple[str, SweepPoint]] = []
        failed = 0
        attempted = 0
        for bound in self.workloads:
            beats.start()
            report = sweep_module.sweep_use_case(
                PAPER_LEVELS,
                self.configs,
                workers=workers,
                progress=beats.sink,
                workload=bound,
                strict=False,
                telemetry=telemetry,
            )
            attempted += report.total
            failed += len(report.failures)
            exact.extend((_id_of(point, bound.name), point) for point in report)
        return Outcome(
            attempted=attempted,
            failed=failed,
            latencies_s=beats.latencies_s,
            segments=beats.segments,
            exact=exact,
            computed=[point for _, point in exact],
        )

    def point_ids(self) -> List[Tuple[str, str, int, float]]:
        return [
            (name, level.name, m, ZOO_FREQ_MHZ)
            for name in available_workloads()
            for level in PAPER_LEVELS
            for m in PAPER_CHANNEL_COUNTS
        ]


Query = Tuple[str, str, int, float, float]


def oracle_stream(seed: int) -> List[Query]:
    """The seeded query stream: (workload, level, channels, MHz, accuracy).

    Every (workload, level, channels) cell gets the same shape, so the
    tier mix barely moves between seeds while the clocks, budgets and
    order do: two exact writes (an on-grid and an off-grid clock at
    budget 0) come first, then -- shuffled -- repeat reads of those two
    points at random budgets and two screening queries at other
    off-grid clocks (budgets 0.3 and 0.15: surrogate or analytic, never
    a compute, so the number of exact computes is the same for every
    seed).  The cells are merged by a seeded random interleaving that
    keeps each cell's own order.
    """
    rng = random.Random(seed)
    cells: List[List[Query]] = []
    for workload in ORACLE_WORKLOADS:
        for level in ORACLE_LEVELS:
            for channels in PAPER_CHANNEL_COUNTS:
                on_grid = rng.choice(PAPER_FREQUENCIES_MHZ)
                off1, off2, off3 = rng.sample(OFFGRID_FREQS_MHZ, 3)
                cell = (workload, level, channels)
                tail = [
                    cell + (rng.choice((on_grid, off1)), rng.choice(ACCURACY_BUDGETS))
                    for _ in range(READS_PER_CELL)
                ]
                tail.append(cell + (off2, 0.3))
                tail.append(cell + (off3, 0.15))
                rng.shuffle(tail)
                cells.append([cell + (on_grid, 0.0), cell + (off1, 0.0)] + tail)
    stream: List[Query] = []
    remaining = [len(cell) for cell in cells]
    cursors = [0] * len(cells)
    while any(remaining):
        pick = rng.randrange(sum(remaining))
        for index, left in enumerate(remaining):
            if pick < left:
                break
            pick -= left
        stream.append(cells[index][cursors[index]])
        cursors[index] += 1
        remaining[index] -= 1
    return stream


class OracleQueryMix(Workload):
    name = "oracle_query_mix"

    def setup(self, calibrator: Calibrator) -> None:
        super().setup(calibrator)
        self.stream = oracle_stream(self.seed)
        self.cache = ResultCache(self.scratch / "cache")
        grid = [
            SystemConfig(channels=m, freq_mhz=f, backend=BACKEND)
            for m in PAPER_CHANNEL_COUNTS
            for f in PAPER_FREQUENCIES_MHZ
        ]
        for workload in ORACLE_WORKLOADS:
            sweep_module.sweep_use_case(
                [level_by_name(name) for name in PREFILL_LEVELS],
                grid,
                cache=self.cache,
                workload=workload,
                progress=Heartbeats(calibrator).sink,
            )
        self.oracle = FeasibilityOracle(cache=self.cache, exact_backend=BACKEND)
        for workload in ORACLE_WORKLOADS:
            for level in ORACLE_LEVELS:
                self.oracle.warm(level_by_name(level), workload)

    def run(self, calibrator: Calibrator, workers: Optional[int] = None,
            telemetry: Optional[Telemetry] = None) -> Outcome:
        latencies: List[float] = []
        segments: List[int] = []
        exact: List[Tuple[str, SweepPoint]] = []
        computed: List[SweepPoint] = []
        screened = []
        failed = 0
        clock = time.perf_counter
        cache_stats = self.cache.stats
        for workload, level, channels, freq, accuracy in self.stream:
            writes = cache_stats()["writes"]
            start = clock()
            try:
                answer = self.oracle.query(
                    level, channels, freq, accuracy=accuracy, workload=workload
                )
            except Exception:
                # A raised query counts as failed; the loop keeps serving.
                latencies.append(clock() - start)
                segments.append(calibrator.segment)
                calibrator.mark()
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            latencies.append(clock() - start)
            segments.append(calibrator.segment)
            calibrator.mark()
            if answer.tier == "exact":
                exact.append((point_id(workload, level, channels, freq), answer.point))
                # Only a computed answer is written back to the cache.
                if cache_stats()["writes"] > writes:
                    computed.append(answer.point)
            else:
                screened.append(answer)
        return Outcome(
            attempted=len(self.stream),
            failed=failed,
            latencies_s=latencies,
            segments=segments,
            exact=exact,
            computed=computed,
            screened=screened,
        )

    def point_ids(self) -> List[Tuple[str, str, int, float]]:
        return [
            (workload, level, m, f)
            for workload in ORACLE_WORKLOADS
            for level in ORACLE_LEVELS
            for m in PAPER_CHANNEL_COUNTS
            for f in PAPER_FREQUENCIES_MHZ + OFFGRID_FREQS_MHZ
        ]

    def check_extra(self, outcome: Outcome) -> Dict[str, Any]:
        """Re-simulate every non-exact answer on ``batch`` with the
        oracle's own budget, scale and block size, and count the answers
        whose access or power interval excludes the exact value."""
        resimulated: List[Tuple[str, SweepPoint]] = []
        misses: Dict[str, int] = {}
        answered: Dict[str, int] = {}
        memo: Dict[str, SweepPoint] = {}
        for answer in outcome.screened:
            pid = point_id(answer.workload, answer.level, answer.channels, answer.freq_mhz)
            if pid not in memo:
                memo[pid] = simulate_use_case(
                    level_by_name(answer.level),
                    SystemConfig(
                        channels=answer.channels, freq_mhz=answer.freq_mhz, backend=BACKEND
                    ),
                    scale=self.oracle.scale,
                    chunk_budget=self.oracle.chunk_budget,
                    block_bytes=self.oracle.block_bytes,
                    workload=answer.workload,
                )
                resimulated.append((pid, memo[pid]))
            truth = memo[pid]
            answered[answer.tier] = answered.get(answer.tier, 0) + 1
            inside = (
                answer.access_low_ms <= truth.access_time_ms <= answer.access_high_ms
                and answer.power_low_mw <= truth.total_power_mw <= answer.power_high_mw
            )
            if not inside:
                misses[answer.tier] = misses.get(answer.tier, 0) + 1
        return {
            "resimulated": resimulated,
            "interval_answers": answered,
            "interval_misses": misses,
        }


def _id_of(point: SweepPoint, workload: str) -> str:
    return point_id(workload, point.level.name, point.config.channels, point.config.freq_mhz)


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls for cls in (PaperFigures, ZooFormatSweep, OracleQueryMix)
}
