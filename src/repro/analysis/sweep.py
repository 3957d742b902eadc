"""Configuration-sweep machinery shared by the experiments.

The central primitive is :func:`simulate_use_case`: take the frame of
an H.264 level at its simulation scale from the per-process frame memo
(:mod:`repro.load.frames`), run the multi-channel system and assemble
the frame-power report.  The Fig. 3,
4 and 5 runners are thin sweeps over it.

Sweep points are embarrassingly parallel -- every (configuration,
level) pair is an independent simulation -- so :func:`sweep_use_case`
accepts a ``workers`` count and fans whole points out across worker
processes via :mod:`repro.parallel`.  Results are returned in the same
order and with the same bit-identical values as a sequential sweep.

Fault tolerance (see :mod:`repro.resilience`):

- ``checkpoint=`` names a JSON-lines file; completed points are
  appended as they finish and skipped on re-run, so an interrupted
  sweep resumes with only the missing work -- bit-identically, because
  the checkpoint stores the full pickled points.
- ``strict=True`` (the default) keeps fail-fast semantics, but wraps
  worker exceptions in :class:`~repro.errors.WorkerError` carrying the
  sweep coordinates and worker-side traceback.  ``strict=False``
  degrades gracefully: every healthy point completes and the returned
  :class:`~repro.resilience.report.SweepReport` carries the failures
  alongside the results.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.realtime import RealTimeVerdict, realtime_verdict
from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.core.system import MultiChannelMemorySystem
from repro.errors import CheckpointError, ConfigurationError, WorkerError
from repro.load.frames import build_frame, frame_for
from repro.load.model import DEFAULT_BLOCK_BYTES
from repro.load.scaling import DEFAULT_CHUNK_BUDGET
from repro.parallel import parallel_map, resolve_workers
from repro.power.report import FramePowerReport, compute_frame_power
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.faults import maybe_inject
from repro.resilience.report import JobFailure, SweepReport
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import Watchdog
from repro.service.cache import CacheWarning, ResultCache, resolve_cache
from repro.telemetry.profile import NULL_PROFILER
from repro.telemetry.progress import ProgressSink, SweepProgress
from repro.telemetry.session import Telemetry
from repro.usecase.levels import H264Level
from repro.usecase.pipeline import VideoRecordingUseCase
from repro.workloads.registry import WorkloadLike, resolve_workload
from repro.workloads.spec import BoundWorkload


@dataclass(frozen=True)
class SweepPoint:
    """One simulated (configuration, level) point of a sweep."""

    config: SystemConfig
    level: H264Level
    result: SimulationResult
    power: FramePowerReport
    verdict: RealTimeVerdict

    @property
    def access_time_ms(self) -> float:
        """Full-frame access time, ms."""
        return self.result.access_time_ms

    @property
    def total_power_mw(self) -> float:
        """Frame-average power, mW."""
        return self.power.total_power_mw

    @property
    def reported_power_mw(self) -> float:
        """The Fig. 5 bar height: zero when real time is missed."""
        return 0.0 if self.verdict is RealTimeVerdict.FAIL else self.total_power_mw


def simulate_use_case(
    level: H264Level,
    config: SystemConfig,
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    use_case: Optional[VideoRecordingUseCase] = None,
    telemetry: Optional[Telemetry] = None,
    workload: WorkloadLike = None,
) -> SweepPoint:
    """Simulate one frame of ``workload`` at ``level`` on ``config``.

    ``scale`` overrides the automatic fraction selection (pass 1.0 for
    an exact full-frame run).

    ``workload`` selects the declarative traffic model (a registered
    name, a :class:`~repro.workloads.spec.WorkloadSpec` or a
    :class:`~repro.workloads.spec.BoundWorkload`); ``None`` resolves to
    the default ``h264_camcorder`` spec, which is bit-identical to the
    legacy :class:`~repro.usecase.pipeline.VideoRecordingUseCase`.  An
    explicit ``use_case`` instance (the legacy hook) wins over
    ``workload``.

    Without ``use_case``, the frame comes from the per-process frame
    memo (:func:`repro.load.frames.frame_for`): points that share the
    workload, level, scale, chunk budget and block size -- every
    channel count and clock of a figure -- generate their frame once.
    The legacy ``use_case`` hook bypasses the memo.

    A live ``telemetry`` session attributes wall-clock to the pipeline
    phases (``load.build``, ``load.scale`` and ``load.generate`` when
    the frame is generated, the system's ``system.interleave`` /
    ``system.engine`` / ``system.pool`` and ``power.integrate``),
    counts frame-memo ``load.memo_hits`` / ``load.memo_misses`` and
    collects the ``engine.*`` statistics; the returned point is
    bit-identical with telemetry on, off or absent.
    """
    profiler = telemetry.profiler if telemetry is not None else NULL_PROFILER
    if use_case is None:
        scale, transactions = frame_for(
            resolve_workload(workload),
            level,
            scale=scale,
            chunk_budget=chunk_budget,
            block_bytes=block_bytes,
            telemetry=telemetry,
        )
    else:
        scale, transactions = build_frame(
            lambda: use_case, scale, chunk_budget, block_bytes, profiler
        )
    system = MultiChannelMemorySystem(config)
    result = system.run(transactions, scale=scale, telemetry=telemetry)
    with profiler.phase("power.integrate"):
        power = compute_frame_power(config, result, level.frame_period_ms)
        verdict = realtime_verdict(result.access_time_ms, level.frame_period_ms)
    if telemetry is not None:
        telemetry.registry.counter("sim.points").add(1)
    return SweepPoint(
        config=config, level=level, result=result, power=power, verdict=verdict
    )


#: One sweep job:
#: (index, level, config, scale, chunk_budget, block_bytes, workload).
SweepJob = Tuple[
    int, H264Level, SystemConfig, Optional[float], int, int, BoundWorkload
]


def _sweep_point_job(
    job: SweepJob, telemetry: Optional[Telemetry] = None
) -> SweepPoint:
    """Simulate one sweep point (pool worker entry point).

    Module-level so it pickles by reference; every argument and the
    returned :class:`SweepPoint` are plain dataclasses/enums, so the
    round trip through the pool is lossless.  The leading index exists
    for checkpoint bookkeeping and as the fault-injection hook the
    resilience tests target.

    ``telemetry`` is only threaded in for in-process sweeps: a pool
    worker's registry/profiler mutations would die with the worker, so
    pooled sweeps collect sweep-level metrics in the parent instead.
    """
    index, level, config, scale, chunk_budget, block_bytes, workload = job
    maybe_inject("sweep", index)
    return simulate_use_case(
        level,
        config,
        scale=scale,
        chunk_budget=chunk_budget,
        block_bytes=block_bytes,
        telemetry=telemetry,
        workload=workload,
    )


def _job_coords(job: SweepJob) -> Dict[str, object]:
    """Human-readable sweep coordinates of one job (for failure
    records and checkpoint lines)."""
    index, level, config, scale, chunk_budget, block_bytes, workload = job
    return {
        "index": index,
        "level": level.name,
        "channels": config.channels,
        "freq_mhz": config.freq_mhz,
        "backend": config.backend,
        "workload": workload.name,
    }


def _job_description(job: SweepJob) -> Dict[str, object]:
    """Canonical-key material of one job: everything that determines
    its result, nothing that does not.

    The grid ``index`` is deliberately excluded -- a point's result is
    a pure function of (level, config, scale, budget, block size), so
    the same configuration must share stored work no matter where it
    sits in which grid (the Fig. 3 and Fig. 4/5 runners, the explorer
    and ad-hoc service sweeps all hit the same entries).  The
    simulation ``backend`` is surfaced explicitly alongside the config
    (which also carries it) so the key contract -- "changing the
    backend misses" -- is visible in the payload, and the engine
    version rides in via :func:`repro.keys.canonical_key`.

    The ``workload`` identity -- registry name, fully resolved
    parameters and a digest of the spec's semantic structure
    (:meth:`~repro.workloads.spec.BoundWorkload.identity`) -- is part
    of the key, so the result cache and checkpoints can never alias
    points generated by different workloads (or by two registrations
    of the same name with different structure).
    """
    index, level, config, scale, chunk_budget, block_bytes, workload = job
    return point_description(
        level,
        config,
        scale=scale,
        chunk_budget=chunk_budget,
        block_bytes=block_bytes,
        workload=workload,
    )


def point_description(
    level: H264Level,
    config: SystemConfig,
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    workload: WorkloadLike = None,
) -> Dict[str, object]:
    """Canonical-key material of one sweep point (see
    :func:`_job_description` for the field-by-field rationale).

    Public so other layers -- the feasibility oracle probing the
    result cache, external tooling addressing entries -- can construct
    the *identical* description a sweep would, without fabricating a
    :data:`SweepJob`."""
    bound = (
        workload
        if isinstance(workload, BoundWorkload)
        else resolve_workload(workload)
    )
    return {
        "kind": "sweep-point",
        "level": level,
        "config": config,
        "backend": config.backend,
        "scale": scale,
        "chunk_budget": chunk_budget,
        "block_bytes": block_bytes,
        "workload": bound.identity(),
    }


def point_key(
    level: H264Level,
    config: SystemConfig,
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    workload: WorkloadLike = None,
) -> str:
    """Canonical content key of one sweep point -- exactly the key
    :func:`sweep_use_case` files the point under in the result cache
    and checkpoint stores."""
    return SweepCheckpoint.key_for(
        point_description(
            level,
            config,
            scale=scale,
            chunk_budget=chunk_budget,
            block_bytes=block_bytes,
            workload=workload,
        )
    )


def job_keys(jobs: Sequence[SweepJob]) -> List[str]:
    """Canonical content keys of ``jobs``, shared by the checkpoint
    store and the result cache (see :mod:`repro.keys`)."""
    return [SweepCheckpoint.key_for(_job_description(job)) for job in jobs]


def _refuse_backend_mixing(
    store: SweepCheckpoint,
    configs: Sequence[SystemConfig],
    checkpoint_force: bool,
) -> None:
    """Refuse resuming a checkpoint recorded under foreign backends."""
    sweep_backends = {config.backend for config in configs}
    foreign = store.recorded_backends() - sweep_backends
    if foreign and not checkpoint_force:
        raise CheckpointError(
            f"checkpoint {store.path} holds points recorded under "
            f"backend(s) {', '.join(sorted(foreign))}, but this sweep "
            f"uses {', '.join(sorted(sweep_backends))}; mixing backends "
            "in one checkpoint blends fidelities -- use a separate "
            "checkpoint file, or pass --force / checkpoint_force=True "
            "to proceed"
        )


def _fold_reuse(
    jobs: Sequence[SweepJob],
    keys: Sequence[str],
    store: Optional[SweepCheckpoint],
    cache: Optional["ResultCache"],
) -> Tuple[List[Optional[SweepPoint]], int, int, List[JobFailure], List[int]]:
    """Resolve every form of stored work before dispatching anything.

    Returns ``(results, resumed, cached, resumed_failures,
    pending_positions)``: checkpointed points and quarantined failures
    are restored first (and successes copied into the cache when one
    is attached, so a campaign checkpoint enriches the global store),
    then the cache is consulted for the remainder.  Cache hits are
    folded back into the checkpoint, keeping it a complete record of
    the campaign.  Only positions neither store could serve are left
    pending.
    """
    results: List[Optional[SweepPoint]] = [None] * len(jobs)
    resumed = 0
    cached = 0
    resumed_failures: List[JobFailure] = []
    covered = set()
    if store is not None:
        done = store.load()
        for position, key in enumerate(keys):
            if key not in done:
                continue
            covered.add(position)
            resumed += 1
            payload = done[key]
            if isinstance(payload, JobFailure):
                # A quarantined point from the previous run: yield the
                # recorded failure instead of re-hanging on it.
                resumed_failures.append(
                    replace(
                        payload,
                        index=position,
                        coords=_job_coords(jobs[position]),
                    )
                )
            else:
                results[position] = payload
                if cache is not None and not cache.contains(key):
                    cache.put(key, payload, _job_coords(jobs[position]))
    if cache is not None:
        for position, key in enumerate(keys):
            if position in covered:
                continue
            hit = cache.get(key)
            if hit is None:
                continue
            if not isinstance(hit, SweepPoint):
                warnings.warn(
                    CacheWarning(
                        f"cache entry {key[:12]}... holds a "
                        f"{type(hit).__name__}, not a sweep point; "
                        "recomputing"
                    ),
                    stacklevel=3,
                )
                continue
            covered.add(position)
            cached += 1
            results[position] = hit
            if store is not None:
                store.record(key, _job_coords(jobs[position]), hit)
    pending_positions = [
        position for position in range(len(jobs)) if position not in covered
    ]
    return results, resumed, cached, resumed_failures, pending_positions


def sweep_use_case(
    levels: Sequence[H264Level],
    configs: Sequence[SystemConfig],
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    workers: Optional[int] = None,
    checkpoint: Optional[Union[str, Path, SweepCheckpoint]] = None,
    strict: bool = True,
    retry: Optional[RetryPolicy] = None,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressSink] = None,
    backend: Optional[str] = None,
    checkpoint_force: bool = False,
    point_timeout: Optional[float] = None,
    durable_checkpoint: bool = False,
    cache: Optional[Union[str, Path, ResultCache]] = None,
    workload: WorkloadLike = None,
) -> SweepReport:
    """Cartesian sweep of levels x configurations.

    ``workload`` selects the declarative traffic model every point
    simulates (registered name, spec or bound workload; ``None`` = the
    default ``h264_camcorder``).  The workload identity is part of
    every point's canonical key, so checkpoints and the result cache
    never mix points across workloads.

    ``workers`` fans the (level, config) points out across worker
    processes (``None``/1 = in-process, 0 = one per CPU); the returned
    report is in levels-major order and bit-identical either way.

    ``backend`` overrides the simulation backend of every swept
    configuration (``None`` keeps each config's own); the selection
    travels inside the (picklable) configs, so pool workers honour it
    without extra plumbing.

    ``checkpoint`` names a JSON-lines file (or passes a prepared
    :class:`~repro.resilience.checkpoint.SweepCheckpoint`): completed
    points are recorded as they finish, and points already present are
    skipped -- an interrupted sweep re-run with the same arguments
    recomputes only the missing work.  Points are keyed by the full
    job description *including the backend*, and a checkpoint holding
    points recorded under a different backend is refused with
    :class:`~repro.errors.CheckpointError` -- silently blending e.g.
    analytic estimates into a reference sweep would corrupt the
    figures; pass ``checkpoint_force=True`` (CLI ``--force``) to mix
    deliberately.  ``durable_checkpoint=True`` fsyncs every checkpoint
    append (machine-crash durability; CLI ``--durable-checkpoint``).
    ``strict=False`` captures per-point failures in the report instead
    of raising; ``retry`` overrides the backoff schedule for transient
    pool failures.

    ``point_timeout`` puts every point under watchdog supervision
    (CLI ``--point-timeout``): a point still running after that many
    wall-clock seconds has its worker killed and is requeued, and a
    point that hangs (or takes its worker down) on every permitted
    attempt is quarantined -- an ERR cell in the figures under
    ``strict=False``, a :class:`~repro.errors.WorkerError` naming the
    point under ``strict=True``.  Quarantined failures are recorded
    into the checkpoint, so a ``--resume`` yields the failure
    immediately instead of re-hanging on the same point.  Supervision
    counters (``sweep.timeouts``, ``sweep.watchdog_kills``,
    ``sweep.quarantined``) land in ``telemetry`` when given.

    ``cache`` names a persistent content-addressed result store
    directory (or passes a prepared
    :class:`~repro.service.cache.ResultCache`; CLI ``--cache-dir``):
    before anything is dispatched, every point's canonical key --
    :func:`repro.keys.canonical_key` over the full job description
    including the backend and engine version, the same key the
    checkpoint uses -- is looked up there, and hits are served without
    simulating.  Computed points are written back atomically, so a
    warm cache replays a whole grid as pure lookups; failed or
    quarantined points are never cached.  Corrupt or torn entries
    degrade to a recompute with a
    :class:`~repro.service.cache.CacheWarning` -- a damaged cache can
    cost time, never correctness.  ``cache.hits`` / ``cache.misses`` /
    ``cache.corrupt`` / ``cache.evictions`` counters land in
    ``telemetry`` when given.

    ``progress`` receives a heartbeat per completed point (and a final
    summary) as :class:`~repro.telemetry.ProgressEvent`\\ s with
    done/total counts and an ETA, so long campaigns are observable.
    ``telemetry`` collects sweep-level metrics (``sweep.points_*``,
    the ``sweep.run`` timer, a per-point runtime histogram); for
    in-process sweeps it also reaches the per-point phase profile --
    pool workers cannot mutate the parent's registry, so pooled sweeps
    profile only the dispatch.

    The report is a drop-in :class:`~collections.abc.Sequence` of the
    successful :class:`SweepPoint`\\ s, so callers that treat the
    result as a list keep working.
    """
    if not levels or not configs:
        raise ConfigurationError("sweep needs at least one level and one config")
    if backend is not None:
        configs = [config.with_backend(backend) for config in configs]
    bound = resolve_workload(workload)
    jobs: List[SweepJob] = [
        (index, level, config, scale, chunk_budget, block_bytes, bound)
        for index, (level, config) in enumerate(
            (level, config) for level in levels for config in configs
        )
    ]

    if isinstance(checkpoint, SweepCheckpoint):
        store: Optional[SweepCheckpoint] = checkpoint
        if durable_checkpoint:
            store.fsync = True
    elif checkpoint is not None:
        store = SweepCheckpoint(checkpoint, fsync=durable_checkpoint)
    else:
        store = None
    cache_store = resolve_cache(cache)
    if store is not None:
        _refuse_backend_mixing(store, configs, checkpoint_force)
    if store is not None or cache_store is not None:
        keys = job_keys(jobs)
    else:
        keys = []
    cache_before = cache_store.stats() if cache_store is not None else {}
    results, resumed, cache_hits, resumed_failures, pending_positions = (
        _fold_reuse(jobs, keys, store, cache_store)
    )
    pending_jobs = [jobs[position] for position in pending_positions]

    if telemetry is not None:
        registry = telemetry.registry
        registry.counter("sweep.points_total").add(len(jobs))
        for name in sorted({config.backend for config in configs}):
            registry.counter(f"sweep.backend.{name}").add(1)
        registry.counter("sweep.points_resumed").add(resumed)
        # Pre-register at zero so a fully resumed sweep still exports
        # the counter (a resumed campaign computed nothing, visibly).
        registry.counter("sweep.points_completed").add(0)
        if cache_store is not None:
            registry.counter("sweep.points_cached").add(cache_hits)
            # Pre-register so a fully cold (or fully warm) run still
            # exports every cache counter.
            for name in (
                "cache.hits", "cache.misses", "cache.corrupt",
                "cache.evictions",
            ):
                registry.counter(name).add(0)
    tracker = (
        SweepProgress(progress, total=len(jobs), resumed=resumed)
        if progress is not None
        else None
    )

    on_result = None
    if (
        store is not None
        or cache_store is not None
        or tracker is not None
        or telemetry is not None
    ):
        point_timer = time.monotonic
        # Placeholder: re-stamped at dispatch so the first interval
        # sample measures point throughput, not setup done between
        # closure creation and the parallel_map call.
        last_done = [point_timer()]

        def on_result(local_index: int, point: SweepPoint) -> None:
            position = pending_positions[local_index]
            if store is not None:
                store.record(keys[position], _job_coords(jobs[position]), point)
            if cache_store is not None:
                cache_store.put(
                    keys[position], point, _job_coords(jobs[position])
                )
            if telemetry is not None:
                # Wall-clock between successive completions; under a
                # pool this is the effective per-point throughput, not
                # one point's runtime.
                now = point_timer()
                telemetry.registry.counter("sweep.points_completed").add(1)
                telemetry.registry.histogram(
                    "sweep.point_interval_seconds"
                ).record(now - last_done[0])
                last_done[0] = now
            if tracker is not None:
                tracker.point_done(_job_coords(jobs[position]))

    on_failure = None
    if store is not None:

        def on_failure(local_index: int, failure: JobFailure) -> None:
            if not failure.quarantined:
                # Deterministic errors are recomputed on resume (the
                # bug might be fixed by then); only quarantines -- the
                # points that would re-hang -- are persisted.
                return
            position = pending_positions[local_index]
            store.record(
                keys[position],
                _job_coords(jobs[position]),
                replace(
                    failure,
                    index=position,
                    coords=_job_coords(jobs[position]),
                ),
            )

    watchdog = Watchdog(point_timeout) if point_timeout is not None else None
    if telemetry is not None and watchdog is not None:
        # Pre-register at zero so a clean supervised sweep still
        # exports the supervision counters.
        for name in ("sweep.timeouts", "sweep.watchdog_kills", "sweep.quarantined"):
            telemetry.registry.counter(name).add(0)

    # Per-point telemetry (phase profile, engine counters) only works
    # in-process: a pool worker's mutations die with the worker.
    # Supervision forces pooled execution even for one worker, so a
    # supervised sweep never binds the telemetry session into the job.
    point_fn = _sweep_point_job
    if (
        telemetry is not None
        and point_timeout is None
        and resolve_workers(workers, max(1, len(pending_jobs))) <= 1
    ):
        point_fn = partial(_sweep_point_job, telemetry=telemetry)

    sweep_timer = (
        telemetry.registry.timer("sweep.run") if telemetry is not None else None
    )
    start = time.perf_counter()
    if on_result is not None:
        # Baseline for the first ``sweep.point_interval_seconds``
        # sample is dispatch start: stamping any earlier bills the
        # checkpoint resume scan and other setup to the first point.
        last_done[0] = point_timer()
    outcomes = parallel_map(
        point_fn,
        pending_jobs,
        workers=workers,
        retry=retry,
        capture_failures=True,
        on_result=on_result,
        on_failure=on_failure,
        watchdog=watchdog,
    )
    if sweep_timer is not None:
        sweep_timer.record(time.perf_counter() - start)
    if telemetry is not None and watchdog is not None:
        telemetry.registry.counter("sweep.timeouts").add(watchdog.timeouts)
        telemetry.registry.counter("sweep.watchdog_kills").add(watchdog.kills)
        telemetry.registry.counter("sweep.quarantined").add(watchdog.quarantined)
    if telemetry is not None and cache_store is not None:
        # Delta against the pre-sweep snapshot, so a shared ResultCache
        # instance attributes each sweep only its own traffic.
        cache_after = cache_store.stats()
        for name in ("hits", "misses", "corrupt", "evictions"):
            telemetry.registry.counter(f"cache.{name}").add(
                cache_after[name] - cache_before.get(name, 0)
            )

    failures: List[JobFailure] = list(resumed_failures)
    for local_index, outcome in enumerate(outcomes):
        position = pending_positions[local_index]
        if isinstance(outcome, JobFailure):
            failures.append(
                replace(
                    outcome,
                    index=position,
                    coords=_job_coords(jobs[position]),
                )
            )
        else:
            results[position] = outcome
    failures.sort(key=lambda failure: failure.index)

    if telemetry is not None:
        telemetry.registry.counter("sweep.points_failed").add(len(failures))
    if tracker is not None:
        tracker.finish(failed=len(failures))

    if strict and failures:
        first = failures[0]
        raise WorkerError(
            f"sweep point {dict(first.coords)} failed: "
            f"{first.error_type}: {first.message}",
            coords=first.coords,
            traceback=first.traceback,
        )
    return SweepReport(
        points=[point for point in results if point is not None],
        failures=failures,
        total=len(jobs),
        resumed=resumed,
        cached=cache_hits,
    )


def channel_sweep_configs(
    base: SystemConfig, channel_counts: Iterable[int]
) -> List[SystemConfig]:
    """Clone ``base`` across channel counts."""
    return [base.with_channels(m) for m in channel_counts]


def frequency_sweep_configs(
    base: SystemConfig, frequencies_mhz: Iterable[float]
) -> List[SystemConfig]:
    """Clone ``base`` across interface clocks."""
    return [base.with_frequency(f) for f in frequencies_mhz]
