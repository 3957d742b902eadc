"""One pass of one workload, in a fresh interpreter.

Spawned by ``perfbench/run.py`` (``python3 -m perfbench.child``) so the
batch decode cache, the oracle surfaces and the lazy registries start
empty, as they do for a one-shot ``repro-sim`` user.  Prints one JSON
object as its last line of standard output.

Modes:

- ``plain``: untraced, in-process -- the end-to-end numbers;
- ``pooled``: untraced, sweep points pooled over two workers;
- ``traced``: every layer entry point wrapped in a span -- the
  per-layer numbers and the accounting identities;
- ``crosscheck``: traced *and* under a live ``Telemetry`` session, to
  compare the wrappers with ``PhaseProfiler``'s phases.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

#: ``crosscheck`` tolerance: a wrapper total may differ from the
#: profiler phase of the same name by this share of the phase, plus
#: :data:`CROSSCHECK_FLOOR_S`.  Both instruments time almost the same
#: interval; the difference is their own overhead and the few
#: statements one encloses and the other does not (the interleave
#: phase leaves out ``_tap_metrics``, about 7 % of it).
CROSSCHECK_TOLERANCE = 0.15
CROSSCHECK_FLOOR_S = 0.005

POOL_WORKERS = 2

MODES = ("plain", "pooled", "traced", "crosscheck")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() just before spawning")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for this pass's result cache")
    parser.add_argument("--trace-dir", type=Path, required=True,
                        help="where a traced pass writes its spans")
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.cli  # noqa: F401 -- what every repro-sim command pays
    cli_done = time.perf_counter()
    import repro.backends.batch  # noqa: F401
    batch_done = time.perf_counter()

    import numpy

    from perfbench import calibrate, layers, workloads
    from perfbench.tracer import Tracer
    from repro.keys import ENGINE_VERSION

    # Only untraced in-process passes are cut between operations: in a
    # traced pass the kernel would land inside the layer spans, and a
    # pooled pass's operations run in other processes.
    interval_s = calibrate.INTERVAL_S if args.mode == "plain" else None
    # Set-up is calibrated like a pass; interpreter start and the imports
    # before the first cut take the speed of the first segment.
    lead_s = time.monotonic() - args.spawned_at
    setup_calibrator = calibrate.Calibrator(interval_s)
    setup_calibrator.begin()

    traced = args.mode in ("traced", "crosscheck")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    if args.mode == "pooled" and not workload.poolable:
        parser.error(f"{args.workload} has no pooled mode")
    tracer = Tracer(args.run_id) if traced else None
    log = layers.LayerLog()
    patcher = layers.instrument(tracer, log) if tracer is not None else None
    telemetry = None
    if args.mode == "crosscheck":
        from repro.telemetry.session import Telemetry

        telemetry = Telemetry.enabled()

    workload.setup(setup_calibrator)
    decode_before = layers.decode_ledger()
    log.rebase()
    setup_calibrator.end()
    setup_speeds = setup_calibrator.speeds()
    setup_s = lead_s + sum(setup_calibrator.segments_s)
    ref_setup_s = lead_s * setup_speeds[0] + sum(
        t * v for t, v in zip(setup_calibrator.segments_s, setup_speeds)
    )

    calibrator = calibrate.Calibrator(interval_s)
    calibrator.begin()

    root = tracer.open("pass") if tracer is not None else None
    outcome = workload.run(
        calibrator,
        workers=POOL_WORKERS if args.mode == "pooled" else None,
        telemetry=telemetry,
    )
    if root is not None:
        tracer.close(root)
    calibrator.end()
    decode_after = layers.decode_ledger()
    speeds = calibrator.speeds()
    wall_s = sum(calibrator.segments_s)
    ref_wall_s = sum(t * v for t, v in zip(calibrator.segments_s, speeds))

    result: Dict[str, Any] = {
        "mode": args.mode,
        # Host times, and the same in seconds at the reference speed
        # (perfbench/calibrate.py); an operation takes the speed of its
        # segment.
        "setup_s": setup_s,
        "ref_setup_s": ref_setup_s,
        "wall_s": wall_s,
        "ref_wall_s": ref_wall_s,
        "host_speed": ref_wall_s / wall_s,
        "calibration_cuts": len(calibrator.kernel_s),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "latencies_ms": [s * 1000.0 for s in outcome.latencies_s],
        "ref_latencies_ms": [
            s * 1000.0 * speeds[segment]
            for s, segment in zip(outcome.latencies_s, outcome.segments)
        ],
        # The first operation of a segment runs right after the kernel,
        # on caches the kernel has just filled with its own data.
        "after_cut": [
            i == 0 or segment != outcome.segments[i - 1]
            for i, segment in enumerate(outcome.segments)
        ],
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0,
        "engine_version": ENGINE_VERSION,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        patcher.restore()
        per_layer = layers.layer_metrics(
            tracer, root, log, decode_before, decode_after, setup_s
        )
        per_layer["import.repro_cli_s"] = cli_done - start
        per_layer["import.batch_backend_s"] = batch_done - cli_done
        result["per_layer"] = per_layer
        if telemetry is not None:
            result["crosscheck"] = layers.crosscheck(
                per_layer, telemetry.profile_report(),
                CROSSCHECK_TOLERANCE, CROSSCHECK_FLOOR_S,
            )
        tracer.dump(args.trace_dir / f"{args.run_id}.jsonl")

    workload.finish(outcome)
    completed = len(outcome.exact) + len(outcome.screened)
    if completed + outcome.failed != outcome.attempted:
        raise layers.AccountingError(
            f"{completed} completed + {outcome.failed} failed != "
            f"{outcome.attempted} attempted"
        )
    computed = outcome.computed
    result["bursts"] = sum(workloads.bursts(point) for point in computed)
    stats = [point.result.engine_stats() for point in computed]
    row_hits = sum(s["row_hits"] for s in stats)
    row_misses = sum(s["row_misses"] for s in stats)
    result["sim"] = {
        "row_hit_ratio": row_hits / (row_hits + row_misses) if stats else 0.0,
        "bank_conflicts": sum(s["bank_conflicts"] for s in stats),
    }
    if workload.poolable:
        result["result_bytes"] = len(pickle.dumps([point for _, point in outcome.exact]))
    result["digest"] = outcome.digest()

    expected = workloads.load_expected()
    wrong = list(outcome.extra.get("inconsistent", ())) + workloads.mismatched(
        expected, outcome.exact
    )
    if args.check:
        extra = workload.check_extra(outcome)
        wrong += workloads.mismatched(expected, extra.pop("resimulated", []))
        result["checks"] = extra
    result["stat_mismatches"] = len(wrong)
    result["mismatched_ids"] = sorted(set(wrong))[:10]
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
