"""Benchmark command: one workload, timed end to end or traced per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --regenerate

Each pass runs in a fresh interpreter (``perfbench/child.py``), one at a
time, until ``--seconds`` have elapsed.  ``--trace 0`` reports the
end-to-end metrics from untraced passes; ``--trace 1`` reports the
per-layer metrics from traced passes (alternating with untraced ones
for the tracing overhead).  Every metric is printed by name and unit;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--regenerate`` recomputes the committed expected outputs
(``perfbench/expected.json``) and prints which points changed.  It
never runs implicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

#: Everything a run leaves behind lives under here (ignored by git).
WORK_DIR = ROOT / ".perfbench"
#: Span files of traced passes, one JSON line per span.
TRACE_DIR = WORK_DIR / "traces"

from perfbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from perfbench.stats import median, percentile, percentile_supported  # noqa: E402

WORKLOADS = ("paper_figures", "zoo_format_sweep", "oracle_query_mix")

#: Fewest passes a run reports medians over, however short ``--seconds``
#: (per pass kind in a traced run, which alternates two or three kinds).
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 120.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def spawn(workload: str, seed: int, mode: str, check: bool, scratch: Path,
          run_id: str, env: Dict[str, str]) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its JSON result."""
    pass_dir = scratch / run_id
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--check", str(int(check)), "--scratch", str(pass_dir),
        "--trace-dir", str(TRACE_DIR), "--run-id", run_id,
        "--spawned-at", repr(time.monotonic()),
    ]
    # A session of its own, so a pass that overruns is killed together
    # with any pool workers it started.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"{mode} pass of {workload} exceeded {CHILD_TIMEOUT_S:.0f} s")
    except BaseException:
        # Interrupted or terminated: take the pass down with us.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    if child.returncode != 0:
        sys.stderr.write(stderr)
        raise BenchmarkError(f"{mode} pass of {workload} exited with {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} pass of {workload} printed no result")
    return json.loads(lines[-1])


def schedule(workload: str, trace: bool) -> List[str]:
    """The cycle of pass modes a run repeats."""
    if not trace:
        return ["plain"]
    cycle = ["traced", "plain"]
    if workload == "zoo_format_sweep":
        cycle.append("pooled")
    return cycle


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               scratch: Path, env: Dict[str, str]) -> Dict[str, List[Dict[str, Any]]]:
    """Start passes, one at a time, until ``seconds`` have elapsed and
    every mode has its minimum; results grouped by mode.  The first pass
    (on a traced ``paper_figures`` run, the crosscheck pass) also runs
    the output checks."""
    cycle = schedule(workload, trace)
    by_mode: Dict[str, List[Dict[str, Any]]] = {mode: [] for mode in cycle}
    deadline = time.monotonic() + seconds
    if trace and workload == "paper_figures":
        by_mode["crosscheck"] = [
            spawn(workload, seed, "crosscheck", True, scratch, run_id(workload, seed, 0), env)
        ]
    floor = MIN_TRACED_PASSES if trace else MIN_PASSES
    count = 0
    while time.monotonic() < deadline or min(len(by_mode[m]) for m in cycle) < floor:
        mode = cycle[count % len(cycle)]
        check = count == 0 and "crosscheck" not in by_mode
        count += 1
        by_mode[mode].append(
            spawn(workload, seed, mode, check, scratch, run_id(workload, seed, count), env)
        )
    return by_mode


def run_id(workload: str, seed: int, index: int) -> str:
    """Identifier shared by every span of one pass."""
    return f"{workload}-seed{seed}-pass{index:03d}"


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    # Every time is in seconds at the reference host speed, as each pass
    # measured it next to its own work (perfbench/calibrate.py), and the
    # run reports the median over its passes.  Every pass repeats the
    # same operations in the same order, so an operation's latency is
    # likewise its median over the passes, and the percentiles are taken
    # over those per-operation medians.  A sample taken right after a
    # calibration cut is left out when the operation has others: the
    # kernel has just evicted the program's data, which slows a
    # microsecond oracle read about twofold.
    if len({len(p["ref_latencies_ms"]) for p in passes}) != 1:
        raise BenchmarkError("passes timed different numbers of operations")
    per_op: List[float] = []
    samples = 0
    for timings in zip(*(zip(p["ref_latencies_ms"], p["after_cut"]) for p in passes)):
        kept = [ms for ms, after_cut in timings if not after_cut] or [
            ms for ms, _ in timings
        ]
        per_op.append(median(kept))
        samples += len(kept)
    if not percentile_supported(samples, 90.0):
        raise BenchmarkError(f"only {samples} latency samples; p90 needs more")
    return {
        "setup_s": median(p["ref_setup_s"] for p in passes),
        "wall_s": median(p["ref_wall_s"] for p in passes),
        "ops_per_s": median(p["attempted"] / p["ref_wall_s"] for p in passes),
        "op_p50_ms": percentile(per_op, 50.0),
        "op_p90_ms": percentile(per_op, 90.0),
        "bursts_per_s": median(p["bursts"] / p["ref_wall_s"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(by_mode: Dict[str, List[Dict[str, Any]]], checked: Dict[str, Any]) -> Dict[str, float]:
    # The median traced pass, with its layer times rescaled like the
    # end-to-end ones (see end_to_end).
    traced = sorted(by_mode["traced"], key=lambda p: p["ref_wall_s"])
    middle = traced[(len(traced) - 1) // 2]
    metrics: Dict[str, float] = {
        name: value * middle["host_speed"] if PER_LAYER_UNITS[name] == "s" else value
        for name, value in middle["per_layer"].items()
    }
    checks = checked.get("checks", {})
    answers = checks.get("interval_answers", {})
    misses = checks.get("interval_misses", {})
    for tier in ("surrogate", "analytic"):
        metrics[f"oracle.interval_miss.{tier}"] = (
            misses.get(tier, 0) / answers[tier] if answers.get(tier) else 0.0
        )
    answered = sum(answers.values())
    metrics["oracle.interval_miss_frac"] = (
        sum(misses.values()) / answered if answered else 0.0
    )
    plain_wall = median(p["ref_wall_s"] for p in by_mode["plain"])
    metrics["trace.overhead_frac"] = (
        median(p["ref_wall_s"] for p in traced) / plain_wall - 1.0
    )
    pooled = by_mode.get("pooled")
    metrics["parallel.speedup"] = (
        plain_wall / median(p["ref_wall_s"] for p in pooled) if pooled else 0.0
    )
    metrics["parallel.result_bytes"] = pooled[0]["result_bytes"] if pooled else 0
    metrics["sim.row_hit_ratio"] = middle["sim"]["row_hit_ratio"]
    metrics["sim.bank_conflicts"] = middle["sim"]["bank_conflicts"]
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise BenchmarkError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def fingerprint(sample: Dict[str, Any]) -> Dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sample["numpy"],
        "engine_version": sample["engine_version"],
        "commit": commit,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> int:
    scratch = WORK_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(scratch)
    try:
        by_mode = run_passes(workload, seed, seconds, trace, scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = [p for group in by_mode.values() for p in group]
    checked = next(p for p in passes if "checks" in p)
    digests = {p["digest"] for p in passes}
    checks = checked["checks"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatches = sum(p["stat_mismatches"] for p in passes)
    cells = checks.get("paper_cells_mismatched", 0)
    correct = failed == 0 and mismatches == 0 and cells == 0 and len(digests) == 1

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("machine " + json.dumps(fingerprint(checked), sort_keys=True))
    for mode, group in by_mode.items():
        walls = " ".join(f"{p['wall_s']:.3f}" for p in group)
        setups = " ".join(f"{p['setup_s']:.3f}" for p in group)
        p50s = " ".join(f"{median(p['latencies_ms']):.4g}" for p in group)
        speeds = " ".join(f"{p['host_speed']:.3f}" for p in group)
        cuts = " ".join(str(p["calibration_cuts"]) for p in group)
        print(f"passes {mode}: {len(group)}  host wall_s [{walls}]  host setup_s [{setups}]  "
              f"host op_p50_ms [{p50s}]  host_speed [{speeds}]  calibration cuts [{cuts}]")
    print(f"check failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"check stat_mismatches {mismatches} count"
          + (f"  first: {checked['mismatched_ids']}" if mismatches else ""))
    if "paper_cells_mismatched" in checks:
        print(f"check paper_cells_mismatched {cells} of {checks['paper_cells_checked']} cells")
    if "interval_answers" in checks:
        answered = sum(checks["interval_answers"].values())
        missed = sum(checks["interval_misses"].values())
        print(f"check interval_miss_frac {missed / answered if answered else 0.0:.6g} "
              f"({missed} of {answered} non-exact answers; by tier {checks['interval_misses']})")
    print(f"check answers identical across passes: {len(digests) == 1}")
    if "crosscheck" in checked:
        for name, row in checked["crosscheck"].items():
            print(f"crosscheck {name} traced {row['traced_s']:.6f} s  "
                  f"profiler {row['profiler_s']:.6f} s")

    if trace:
        metrics = per_layer(by_mode, checked)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(by_mode["plain"])
        units = END_TO_END_UNITS
        plain = by_mode["plain"]
        operations = len(plain[0]["latencies_ms"])
        print(f"every time is in seconds at the reference host speed, the median of "
              f"{len(plain)} passes; op_p50_ms and op_p90_ms are over {operations} "
              f"operations, each the median of its {len(plain)} samples (host time, "
              f"not rescaled: median wall_s {median(p['wall_s'] for p in plain):.6g} s, "
              f"setup_s {median(p['setup_s'] for p in plain):.6g} s)")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def regenerate() -> int:
    """Recompute every expected point and rewrite ``expected.json``."""
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import workloads
    from repro.keys import ENGINE_VERSION
    from repro.load.scaling import DEFAULT_CHUNK_BUDGET

    wanted = sorted({
        coords
        for cls in workloads.WORKLOADS.values()
        for coords in cls(0, WORK_DIR).point_ids()
    })
    try:
        old = workloads.load_expected()
    except FileNotFoundError:
        old = {}
    new = {
        workloads.point_id(*coords): workloads.record(workloads.compute_exact(*coords))
        for coords in wanted
    }
    changed = 0
    for pid in sorted(set(old) | set(new)):
        if old.get(pid) != new.get(pid):
            changed += 1
            state = "added" if pid not in old else "removed" if pid not in new else "changed"
            print(f"{state} {pid}")
    body = ",\n".join(
        f"  {json.dumps(pid)}: {json.dumps(new[pid], sort_keys=True)}" for pid in sorted(new)
    )
    header = json.dumps({
        "format": "perfbench-expected/1",
        "backend": workloads.BACKEND,
        "chunk_budget": DEFAULT_CHUNK_BUDGET,
        "engine_version": ENGINE_VERSION,
    }, sort_keys=True)[:-1]
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(f'{header}, "points": {{\n{body}\n}}}}\n')
    print(f"{changed} of {len(new)} expected points changed; wrote {workloads.EXPECTED_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the repro simulator end to end and per layer."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the oracle query stream (the sweeps are fixed grids)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help="recompute perfbench/expected.json and print what changed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.regenerate:
        return regenerate()
    if args.workload is None:
        parser.error("--workload is required")
    # Turn SIGTERM into an exception so the running pass is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
