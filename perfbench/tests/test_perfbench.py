"""Small-budget tests of the benchmark's own arithmetic and checks.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from perfbench.stats import percentile, percentile_supported, self_time  # noqa: E402
from perfbench.tracer import AccountingError, Tracer, check_accounting  # noqa: E402


# -- the percentile rule ------------------------------------------------------


def test_percentile_matches_statistics_inclusive_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 0.2, 7.7]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert percentile(values, 90.0) == pytest.approx(deciles[8])
    assert percentile(values, 50.0) == statistics.median(values)
    assert percentile(values, 0.0) == min(values)
    assert percentile(values, 100.0) == max(values)


def test_percentile_needs_ten_samples_beyond_it():
    # p90 of n samples sits at rank (n - 1) * 0.9; the samples above
    # that rank must number at least ten.
    assert not percentile_supported(90, 90.0)
    assert percentile_supported(95, 90.0)
    assert percentile_supported(100, 90.0)
    assert not percentile_supported(0, 50.0)


def test_end_to_end_takes_medians_of_the_rescaled_times():
    from perfbench.run import BenchmarkError, end_to_end

    def one_pass(wall, latencies_ms, setup, after_cut=()):
        # Host times of 2x these, on a host at half the reference speed,
        # would give the same values.
        return {"ref_wall_s": wall, "ref_setup_s": setup, "attempted": 40,
                "bursts": 4000, "peak_rss_mb": 50.0 + wall,
                "ref_latencies_ms": latencies_ms,
                "after_cut": [i in after_cut for i in range(len(latencies_ms))]}

    # Operation i takes i + 1 ms; one pass is slowed in its second half,
    # one in its first, and the medians leave both disturbances out.
    ramp = [float(ms) for ms in range(1, 41)]
    passes = [one_pass(1.0, ramp, setup=0.5),
              one_pass(3.0, ramp[:20] + [3 * ms for ms in ramp[20:]], setup=0.9),
              one_pass(1.5, [2 * ms for ms in ramp[:20]] + ramp[20:], setup=0.4)]
    metrics = end_to_end(passes)
    assert metrics["wall_s"] == 1.5 and metrics["setup_s"] == 0.5
    assert metrics["ops_per_s"] == 40.0 / 1.5 and metrics["bursts_per_s"] == 4000.0 / 1.5
    assert metrics["peak_rss_mb"] == 51.5
    # Each operation's median over the passes gives back the ramp.
    assert metrics["op_p50_ms"] == pytest.approx(20.5)
    assert metrics["op_p90_ms"] == pytest.approx(36.1)
    # 80 samples cannot support a p90 with ten samples beyond it.
    with pytest.raises(BenchmarkError):
        end_to_end(passes[:2])
    # Passes must time the same operations.
    with pytest.raises(BenchmarkError):
        end_to_end(passes + [one_pass(1.0, ramp[:39], setup=0.5)])
    # A sample right after a calibration cut is left out while its
    # operation has others: the second half is slow only after cuts.
    second_half = set(range(20, 40))
    slow = ramp[:20] + [10 * ms for ms in ramp[20:]]
    cut = [one_pass(1.0, slow, setup=0.5, after_cut=second_half) for _ in range(2)]
    clean = [one_pass(1.0, ramp, setup=0.5) for _ in range(2)]
    assert end_to_end(cut + clean)["op_p90_ms"] == pytest.approx(36.1)
    # An operation that always follows a cut keeps all its samples.
    assert end_to_end(cut * 2)["op_p90_ms"] == pytest.approx(361.0)


def test_calibrator_rescales_each_segment_by_its_own_speed():
    from perfbench import calibrate

    calibrator = calibrate.Calibrator(interval_s=None)
    calibrator.kernel_s = [calibrate.REFERENCE_S, calibrate.REFERENCE_S,
                           3 * calibrate.REFERENCE_S]
    # The second segment ran between a kernel at the reference speed and
    # one three times slower: half the reference speed on average.
    assert calibrator.speeds() == pytest.approx([1.0, 0.5])
    assert not calibrator.mark()  # edges only: never cuts


def test_calibration_kernel_is_fixed_work():
    from perfbench import calibrate

    assert calibrate.kernel() == calibrate.kernel()
    times = calibrate.block(3)
    assert len(times) == 3 and all(t > 0.0 for t in times)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # Overlap (2..3) is counted once; the part of a child outside the
    # parent's interval is clipped.
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert self_time(0.0, 10.0, [(9.0, 12.0)]) == 9.0
    assert self_time(0.0, 10.0, []) == 10.0


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_tracer_self_times_and_accounting_close():
    tracer = Tracer("run", clock=FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0]))
    root = tracer.open("pass")  # 0..10
    outer = tracer.open("sweep")  # 1..9
    inner = tracer.open("engine")  # 2..4
    tracer.close(inner)
    second = tracer.open("power")  # 5..6
    tracer.close(second)
    tracer.close(outer)
    tracer.close(root)
    selfs = tracer.self_times()
    assert selfs[inner.id] == 2.0
    assert selfs[second.id] == 1.0
    assert selfs[outer.id] == 8.0 - 3.0
    residue = check_accounting(tracer, root)
    assert residue == 2.0
    assert residue + sum(selfs[s.id] for s in tracer.descendants(root)) == 10.0


def test_accounting_breaks_on_overlapping_siblings():
    tracer = Tracer("run", clock=FakeClock([0.0, 1.0, 3.0, 2.0, 4.0, 10.0]))
    root = tracer.open("pass")
    first = tracer.open("a")  # 1..3
    tracer.close(first)
    second = tracer.open("b")  # 2..4, overlaps a
    tracer.close(second)
    tracer.close(root)
    with pytest.raises(AccountingError):
        check_accounting(tracer, root)


def test_wrapper_records_parent_links_and_restores():
    from perfbench.tracer import Patcher

    class Layer:
        def work(self, x):
            return x * 2

    tracer = Tracer("run")
    patcher = Patcher()
    patcher.replace(Layer, "work", tracer.wrapper(Layer.work, "layer.work"))
    root = tracer.open("pass")
    assert Layer().work(21) == 42
    tracer.close(root)
    patcher.restore()
    assert Layer().work(1) == 2
    [span] = tracer.descendants(root)
    assert (span.name, span.parent) == ("layer.work", root.id)
    assert len(tracer.spans) == 2


# -- output checks ------------------------------------------------------------


def test_mismatch_detection_catches_a_one_ulp_perturbation():
    from perfbench import workloads

    expected = workloads.load_expected()
    pid = workloads.point_id("h264_camcorder", "3.1", 1, 400.0)
    point = workloads.compute_exact("h264_camcorder", "3.1", 1, 400.0)
    assert workloads.mismatched(expected, [(pid, point)]) == []

    perturbed = json.loads(json.dumps(expected))
    entry = perturbed[pid]
    entry["access_time_ms"] = math.nextafter(entry["access_time_ms"], math.inf)
    assert workloads.mismatched(perturbed, [(pid, point)]) == [pid]

    perturbed = json.loads(json.dumps(expected))
    perturbed[pid]["engine_stats"]["row_hits"] += 1
    assert workloads.mismatched(perturbed, [(pid, point)]) == [pid]

    del perturbed[pid]
    assert workloads.mismatched(perturbed, [(pid, point)]) == [pid]


def test_expected_outputs_cover_every_workload_point():
    from perfbench import workloads

    expected = workloads.load_expected()
    for cls in workloads.WORKLOADS.values():
        for coords in cls(0, ROOT / ".perfbench").point_ids():
            assert workloads.point_id(*coords) in expected


def test_oracle_stream_is_seeded_and_keeps_its_shape():
    from perfbench import workloads

    first = workloads.oracle_stream(7)
    assert first == workloads.oracle_stream(7)
    assert first != workloads.oracle_stream(8)
    cells = len(workloads.ORACLE_WORKLOADS) * len(workloads.ORACLE_LEVELS) * 4
    assert len(first) == cells * (workloads.READS_PER_CELL + 4)
    # Every cell's two exact writes precede its repeat reads.
    seen = {}
    for workload, level, channels, freq, accuracy in first:
        seen.setdefault((workload, level, channels), []).append((freq, accuracy))
    for queries in seen.values():
        assert queries[0][1] == 0.0 and queries[1][1] == 0.0
        written = {queries[0][0], queries[1][0]}
        assert sum(freq in written for freq, _ in queries[2:]) >= workloads.READS_PER_CELL


# -- the benchmark definition -------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    # Each run overshoots run_seconds by at most one pass plus its checks.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) < 3420


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
