"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` keeps the
two in step.  Free of any ``repro`` import, like the parent process.
"""

from typing import Dict

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "bursts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics in ``BENCHMARK.json`` order: name -> unit.  A
#: layer that some workload never reaches reports its time as a share
#: of the pass (unit ``frac``), not in seconds: a duration that reads 0
#: on every run is indistinguishable from one that was never measured.
PER_LAYER_UNITS: Dict[str, str] = {
    "import.repro_cli_s": "s",
    "import.batch_backend_s": "s",
    "workloads.instantiate_s": "s",
    "workloads.instantiate_calls": "count",
    "load.generate_s": "s",
    "load.generate_calls": "count",
    "load.transactions": "count",
    "system.interleave_s": "s",
    "system.chunks": "count",
    "engine.s": "s",
    "engine.s_ch1": "s",
    "engine.s_ch8": "s",
    "engine.calls": "count",
    "engine.bursts": "count",
    "engine.decode_hit_ratio": "ratio",
    "power.integrate_s": "s",
    "sweep.self_s": "s",
    "cache.get_share": "frac",
    "cache.put_share": "frac",
    "cache.gets": "count",
    "cache.puts": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes_written": "bytes",
    "keys.canonical_key_share": "frac",
    "keys.canonical_key_calls": "count",
    "oracle.surface_build_share": "frac",
    "oracle.time_share.surrogate": "frac",
    "oracle.time_share.analytic": "frac",
    "oracle.time_share.exact_hit": "frac",
    "oracle.time_share.exact_computed": "frac",
    "oracle.tier_share.surrogate": "ratio",
    "oracle.tier_share.analytic": "ratio",
    "oracle.tier_share.exact_hit": "ratio",
    "oracle.tier_share.exact_computed": "ratio",
    "oracle.escalations_per_query": "ratio",
    "oracle.interval_miss.surrogate": "ratio",
    "oracle.interval_miss.analytic": "ratio",
    "oracle.interval_miss_frac": "ratio",
    "parallel.speedup": "ratio",
    "parallel.result_bytes": "bytes",
    "sim.row_hit_ratio": "ratio",
    "sim.bank_conflicts": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

