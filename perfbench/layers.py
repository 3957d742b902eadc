"""Spans around each layer's public entry points, and the per-layer
metrics and accounting identities derived from them.

Every wrapper is installed at the attribute its callers look the entry
point up through (a class attribute, or the importing module's global),
so nothing under ``src/`` changes and every call is seen.  The pass
must run in-process for that: a pool worker's calls are invisible.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from perfbench.tracer import AccountingError, Patcher, Span, Tracer, check_accounting

import repro.analysis.experiments as experiments_module
import repro.analysis.sweep as sweep_module
import repro.keys as keys_module
import repro.oracle.api as oracle_module
import repro.resilience.checkpoint as checkpoint_module
from repro.backends.batch import decode_cache_stats
from repro.core.channel import Channel
from repro.core.system import MultiChannelMemorySystem
from repro.load.model import VideoRecordingLoadModel
from repro.service.cache import ResultCache
from repro.workloads.spec import BoundWorkload

ORACLE_CLASSES = ("surrogate", "analytic", "exact_hit", "exact_computed")


class LayerLog:
    """Side records the wrappers keep besides the spans themselves."""

    def __init__(self) -> None:
        #: ResultCache instances seen, with their stats when first seen.
        self.caches: Dict[int, ResultCache] = {}
        self.cache_baseline: Dict[int, Dict[str, int]] = {}
        self.put_paths: List[str] = []

    def see_cache(self, cache: ResultCache) -> None:
        if id(cache) not in self.caches:
            self.caches[id(cache)] = cache
            self.cache_baseline[id(cache)] = cache.stats()

    def rebase(self) -> None:
        """Make the current cache statistics the baseline (pass start)."""
        for key, cache in self.caches.items():
            self.cache_baseline[key] = cache.stats()

    def cache_deltas(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for key, cache in self.caches.items():
            now, then = cache.stats(), self.cache_baseline[key]
            for name, value in now.items():
                totals[name] = totals.get(name, 0) + value - then.get(name, 0)
        return totals


def instrument(tracer: Tracer, log: LayerLog) -> Patcher:
    """Install a span wrapper on every layer entry point."""
    patcher = Patcher()

    def wrap(owner: object, attr: str, name: str, before=None, after=None) -> None:
        patcher.replace(
            owner, attr, tracer.wrapper(getattr(owner, attr), name, before, after)
        )

    def note_transactions(span: Span, args: tuple, result: Any, _: Any) -> None:
        span.attrs["transactions"] = len(result)

    def note_chunks(span: Span, args: tuple, result: Any, _: Any) -> None:
        span.attrs["chunks"] = sum(
            channel.chunks_read + channel.chunks_written for channel in result.channels
        )

    def note_channel(span: Span, args: tuple, result: Any, _: Any) -> None:
        span.attrs["channels"] = args[0].config.channels
        span.attrs["bursts"] = result.chunks_read + result.chunks_written

    def see_cache(args: tuple) -> None:
        log.see_cache(args[0])

    def note_get(span: Span, args: tuple, result: Any, _: Any) -> None:
        span.attrs["hit"] = result is not None

    def note_put(span: Span, args: tuple, result: Any, _: Any) -> None:
        log.put_paths.append(str(args[0].entry_path(args[1])))

    def surfaces_before(args: tuple) -> int:
        return len(args[0]._surfaces)

    def note_surface(span: Span, args: tuple, result: Any, before: int) -> None:
        span.attrs["built"] = len(args[0]._surfaces) > before

    def note_query(span: Span, args: tuple, result: Any, _: Any) -> None:
        span.attrs["tier"] = result.tier
        span.attrs["escalations"] = result.escalations

    wrap(BoundWorkload, "instantiate", "workloads.instantiate")
    wrap(VideoRecordingLoadModel, "generate_frame", "load.generate", after=note_transactions)
    wrap(MultiChannelMemorySystem, "run", "system.run", after=note_chunks)
    wrap(Channel, "run", "engine", after=note_channel)
    wrap(sweep_module, "compute_frame_power", "power.integrate")
    wrap(sweep_module, "simulate_use_case", "sweep.point")
    sweep_fn = sweep_module.sweep_use_case
    traced_sweep = tracer.wrapper(sweep_fn, "sweep")
    for module in (sweep_module, experiments_module, oracle_module):
        patcher.replace(module, "sweep_use_case", traced_sweep)
    wrap(ResultCache, "get", "cache.get", before=see_cache, after=note_get)
    wrap(ResultCache, "put", "cache.put", before=see_cache, after=note_put)
    traced_key = tracer.wrapper(keys_module.canonical_key, "keys.canonical_key")
    for module in (keys_module, oracle_module, checkpoint_module):
        patcher.replace(module, "canonical_key", traced_key)
    wrap(
        oracle_module.FeasibilityOracle, "surface_for", "oracle.surface_for",
        before=surfaces_before, after=note_surface,
    )
    wrap(oracle_module.FeasibilityOracle, "query", "oracle.query", after=note_query)
    return patcher


def decode_ledger() -> Dict[str, int]:
    stats = decode_cache_stats()
    if stats["hits"] + stats["misses"] != stats["lookups"]:
        raise AccountingError(f"decode cache ledger broken: {stats}")
    return stats


def layer_metrics(
    tracer: Tracer,
    root: Span,
    log: LayerLog,
    decode_before: Dict[str, int],
    decode_after: Dict[str, int],
    setup_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``root``), plus the checks
    that its accounting closes.  Surface builds are taken from the
    whole process and reported as a share of ``setup_s``: they are
    set-up work."""
    wall = root.duration
    selfs = tracer.self_times()
    spans = tracer.descendants(root)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str, **match: Any) -> float:
        return sum(
            selfs[s.id]
            for s in by_name.get(name, ())
            if all(s.attrs.get(k) == v for k, v in match.items())
        )

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, attr: str) -> int:
        return sum(s.attrs[attr] for s in by_name.get(name, ()))

    residue = check_accounting(tracer, root)
    gets = by_name.get("cache.get", [])
    hits = sum(1 for s in gets if s.attrs["hit"])
    deltas = log.cache_deltas()
    if (deltas.get("hits", 0), deltas.get("misses", 0)) != (hits, len(gets) - hits):
        raise AccountingError(
            f"{len(gets)} cache gets traced ({hits} hits) but ResultCache.stats() "
            f"moved by {deltas.get('hits', 0)} hits + {deltas.get('misses', 0)} misses"
        )
    if deltas.get("writes", 0) != count("cache.put"):
        raise AccountingError(
            f"{count('cache.put')} cache puts traced but "
            f"{deltas.get('writes', 0)} writes counted"
        )
    lookups = decode_after["lookups"] - decode_before["lookups"]
    decode_hits = decode_after["hits"] - decode_before["hits"]

    queries = by_name.get("oracle.query", [])
    children = tracer.children()
    grouped: Dict[str, List[Span]] = {name: [] for name in ORACLE_CLASSES}
    for span in queries:
        tier = span.attrs["tier"]
        if tier == "exact":
            computed = any(c.name == "sweep" for c in children.get(span.id, ()))
            tier = "exact_computed" if computed else "exact_hit"
        grouped[tier].append(span)
    built = [
        s for s in tracer.spans if s.name == "oracle.surface_for" and s.attrs["built"]
    ]

    metrics: Dict[str, float] = {
        "workloads.instantiate_s": total("workloads.instantiate"),
        "workloads.instantiate_calls": count("workloads.instantiate"),
        "load.generate_s": total("load.generate"),
        "load.generate_calls": count("load.generate"),
        "load.transactions": attr_sum("load.generate", "transactions"),
        "system.interleave_s": total("system.run"),
        "system.chunks": attr_sum("system.run", "chunks"),
        "engine.s": total("engine"),
        "engine.s_ch1": total("engine", channels=1),
        "engine.s_ch8": total("engine", channels=8),
        "engine.calls": count("engine"),
        "engine.bursts": attr_sum("engine", "bursts"),
        "engine.decode_hit_ratio": decode_hits / lookups if lookups else 0.0,
        "power.integrate_s": total("power.integrate"),
        "sweep.self_s": total("sweep"),
        "cache.get_share": total("cache.get") / wall,
        "cache.put_share": total("cache.put") / wall,
        "cache.gets": len(gets),
        "cache.puts": count("cache.put"),
        "cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "cache.bytes_written": sum(os.path.getsize(p) for p in log.put_paths),
        "keys.canonical_key_share": total("keys.canonical_key") / wall,
        "keys.canonical_key_calls": count("keys.canonical_key"),
        "oracle.surface_build_share": sum(s.duration for s in built) / setup_s,
        "oracle.escalations_per_query": (
            sum(s.attrs["escalations"] for s in queries) / len(queries) if queries else 0.0
        ),
        "trace.unattributed_s": residue,
    }
    for name, members in grouped.items():
        metrics[f"oracle.time_share.{name}"] = sum(s.duration for s in members) / wall
        metrics[f"oracle.tier_share.{name}"] = (
            len(members) / len(queries) if queries else 0.0
        )
    return metrics


def crosscheck(
    traced: Dict[str, float], profile: Any, tolerance: float, floor_s: float
) -> Dict[str, Dict[str, float]]:
    """Compare the outside-in layer times with ``PhaseProfiler``'s
    phases of the same names; raises when one disagrees by more than
    ``tolerance`` (relative) plus ``floor_s`` (absolute)."""
    pairs = {
        "load.generate_s": "load.generate",
        "system.interleave_s": "system.interleave",
        "engine.s": "system.engine",
        "power.integrate_s": "power.integrate",
    }
    table: Dict[str, Dict[str, float]] = {}
    for ours, phase in pairs.items():
        theirs = profile.seconds(phase)
        table[ours] = {"traced_s": traced[ours], "profiler_s": theirs}
        if abs(traced[ours] - theirs) > tolerance * theirs + floor_s:
            raise AccountingError(
                f"{ours} = {traced[ours]:.4f} s from the wrappers but the "
                f"profiler's {phase} phase says {theirs:.4f} s"
            )
    return table
