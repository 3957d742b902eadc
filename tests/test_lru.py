"""The locked LRU helper behind the process-wide memos.

Unit tests pin the ledger and the bound of :class:`repro.lru.LockedLRU`;
the stress tests drive both of its users -- the batch backend's decode
cache and the load model's frame memo -- from several threads with a
tiny interpreter switch interval, so that threads switch inside every
read-modify-write the lock has to protect.
"""

import os
import random
import signal
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.load.frames import (
    FRAME_MEMO_SIZE,
    clear_frame_memo,
    frame_for,
    frame_memo_stats,
)
from repro.lru import LockedLRU
from repro.usecase.levels import level_by_name
from repro.workloads.registry import resolve_workload

THREADS = 6


def _closed(stats, maxsize):
    return (
        stats["hits"] + stats["misses"] == stats["lookups"]
        and stats["insertions"] == stats["misses"]
        and stats["evictions"] <= stats["insertions"]
        and stats["entries"] == stats["insertions"] - stats["evictions"]
        and stats["entries"] <= maxsize
    )


def _hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on ``threads`` threads at once with
    a 1 µs switch interval; returns the per-thread results and raises
    the first exception any thread hit.  More threads than cores, so
    the interpreter, not the hardware, decides where they switch."""
    barrier = threading.Barrier(threads)
    results = [None] * threads
    errors = []

    def run(index):
        try:
            barrier.wait()
            results[index] = worker(index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool), "a thread hung"
    if errors:
        raise errors[0]
    return results


class TestLockedLRU:
    def test_hit_miss_and_recency(self):
        memo = LockedLRU(2)
        assert memo.get_or_compute("a", lambda: 1) == (1, False)
        assert memo.get_or_compute("b", lambda: 2) == (2, False)
        assert memo.get_or_compute("a", lambda: 99) == (1, True)
        memo.get_or_compute("c", lambda: 3)  # evicts "b", the least recent
        assert memo.get_or_compute("a", lambda: 99) == (1, True)
        assert memo.get_or_compute("b", lambda: 4) == (4, False)
        assert memo.stats() == {
            "hits": 2, "misses": 4, "lookups": 6, "insertions": 4,
            "evictions": 2, "entries": 2,
        }
        assert len(memo) == 2

    def test_none_is_a_storable_value(self):
        memo = LockedLRU(1)
        memo.get_or_compute("k", lambda: None)
        assert memo.get_or_compute("k", lambda: 1) == (None, True)

    def test_failed_compute_leaves_the_ledger_closed(self):
        memo = LockedLRU(4)

        def boom():
            raise RuntimeError("no value")

        with pytest.raises(RuntimeError):
            memo.get_or_compute("k", boom)
        assert memo.stats()["lookups"] == 0
        assert memo.get_or_compute("k", lambda: 1) == (1, False)
        assert _closed(memo.stats(), 4)

    def test_clear_resets_entries_and_counters(self):
        memo = LockedLRU(4)
        memo.get_or_compute("k", lambda: 1)
        memo.clear()
        assert memo.stats() == dict.fromkeys(
            ("hits", "misses", "lookups", "insertions", "evictions", "entries"), 0
        )

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LockedLRU(0)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_does_not_inherit_a_held_lock(self):
        memo = LockedLRU(2)
        with memo._lock:  # as if another thread were mid-lookup
            pid = os.fork()
            if pid == 0:  # the child: a hang ends with SIGALRM
                signal.alarm(10)
                memo.get_or_compute("k", lambda: 1)
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_each_key_is_computed_once_under_contention(self):
        memo = LockedLRU(64)
        computed = []

        def worker(index):
            return [
                memo.get_or_compute(key, lambda key=key: computed.append(key) or key)[0]
                for key in range(32)
                for _ in range(20)
            ]

        results = _hammer(worker)
        assert sorted(computed) == list(range(32))
        assert all(result == results[0] for result in results)
        stats = memo.stats()
        assert _closed(stats, 64)
        assert stats["lookups"] == THREADS * 32 * 20


class TestThreadedDecodeCache:
    def test_ledger_closes_and_results_match_across_threads(self):
        np = pytest.importorskip("numpy", reason="batch backend needs numpy")
        from repro.backends import batch
        from repro.core.channel import Channel
        from repro.core.config import SystemConfig

        mapping = Channel(SystemConfig(channels=1, backend="batch")).engine.mapping
        tables = [
            np.array(
                [[0, 64 * i, 32 + i, 0], [1, 4096 + 64 * i, 16, 0]],
                dtype=np.int64,
            )
            for i in range(48)
        ]

        def signature(decoded):
            return (
                decoded.segments, decoded.n_rd, decoded.n_wr, decoded.bank_counts
            )

        expected = [signature(batch._decode_stream(t, mapping)) for t in tables]
        lookups = 400

        def worker(index):
            order = random.Random(index)
            seen = []
            for _ in range(lookups):
                i = order.randrange(len(tables))
                seen.append((i, signature(batch._decode_cached(tables[i], mapping))))
            return seen

        for seen in _hammer(worker):
            assert all(sig == expected[i] for i, sig in seen)
        stats = batch.decode_cache_stats()
        assert _closed(stats, batch.DECODE_CACHE_SIZE)
        assert stats["lookups"] == THREADS * lookups
        assert stats["evictions"] > 0  # 48 tables churn a 32-entry cache


class TestThreadedFrameMemo:
    def test_ledger_closes_and_frames_match_across_threads(self):
        bound = resolve_workload("h264_camcorder")
        level = level_by_name("3.1")
        budgets = [1000 + i for i in range(12)]  # 12 keys churn 8 slots

        def frame(budget):
            return frame_for(bound, level, scale=1 / 256, chunk_budget=budget)

        expected = {budget: frame(budget) for budget in budgets}
        clear_frame_memo()
        lookups = 60

        def worker(index):
            order = random.Random(index)
            seen = []
            for _ in range(lookups):
                budget = order.choice(budgets)
                seen.append((budget, frame(budget)))
            return seen

        for seen in _hammer(worker):
            assert all(got == expected[budget] for budget, got in seen)
        stats = frame_memo_stats()
        assert _closed(stats, FRAME_MEMO_SIZE)
        assert stats["lookups"] == THREADS * lookups
