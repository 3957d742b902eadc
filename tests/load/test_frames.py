"""The per-process frame memo (:mod:`repro.load.frames`).

The contracts under test:

1. *Transparency*: a point whose frame comes from the memo is
   bit-identical to one whose frame was just generated.
2. *No aliasing*: every component of the key -- workload name,
   parameter binding, spec structure, level, scale, chunk budget and
   block size -- misses on its own.
3. *Isolation*: the legacy ``use_case=`` hook bypasses the memo, and a
   stored frame cannot be changed by the consumers sharing it.
4. *Accounting*: the memo's counters form the closed ledger of
   :class:`~repro.lru.LockedLRU`, and telemetry counts hits and misses
   while timing the ``load.*`` phases on misses only.
"""

import dataclasses
from collections import OrderedDict

import hypothesis
import pytest
from hypothesis import strategies as st

from repro.analysis.steadystate import analyze_gop
from repro.analysis.sweep import simulate_use_case
from repro.core.config import SystemConfig
from repro.load import frames
from repro.load.frames import (
    FRAME_MEMO_SIZE,
    clear_frame_memo,
    frame_for,
    frame_memo_stats,
)
from repro.regression.fuzzer import _diff_exact
from repro.telemetry.session import Telemetry
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase
from repro.workloads.registry import (
    get_workload,
    register_workload,
    resolve_workload,
    unregister_workload,
)

LEVEL = level_by_name("3.1")
CONFIG = SystemConfig(channels=2, freq_mhz=400.0)
SCALE = 1.0 / 256.0
CAMCORDER = resolve_workload("h264_camcorder")


def _frame(**overrides):
    args = dict(
        workload=CAMCORDER, level=LEVEL, scale=SCALE, chunk_budget=20_000,
        block_bytes=4096,
    )
    args.update(overrides)
    return frame_for(**args)


class TestTransparency:
    def test_hit_is_bit_identical_to_a_cold_miss(self):
        other = CONFIG.with_frequency(266.0).with_channels(4)
        simulate_use_case(LEVEL, CONFIG, chunk_budget=20_000)
        hot = simulate_use_case(LEVEL, other, chunk_budget=20_000)
        assert (frame_memo_stats()["misses"], frame_memo_stats()["hits"]) == (1, 1)
        clear_frame_memo()
        cold = simulate_use_case(LEVEL, other, chunk_budget=20_000)
        assert frame_memo_stats()["misses"] == 1
        assert _diff_exact(cold.result, hot.result) == []
        assert hot.power == cold.power
        assert hot.verdict is cold.verdict

    def test_memo_matches_the_legacy_generation_path(self):
        memo = simulate_use_case(LEVEL, CONFIG, scale=SCALE)
        legacy = simulate_use_case(
            LEVEL, CONFIG, scale=SCALE, use_case=VideoRecordingUseCase(LEVEL)
        )
        assert _diff_exact(legacy.result, memo.result) == []
        assert memo.power == legacy.power

    def test_resolved_scale_is_memoised_with_the_frame(self):
        scale, transactions = _frame(scale=None, chunk_budget=20_000)
        again_scale, again = _frame(scale=None, chunk_budget=20_000)
        assert scale < 1.0
        assert (again_scale, again) == (scale, transactions)
        assert again is transactions


class TestKeyComponents:
    def _misses_once_more(self, **overrides):
        _frame()
        before = frame_memo_stats()["misses"]
        _frame(**overrides)
        assert frame_memo_stats()["misses"] == before + 1
        _frame(**overrides)
        assert frame_memo_stats()["misses"] == before + 1

    def test_same_key_hits(self):
        _frame()
        _frame()
        stats = frame_memo_stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_workload_name(self):
        self._misses_once_more(workload=resolve_workload("vdcm_display"))

    def test_parameter_override(self):
        vvc = resolve_workload("vvc_encoder")
        _frame(workload=vvc)
        before = frame_memo_stats()["misses"]
        _frame(workload=vvc.with_params(encoder_factor=13.0))
        assert frame_memo_stats()["misses"] == before + 1

    def test_reregistered_spec_with_other_structure(self):
        original = resolve_workload("vdcm_display")
        spec = get_workload("vdcm_display")
        register_workload(
            dataclasses.replace(spec, stages=spec.stages[:-1]), replace=True
        )
        try:
            shadowed = resolve_workload("vdcm_display")
        finally:
            unregister_workload("vdcm_display")
        assert shadowed.name == original.name
        _, kept = _frame(workload=original)
        _, cut = _frame(workload=shadowed)
        assert frame_memo_stats()["misses"] == 2
        assert len(cut) < len(kept)

    def test_level(self):
        self._misses_once_more(level=level_by_name("4"))

    def test_scale(self):
        self._misses_once_more(scale=SCALE * 2)

    def test_chunk_budget(self):
        self._misses_once_more(chunk_budget=40_000)

    def test_block_bytes(self):
        self._misses_once_more(block_bytes=2048)


class TestIsolation:
    def test_legacy_use_case_bypasses_the_memo(self):
        simulate_use_case(
            LEVEL, CONFIG, scale=SCALE, use_case=VideoRecordingUseCase(LEVEL)
        )
        assert frame_memo_stats()["lookups"] == 0

    def test_stored_frame_cannot_be_mutated(self):
        _, transactions = _frame()
        assert isinstance(transactions, tuple)
        with pytest.raises(AttributeError):
            transactions.append(transactions[0])
        with pytest.raises(TypeError):
            transactions[0] = transactions[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            transactions[0].size = 16
        assert _frame()[1] is transactions

    def test_memo_is_bounded(self):
        for budget in range(FRAME_MEMO_SIZE + 3):
            _frame(chunk_budget=1000 + budget)
        stats = frame_memo_stats()
        assert stats["entries"] == FRAME_MEMO_SIZE
        assert stats["evictions"] == 3

    def test_gop_analysis_shares_its_frames(self):
        first = analyze_gop(LEVEL, CONFIG, chunk_budget=20_000)
        assert frame_memo_stats()["misses"] == 2  # one I and one P frame
        second = analyze_gop(LEVEL, CONFIG.with_channels(4), chunk_budget=20_000)
        stats = frame_memo_stats()
        assert (stats["misses"], stats["hits"]) == (2, 2)
        assert second.i_frame_ms < first.i_frame_ms


class TestTelemetry:
    def test_phases_on_misses_only_and_both_counters_registered(self):
        cold = Telemetry.enabled()
        simulate_use_case(LEVEL, CONFIG, scale=SCALE, telemetry=cold)
        counters = cold.registry.as_dict()["counters"]
        assert (counters["load.memo_hits"], counters["load.memo_misses"]) == (0, 1)
        phases = {stat.name for stat in cold.profile_report().phases}
        assert {"load.build", "load.scale", "load.generate"} <= phases

        warm = Telemetry.enabled()
        simulate_use_case(LEVEL, CONFIG, scale=SCALE, telemetry=warm)
        counters = warm.registry.as_dict()["counters"]
        assert (counters["load.memo_hits"], counters["load.memo_misses"]) == (1, 0)
        phases = {stat.name for stat in warm.profile_report().phases}
        assert not {name for name in phases if name.startswith("load.")}
        assert "system.engine" in phases


class TestLedgerProperty:
    """Property test: the memo's counters form a closed ledger under
    any lookup sequence, with exact hit/miss agreement with a model
    LRU.  Generation is stubbed out: the ledger does not care what a
    frame contains."""

    @hypothesis.given(
        sequence=st.lists(
            st.integers(min_value=0, max_value=2 * FRAME_MEMO_SIZE),
            max_size=120,
        )
    )
    def test_ledger_invariants_hold_after_every_op(self, sequence):
        real_build = frames.build_frame
        frames.build_frame = lambda *args: (1.0, ())
        clear_frame_memo()
        try:
            model = OrderedDict()
            model_hits = 0
            for key_id in sequence:
                _frame(chunk_budget=1000 + key_id)
                if key_id in model:
                    model.move_to_end(key_id)
                    model_hits += 1
                else:
                    model[key_id] = True
                    while len(model) > FRAME_MEMO_SIZE:
                        model.popitem(last=False)
                stats = frame_memo_stats()
                assert stats["hits"] + stats["misses"] == stats["lookups"]
                assert stats["insertions"] == stats["misses"]
                assert stats["evictions"] <= stats["insertions"]
                assert stats["entries"] == stats["insertions"] - stats["evictions"]
                assert stats["entries"] <= FRAME_MEMO_SIZE
                assert stats["hits"] == model_hits
                assert stats["entries"] == len(model)
            assert frame_memo_stats()["lookups"] == len(sequence)
        finally:
            frames.build_frame = real_build
            clear_frame_memo()
