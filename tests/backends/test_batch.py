"""Batch-backend specifics: numpy gating, decode cache, fallbacks.

Cross-backend parity/registry/checkpoint behaviour lives in the
sibling suites (parametrized over ``batch``); this file pins what is
unique to the batch engine -- the optional-dependency error path, the
cross-point decode cache, and the exact-fallback paths that delegate
to the reference stepper.
"""

from collections import OrderedDict

import hypothesis
import pytest
from hypothesis import strategies as st

np = pytest.importorskip("numpy", reason="batch backend needs numpy")

from repro.backends import batch as batch_module
from repro.backends.registry import get_backend
from repro.controller.mapping import AddressMultiplexing
from repro.core.channel import Channel
from repro.core.config import PagePolicy, SystemConfig
from repro.errors import AddressError, ConfigurationError

RUNS = [(0, 0, 512), (1, 4096, 512), (0, 64, 256)]


@pytest.fixture
def fresh_cache():
    batch_module.clear_decode_cache()
    yield
    batch_module.clear_decode_cache()


class TestNumpyGating:
    def test_create_without_numpy_raises_configuration_error(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_np", None)
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("batch").create(SystemConfig(backend="batch"))
        message = str(excinfo.value)
        assert "numpy" in message
        assert "repro[batch]" in message
        # The error must point at working alternatives.
        for name in ("reference", "fast", "analytic"):
            assert name in message

    def test_registry_entry_resolves_without_numpy(self, monkeypatch):
        # Selecting the name must stay cheap and legal without numpy;
        # only *creating* an engine requires the extra.
        monkeypatch.setattr(batch_module, "_np", None)
        config = SystemConfig(backend="batch")
        assert config.backend == "batch"


class TestDecodeCache:
    def test_sweep_points_share_one_decode(self, fresh_cache):
        config = SystemConfig(channels=1, backend="batch")
        for freq in (200.0, 266.0, 333.0, 400.0):
            Channel(config.with_frequency(freq)).run(RUNS)
        stats = batch_module.decode_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_distinct_mappings_decode_separately(self, fresh_cache):
        config = SystemConfig(channels=1, backend="batch")
        Channel(config).run(RUNS)
        remapped = SystemConfig(
            channels=1,
            backend="batch",
            multiplexing=AddressMultiplexing.BRC,
        )
        Channel(remapped).run(RUNS)
        stats = batch_module.decode_cache_stats()
        assert stats["misses"] == 2

    def test_cache_is_bounded(self, fresh_cache):
        config = SystemConfig(channels=1, backend="batch")
        for i in range(batch_module.DECODE_CACHE_SIZE + 4):
            Channel(config).run([(0, i * 16, 64)])
        assert len(batch_module._DECODE_CACHE) == batch_module.DECODE_CACHE_SIZE

    def test_stats_ledger_closes_after_real_runs(self, fresh_cache):
        # Overflow the cache with distinct run lists, revisit a few:
        # the counters must close as a ledger, not merely trend.
        config = SystemConfig(channels=1, backend="batch")
        for i in range(batch_module.DECODE_CACHE_SIZE + 6):
            Channel(config).run([(0, i * 16, 64)])
        Channel(config).run([(0, (batch_module.DECODE_CACHE_SIZE + 5) * 16, 64)])
        stats = batch_module.decode_cache_stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["insertions"] == stats["misses"]
        assert stats["evictions"] <= stats["insertions"]
        assert stats["entries"] == stats["insertions"] - stats["evictions"]
        assert stats["entries"] <= batch_module.DECODE_CACHE_SIZE
        assert stats["evictions"] == 6
        assert stats["hits"] == 1


class TestDecodeCacheLedgerProperty:
    """Property test: the decode-cache counters form a closed ledger
    under *any* lookup sequence, including eviction churn.

    Drives :func:`batch._decode_cached` directly with a stubbed decode
    (the ledger does not care what a segment table contains) and
    checks, after every single operation, the invariants documented on
    :func:`batch.decode_cache_stats` plus exact hit/miss agreement
    with a model LRU.
    """

    class _StubMapping:
        bank_shift = bank_mask = row_shift = row_mask = 0
        xor_shift = xor_mask = 0

    @hypothesis.given(
        sequence=st.lists(
            st.integers(min_value=0, max_value=2 * batch_module.DECODE_CACHE_SIZE),
            max_size=150,
        )
    )
    def test_ledger_invariants_hold_after_every_op(self, sequence):
        real_decode = batch_module._decode_stream
        batch_module._decode_stream = lambda runs, mapping: object()
        batch_module.clear_decode_cache()
        try:
            model = OrderedDict()
            model_hits = 0
            for key_id in sequence:
                table = np.array([[0, key_id, 0, 0]], dtype=np.int64)
                batch_module._decode_cached(table, self._StubMapping())
                if key_id in model:
                    model.move_to_end(key_id)
                    model_hits += 1
                else:
                    model[key_id] = True
                    while len(model) > batch_module.DECODE_CACHE_SIZE:
                        model.popitem(last=False)
                stats = batch_module.decode_cache_stats()
                assert stats["hits"] + stats["misses"] == stats["lookups"]
                assert stats["insertions"] == stats["misses"]
                assert stats["evictions"] <= stats["insertions"]
                assert (
                    stats["entries"]
                    == stats["insertions"] - stats["evictions"]
                )
                assert stats["entries"] <= batch_module.DECODE_CACHE_SIZE
                assert stats["hits"] == model_hits
                assert stats["entries"] == len(model)
            stats = batch_module.decode_cache_stats()
            assert stats["lookups"] == len(sequence)
        finally:
            batch_module._decode_stream = real_decode
            batch_module.clear_decode_cache()


class TestFallbacks:
    def test_closed_page_falls_back_to_reference_loop(self):
        config = SystemConfig(
            channels=1, page_policy=PagePolicy.CLOSED, backend="batch"
        )
        ref = Channel(config.with_backend("reference")).run(RUNS)
        out = Channel(config).run(RUNS)
        assert out == ref

    def test_invariant_checking_engine_matches_reference(self):
        config = SystemConfig(channels=1, backend="batch")
        engine = get_backend("batch").create(config)
        engine.check_invariants = True
        ref = Channel(config.with_backend("reference")).run(RUNS)
        assert engine.run(RUNS) == ref

    def test_capacity_error_matches_reference_message(self):
        config = SystemConfig(channels=1, backend="batch")
        huge = [(0, 0, 1 << 40)]
        with pytest.raises(AddressError) as batch_err:
            Channel(config).run(huge)
        with pytest.raises(AddressError) as ref_err:
            Channel(config.with_backend("reference")).run(huge)
        assert str(batch_err.value) == str(ref_err.value)
