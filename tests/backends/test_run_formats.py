"""Run formats every backend accepts: tuples, ``ChannelRun`` objects and
run tables (``(n, 4)`` int64 arrays, what the interleaver builds).

- a non-integer op, start, count or arrival is refused with a
  :class:`~repro.errors.ConfigurationError` on every backend (batch used
  to truncate ``16.5`` to ``16`` and simulate it; the others failed with
  an untyped ``TypeError`` deep in their shift arithmetic);
- the same runs give the same result in every format;
- on ``batch``, the same run content in any format is one decode-cache
  entry.
"""

import importlib.util

import pytest

from repro.backends import available_backends
from repro.controller.frfcfs import ReorderingChannelEngine
from repro.controller.request import ChannelRun, Op
from repro.core.channel import Channel
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="needs the numpy optional extra"
)

BACKENDS = [
    pytest.param(name, marks=needs_numpy) if name == "batch" else name
    for name in available_backends()
]

RUNS = [(0, 0, 64, 0), (1, 64, 32, 0), (0, 4096, 48, 500)]


def _simulator(backend):
    """The ``run`` callable of a one-channel system on ``backend``."""
    return Channel(SystemConfig(channels=1, backend=backend)).run


def _frfcfs():
    return ReorderingChannelEngine(SystemConfig().device, 400.0).run


NON_INTEGRAL = [
    pytest.param([(0, 16.5, 64)], id="float-start"),
    pytest.param([(0, 16, 64.5, 0)], id="float-count"),
    pytest.param([(0, 16, 64, 2.5)], id="float-arrival"),
    pytest.param([(0.0, 16, 64)], id="float-op"),
    pytest.param([(0, "16", 64)], id="str-start"),
    pytest.param([ChannelRun(Op.READ, 16.5, 64)], id="channelrun-float-start"),
    pytest.param([(0, 0, 64), (0, 16.0, 64)], id="integral-float-later"),
]


class TestNonIntegralRunsRefused:
    @pytest.mark.parametrize("runs", NON_INTEGRAL)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_refuses(self, backend, runs):
        with pytest.raises(ConfigurationError, match="must be integers"):
            _simulator(backend)(runs)

    @pytest.mark.parametrize("runs", NON_INTEGRAL)
    def test_frfcfs_refuses(self, runs):
        with pytest.raises(ConfigurationError, match="must be integers"):
            _frfcfs()(runs)

    @needs_numpy
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_float_table_refused(self, backend):
        import numpy as np

        table = np.array([[0, 16.5, 64, 0]])
        with pytest.raises(ConfigurationError, match="must be integers"):
            _simulator(backend)(table)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bool_and_enum_fields_accepted(self, backend):
        # bool is an int subclass and Op an IntEnum: both stay legal.
        run = _simulator(backend)
        assert run([(Op.WRITE, 0, 64), (True, 64, 64)]) == run(
            [(1, 0, 64), (1, 64, 64)]
        )


@needs_numpy
class TestTableInput:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table_equals_tuples(self, backend):
        import numpy as np

        run = _simulator(backend)
        assert run(np.array(RUNS, dtype=np.int64)) == run(RUNS)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_three_column_table_means_arrival_zero(self, backend):
        import numpy as np

        runs = [(0, 0, 64), (1, 64, 32)]
        run = _simulator(backend)
        assert run(np.array(runs, dtype=np.int64)) == run(runs)

    def test_frfcfs_table_equals_tuples(self):
        import numpy as np

        assert _frfcfs()(np.array(RUNS, dtype=np.int64)) == _frfcfs()(RUNS)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_rows_raise_like_tuples(self, backend):
        import numpy as np

        run = _simulator(backend)
        for bad in ([(2, 0, 1, 0)], [(0, 0, 0, 0)], [(0, -1, 1, 0)], [(0, 0, 1, -1)]):
            with pytest.raises(ConfigurationError) as from_tuples:
                run(bad)
            with pytest.raises(ConfigurationError) as from_table:
                run(np.array(bad, dtype=np.int64))
            assert str(from_table.value) == str(from_tuples.value)


@needs_numpy
class TestOneDecodeEntryPerContent:
    def test_ndarray_tuples_and_channelruns_share_an_entry(self):
        import numpy as np

        from repro.backends import batch

        run = _simulator("batch")
        formats = [
            np.array(RUNS, dtype=np.int64),
            list(RUNS),
            [ChannelRun(Op(r[0]), *r[1:]) for r in RUNS],
            # A non-contiguous int32 view of the same rows.
            np.repeat(np.array(RUNS, dtype=np.int32), 2, axis=1)[:, ::2],
        ]
        assert formats[3].tolist() == [list(r) for r in RUNS]
        batch.clear_decode_cache()
        try:
            results = [run(runs) for runs in formats]
            stats = batch.decode_cache_stats()
        finally:
            batch.clear_decode_cache()
        assert all(result == results[0] for result in results)
        assert stats["misses"] == 1
        assert stats["hits"] == len(formats) - 1
        assert stats["entries"] == 1

    def test_arrival_less_tuples_share_the_zero_arrival_entry(self):
        from repro.backends import batch

        run = _simulator("batch")
        batch.clear_decode_cache()
        try:
            run([(0, 0, 64), (1, 64, 32)])
            run([(0, 0, 64, 0), (1, 64, 32, 0)])
            stats = batch.decode_cache_stats()
        finally:
            batch.clear_decode_cache()
        assert (stats["misses"], stats["hits"]) == (1, 1)
