"""Whole-stream split parity: vectorised == scalar == Table II.

Every backend consumes the interleaver's per-channel runs, so a split
bug would be invisible to the differential fuzzer; this file pins the
split itself.  ``split_stream_numpy`` must give exactly the rows of
``split_stream_python`` (each called explicitly), and both must equal a
model built one chunk at a time from the single-address Table II
mapping (``channel_of`` / ``local_address``).  Where the scalar split
raises, the vectorised one raises the same exception type.
"""

import importlib.util
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.request import CHUNK_BYTES, MasterTransaction, Op
from repro.core.interleave import _ARRIVAL_EPSILON_CYCLES, ChannelInterleaver
from repro.errors import AddressError, ConfigurationError

needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="the vectorised split needs numpy",
)

METHODS = ["python", pytest.param("numpy", marks=needs_numpy)]

TCK_NS = 2.5  # 400 MHz


def _split(method, channels, txns, capacity, wrap=True, tck=TCK_NS):
    """One split as plain tuples, or the exception type it raised."""
    inter = ChannelInterleaver(channels)
    fn = getattr(inter, f"split_stream_{method}")
    try:
        tables, n_txns, chunks = fn(txns, capacity, tck, wrap)
    except (AddressError, ConfigurationError, ValueError, OverflowError) as exc:
        return type(exc)
    rows = [
        [tuple(r) for r in (t.tolist() if hasattr(t, "tolist") else t)]
        for t in tables
    ]
    return rows, n_txns, chunks


def _arrival_cycle(arrival_ns, tck):
    """Round up to the next clock edge, with the documented slack
    (exact rational arithmetic after the one float division)."""
    if arrival_ns is None:
        return 0
    return math.ceil(Fraction(arrival_ns / tck) - Fraction(_ARRIVAL_EPSILON_CYCLES))


def _table2_model(channels, txns, capacity, tck=TCK_NS):
    """Per-channel runs built one chunk at a time from Table II (or
    AddressError for a transaction longer than the whole memory)."""
    inter = ChannelInterleaver(channels)
    total_chunks = capacity // CHUNK_BYTES
    rows = [[] for _ in range(channels)]
    chunks = 0
    for txn in txns:
        arrival = _arrival_cycle(txn.arrival_ns, tck)
        span = txn.chunk_span()
        if len(span) > total_chunks:
            return AddressError
        chunks += len(span)
        pieces, piece = [], {}
        for g in span:
            wrapped = g % total_chunks
            if wrapped == 0 and piece:
                pieces.append(piece)
                piece = {}
            address = wrapped * CHUNK_BYTES
            local = inter.local_address(address) // CHUNK_BYTES
            piece.setdefault(inter.channel_of(address), []).append(local)
        pieces.append(piece)
        for piece in pieces:
            for ch in sorted(piece):
                local = piece[ch]
                assert local == list(range(local[0], local[0] + len(local)))
                rows[ch].append((int(txn.op), local[0], len(local), arrival))
    return rows, len(txns), chunks


@st.composite
def streams(draw):
    channels = draw(st.sampled_from([1, 2, 4, 8]))
    local_chunks = draw(st.integers(min_value=1, max_value=64))
    capacity = channels * local_chunks * CHUNK_BYTES
    address = st.one_of(
        st.integers(min_value=0, max_value=3 * capacity),
        # Just below the top of the address space: straddles the wrap.
        st.integers(min_value=max(0, capacity - 64), max_value=capacity + 64),
        # Beyond int64 (and beyond uint64) under wrap_capacity.
        st.integers(min_value=2**63 - 64, max_value=2**63 + 4 * capacity),
        st.integers(min_value=2**64, max_value=2**64 + 4 * capacity),
    )
    arrival = st.one_of(
        st.none(),
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        # On, just inside and just past a clock edge.
        st.integers(min_value=0, max_value=1000).flatmap(
            lambda k: st.sampled_from(
                [k * TCK_NS, k * TCK_NS + 1e-9, k * TCK_NS + 1e-3, k * TCK_NS - 1e-9]
            )
        ).filter(lambda a: a >= 0),
    )
    txn = st.builds(
        MasterTransaction,
        st.sampled_from([Op.READ, Op.WRITE]),
        address,
        st.integers(min_value=1, max_value=min(capacity, 600)),
        arrival,
    )
    return channels, capacity, draw(st.lists(txn, max_size=12))


@pytest.fixture
def vectorised_only(monkeypatch):
    """Make the vectorised split fail loudly if it hands a stream to the
    scalar loop (which ``_split("python", ...)`` still reaches)."""
    real = ChannelInterleaver.split_stream_python
    calls = []

    def tracked(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(ChannelInterleaver, "split_stream_python", tracked)
    numpy_split = ChannelInterleaver.split_stream_numpy

    def checked(self, *args):
        before = len(calls)
        out = numpy_split(self, *args)
        assert len(calls) == before, "well-formed stream left the vectorised split"
        return out

    monkeypatch.setattr(ChannelInterleaver, "split_stream_numpy", checked)


class TestStreamSplitParity:
    @given(streams())
    @settings(max_examples=300, deadline=None)
    def test_python_split_equals_table2_model(self, stream):
        channels, capacity, txns = stream
        assert _split("python", channels, txns, capacity) == _table2_model(
            channels, txns, capacity
        )

    @needs_numpy
    @given(streams(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_numpy_split_equals_python_split(self, stream, wrap):
        channels, capacity, txns = stream
        expected = _split("python", channels, txns, capacity, wrap)
        assert _split("numpy", channels, txns, capacity, wrap) == expected

    @needs_numpy
    def test_numpy_tables_are_contiguous_int64(self):
        import numpy as np

        txns = [MasterTransaction(Op.READ, 0, 4096), MasterTransaction(Op.WRITE, 8, 40)]
        tables, _, _ = ChannelInterleaver(4).split_stream_numpy(txns, 1 << 20, TCK_NS)
        for table in tables:
            assert table.dtype == np.int64 and table.shape[1] == 4
            assert table.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    def test_straddling_the_wrap(self, method, channels, vectorised_only):
        capacity = channels * 32 * CHUNK_BYTES
        txns = [MasterTransaction(Op.WRITE, capacity - 40, 100)]
        got = _split(method, channels, txns, capacity)
        assert got == _table2_model(channels, txns, capacity)
        rows, _, chunks = got
        assert chunks == 7
        assert sum(count for r in rows for _, _, count, _ in r) == 7
        # The tail piece restarts at global chunk 0: channel 0, local 0.
        assert rows[0][-1][1] == 0

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("address", [2**63, 2**63 + 17, 2**64 + 5, 2**80])
    def test_huge_addresses_wrap_without_overflow(
        self, method, address, vectorised_only
    ):
        capacity = 8 * 64 * CHUNK_BYTES
        txns = [MasterTransaction(Op.READ, address, 300)]
        expected = _table2_model(8, txns, capacity)
        assert _split(method, 8, txns, capacity) == expected

    @pytest.mark.parametrize("method", METHODS)
    def test_arrival_edges(self, method, vectorised_only):
        edge = 40 * TCK_NS
        arrivals = [
            None, 0.0, edge, edge + 1e-9, edge - 1e-9, edge + 1e-3, TCK_NS / 2,
        ]
        txns = [MasterTransaction(Op.READ, 0, 16, a) for a in arrivals]
        rows, _, _ = _split(method, 1, txns, 1 << 20)
        assert [r[3] for r in rows[0]] == [0, 0, 40, 40, 40, 41, 1]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    def test_empty_stream(self, method, channels):
        assert _split(method, channels, [], 1 << 20) == ([[]] * channels, 0, 0)


def _corrupt(txn, **fields):
    """A transaction with fields its constructor would refuse."""
    for name, value in fields.items():
        object.__setattr__(txn, name, value)
    return txn


ERROR_CASES = [
    pytest.param(
        lambda cap: [MasterTransaction(Op.READ, cap - 16, 32)], False, AddressError,
        id="beyond-capacity-strict",
    ),
    pytest.param(
        lambda cap: [MasterTransaction(Op.READ, 2**63, 16)], False, AddressError,
        id="huge-address-strict",
    ),
    pytest.param(
        lambda cap: [MasterTransaction(Op.READ, 8, cap)], True, AddressError,
        id="larger-than-memory",
    ),
    pytest.param(
        lambda cap: [MasterTransaction(Op.READ, 0, 2**64)], True, AddressError,
        id="size-beyond-int64",
    ),
    pytest.param(
        lambda cap: [
            MasterTransaction(Op.READ, 0, 16),
            _corrupt(MasterTransaction(Op.READ, 0, 16), arrival_ns=-1.0),
        ],
        True,
        ConfigurationError,
        id="negative-arrival",
    ),
    pytest.param(
        lambda cap: [
            _corrupt(MasterTransaction(Op.READ, 0, 16), arrival_ns=float("nan"))
        ],
        True,
        ValueError,
        id="nan-arrival",
    ),
]


class TestStreamSplitErrors:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("build, wrap, expected", ERROR_CASES)
    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    def test_same_exception_type(self, method, build, wrap, expected, channels):
        capacity = channels * 64 * CHUNK_BYTES
        assert _split(method, channels, build(capacity), capacity, wrap) is expected

    @needs_numpy
    @pytest.mark.parametrize("build, wrap, expected", ERROR_CASES)
    def test_same_message(self, build, wrap, expected):
        capacity = 4 * 64 * CHUNK_BYTES
        inter = ChannelInterleaver(4)
        messages = []
        for fn in (inter.split_stream_python, inter.split_stream_numpy):
            with pytest.raises(expected) as err:
                fn(build(capacity), capacity, TCK_NS, wrap)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("method", METHODS)
    def test_generator_input(self, method):
        txns = [MasterTransaction(Op.READ, 32 * k, 48) for k in range(5)]
        assert _split(method, 2, iter(txns), 1 << 20) == _split(
            "python", 2, txns, 1 << 20
        )
