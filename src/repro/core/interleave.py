"""Channel interleaving: the paper's Table II memory mapping.

Section III: *"the data for the channels is interleaved in such a way
that all the channels can be used in a single master transaction. ...
Byte addressable memory is used, minimum DRAM burst size is four, and
word length is 32 bits (4 bytes).  This makes minimum practical
interleaving granularity 16 (= 4x4).  For example, addresses from 0 to
15 are located in bank cluster zero and addresses from 16 to 31 in
bank cluster one."*

So global chunk *g* (16-byte granule) lives on channel ``g mod M`` at
local chunk ``g div M``.  Because the mapping is a perfect round-robin,
a contiguous global range decomposes into one *contiguous local* run
per channel -- the property that lets the system simulate channels
independently.

A whole master stream is split by :meth:`ChannelInterleaver.split_stream`
into one run table per channel: rows of ``(op, local_start_chunk,
count, arrival_cycle)``.  When numpy is importable the split is
vectorised over the whole stream and each table is an ``(n, 4)`` int64
array that the backends consume as is; without numpy the same rows are
built as lists of tuples by a scalar loop.  Both give the same rows and
raise the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Any, Iterable, List, Tuple

from repro.controller.request import CHUNK_BYTES, CHUNK_SHIFT, MasterTransaction
from repro.errors import AddressError, ConfigurationError

#: Sub-cycle slack for the arrival-time conversion: an arrival within
#: this many cycles of a clock edge (femtoseconds of real time) is
#: treated as on the edge, absorbing float rounding in ns arithmetic.
_ARRIVAL_EPSILON_CYCLES = 1e-6

#: Arrival cycles at or beyond this bound leave the vectorised split
#: (float64 -> int64 is exact only well inside the int64 range).
_MAX_VECTOR_CYCLE = 2.0**62

_TXN_FIELDS = attrgetter("op", "address", "size", "arrival_ns")


@lru_cache(maxsize=None)
def _numpy() -> Any:
    """numpy if it is importable, else ``None``; imported on first use
    so that ``import repro`` stays free of it."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - the no-numpy CI job
        return None
    return numpy


#: One stream split: per-channel run tables, transactions, chunks queued.
StreamSplit = Tuple[List[Any], int, int]


@dataclass(frozen=True)
class ChannelInterleaver:
    """Round-robin interleaving of 16-byte granules over M channels."""

    channels: int
    granularity: int = CHUNK_BYTES

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigurationError(
                f"channel count must be >= 1, got {self.channels}"
            )
        if self.granularity != CHUNK_BYTES:
            raise ConfigurationError(
                "the paper's minimum practical interleaving granularity is "
                f"{CHUNK_BYTES} bytes (burst 4 x 32-bit word); got "
                f"{self.granularity}"
            )

    # -- single-address mapping (Table II) ---------------------------------

    def channel_of(self, address: int) -> int:
        """Bank cluster holding global byte ``address`` (Table II)."""
        if address < 0:
            raise ConfigurationError(f"address must be >= 0, got {address}")
        return (address >> CHUNK_SHIFT) % self.channels

    def local_address(self, address: int) -> int:
        """Channel-local byte address of global byte ``address``."""
        if address < 0:
            raise ConfigurationError(f"address must be >= 0, got {address}")
        chunk = address >> CHUNK_SHIFT
        return ((chunk // self.channels) << CHUNK_SHIFT) | (address & (CHUNK_BYTES - 1))

    def global_address(self, channel: int, local_addr: int) -> int:
        """Inverse mapping: reconstruct the global byte address."""
        if not 0 <= channel < self.channels:
            raise ConfigurationError(f"channel {channel} out of range")
        if local_addr < 0:
            raise ConfigurationError(f"local address must be >= 0, got {local_addr}")
        local_chunk = local_addr >> CHUNK_SHIFT
        chunk = local_chunk * self.channels + channel
        return (chunk << CHUNK_SHIFT) | (local_addr & (CHUNK_BYTES - 1))

    # -- transaction splitting ----------------------------------------------

    def split_span(
        self, first_chunk: int, last_chunk: int
    ) -> List[Tuple[int, int, int]]:
        """Split a global chunk span into per-channel local runs.

        Returns ``(channel, local_start_chunk, count)`` triples for
        every channel that receives at least one chunk of the span
        ``[first_chunk, last_chunk]`` (inclusive).
        """
        if first_chunk < 0 or last_chunk < first_chunk:
            raise ConfigurationError(
                f"invalid chunk span [{first_chunk}, {last_chunk}]"
            )
        m = self.channels
        out: List[Tuple[int, int, int]] = []
        for ch in range(m):
            offset = (ch - first_chunk) % m
            first_g = first_chunk + offset
            if first_g > last_chunk:
                continue
            count = (last_chunk - first_g) // m + 1
            out.append((ch, first_g // m, count))
        return out

    def split_transaction(
        self, txn: MasterTransaction
    ) -> List[Tuple[int, int, int, int]]:
        """Split a master transaction into per-channel run tuples.

        Returns ``(channel, op, local_start_chunk, count)``; the
        arrival time is handled by the caller because it needs the
        channel clock to convert nanoseconds into cycles.
        """
        span = txn.chunk_span()
        return [
            (ch, int(txn.op), start, count)
            for ch, start, count in self.split_span(span.start, span.stop - 1)
        ]

    # -- whole-stream splitting ---------------------------------------------

    def split_stream(
        self,
        transactions: Iterable[MasterTransaction],
        capacity_bytes: int,
        tck_ns: float,
        wrap_capacity: bool = True,
    ) -> StreamSplit:
        """Split a master stream into one run table per channel.

        Returns ``(tables, transactions, chunks)``: ``tables[ch]`` holds
        channel ``ch``'s rows ``(op, local_start_chunk, count,
        arrival_cycle)`` in program order, then the number of
        transactions and of chunks queued.  ``capacity_bytes`` is the
        total (all-channel) capacity; with ``wrap_capacity`` addresses
        wrap modulo it, otherwise a transaction beyond it raises
        :class:`~repro.errors.AddressError`.  Arrivals in nanoseconds
        become cycles of ``tck_ns``, rounded up.

        Uses :meth:`split_stream_numpy` when numpy is importable and
        :meth:`split_stream_python` otherwise; both give the same rows.
        """
        if _numpy() is not None:
            return self.split_stream_numpy(
                transactions, capacity_bytes, tck_ns, wrap_capacity
            )
        return self.split_stream_python(
            transactions, capacity_bytes, tck_ns, wrap_capacity
        )

    def split_stream_python(
        self,
        transactions: Iterable[MasterTransaction],
        capacity_bytes: int,
        tck_ns: float,
        wrap_capacity: bool = True,
    ) -> StreamSplit:
        """Scalar :meth:`split_stream`: the tables are lists of tuples.

        This loop is the specification the vectorised split is tested
        against, and the path for installs without numpy.
        """
        per_channel: List[list] = [[] for _ in range(self.channels)]
        capacity = capacity_bytes
        total_chunks = capacity >> CHUNK_SHIFT
        tck = tck_ns
        split_span = self.split_span
        queued_chunks = 0
        n_txns = 0
        for txn in transactions:
            n_txns += 1
            if txn.end_address > capacity and not wrap_capacity:
                raise AddressError(
                    f"transaction [{txn.address:#x}, {txn.end_address:#x}) "
                    f"exceeds total capacity {capacity:#x}"
                )
            # Explicit None test: an arrival of exactly 0.0 ns is a
            # timestamp, not a missing one (both map to cycle 0, but
            # truthiness would also swallow a future Optional misuse).
            # The conversion rounds *up*: an arrival strictly inside
            # cycle k cannot issue at k -- truncation placed it one
            # cycle early.  Negative arrivals must be rejected here:
            # int() truncates toward zero, so a negative value would
            # round the wrong way and silently land at cycle 0/-1.
            if txn.arrival_ns is None:
                arrival_cycle = 0
            else:
                if txn.arrival_ns < 0:
                    raise ConfigurationError(
                        f"transaction arrival_ns must be >= 0, got "
                        f"{txn.arrival_ns!r}"
                    )
                arrival_f = txn.arrival_ns / tck
                arrival_cycle = int(arrival_f)
                if arrival_f - arrival_cycle > _ARRIVAL_EPSILON_CYCLES:
                    arrival_cycle += 1
            span = txn.chunk_span()
            op = int(txn.op)
            first = span.start % total_chunks
            remaining = len(span)
            if remaining > total_chunks:
                raise AddressError(
                    f"transaction of {txn.size} bytes exceeds the whole "
                    f"memory capacity {capacity:#x}"
                )
            while remaining > 0:
                take = min(remaining, total_chunks - first)
                for ch, start, count in split_span(first, first + take - 1):
                    per_channel[ch].append((op, start, count, arrival_cycle))
                first = 0
                remaining -= take
            queued_chunks += len(span)
        return per_channel, n_txns, queued_chunks

    def split_stream_numpy(
        self,
        transactions: Iterable[MasterTransaction],
        capacity_bytes: int,
        tck_ns: float,
        wrap_capacity: bool = True,
    ) -> StreamSplit:
        """Vectorised :meth:`split_stream`: each table is a C-contiguous
        ``(n, 4)`` int64 array.

        A stream the vectorised form cannot reproduce exactly -- one
        that must raise, a field of the wrong type, or a value outside
        what int64 holds exactly -- is handed to
        :meth:`split_stream_python`, so errors and their messages are
        the scalar loop's own.  Addresses of 2**63 and
        beyond stay vectorised under ``wrap_capacity``: they are reduced
        modulo the capacity first, which leaves every chunk's channel,
        local index and the span length unchanged.
        """
        np = _numpy()
        txns = list(transactions)
        m = self.channels
        if not txns:
            return [np.empty((0, 4), dtype=np.int64) for _ in range(m)], 0, 0

        def scalar() -> StreamSplit:
            return self.split_stream_python(
                txns, capacity_bytes, tck_ns, wrap_capacity
            )

        ops, addresses, sizes, arrivals = zip(*map(_TXN_FIELDS, txns))
        op = np.array(ops)
        address = np.array(addresses)
        size = np.array(sizes)
        if op.dtype.kind != "i" or size.dtype.kind != "i":
            return scalar()
        if address.dtype.kind != "i":
            # Python ints of 2**63 and more make numpy fall back to
            # float64 or object; only an all-int column is reduced.
            if not wrap_capacity or not all(type(a) is int for a in addresses):
                return scalar()
            address = np.array([a % capacity_bytes for a in addresses])
        arrival = np.array(arrivals)
        if arrival.dtype.kind not in "if":
            # None (backlogged, cycle 0 like 0.0) makes an object column.
            arrival = np.array([0.0 if a is None else a for a in arrivals])
            if arrival.dtype.kind not in "if":
                return scalar()
        arrival = arrival.astype(np.float64)
        bad = (size <= 0) | (size > capacity_bytes) | (address < 0)
        if wrap_capacity:
            address %= capacity_bytes
        else:
            bad |= address > capacity_bytes - size
        cycles_f = arrival / tck_ns
        with np.errstate(invalid="ignore"):
            bad |= ~(cycles_f < _MAX_VECTOR_CYCLE) | (arrival < 0)
        if bad.any():
            return scalar()
        first = address >> CHUNK_SHIFT
        nchunks = ((address + size - 1) >> CHUNK_SHIFT) - first + 1
        total_chunks = capacity_bytes >> CHUNK_SHIFT
        if (nchunks > total_chunks).any():
            return scalar()
        first %= total_chunks
        whole = np.trunc(cycles_f)
        cycles = whole.astype(np.int64) + (cycles_f - whole > _ARRIVAL_EPSILON_CYCLES)

        # A span wraps at most once (it is no longer than the memory):
        # the head piece runs to the top of the address space and the
        # tail piece restarts at chunk 0.
        head = np.minimum(nchunks, total_chunks - first)
        last = first + head - 1
        tail = nchunks - head
        if tail.any():
            wraps = tail > 0
            keep = np.stack([np.ones_like(wraps), wraps], axis=1).ravel()
            first = np.stack([first, np.zeros_like(first)], axis=1).ravel()[keep]
            last = np.stack([last, tail - 1], axis=1).ravel()[keep]
            op = np.repeat(op, 1 + wraps)
            cycles = np.repeat(cycles, 1 + wraps)

        # Broadcast every piece over the channels (split_span, vectorised):
        # channel ch's first chunk of [first, last] is the next global
        # chunk congruent to ch mod m; a piece shorter than m leaves
        # some channels a count of 0.
        first_g = first[:, None] + (np.arange(m) - first[:, None]) % m
        counts = (last[:, None] - first_g) // m + 1
        rows = np.empty((m, len(first), 4), dtype=np.int64)
        rows[:, :, 0] = op
        rows[:, :, 1] = (first_g // m).T
        rows[:, :, 2] = counts.T
        rows[:, :, 3] = cycles
        present = counts.T > 0
        tables = [rows[ch][present[ch]] for ch in range(m)]
        return tables, len(txns), int(nchunks.sum())

    def table2_rows(self, columns: int = 6) -> List[Tuple[str, str]]:
        """Regenerate Table II: address ranges and their bank clusters.

        Returns ``(address_range, bank_cluster)`` string pairs covering
        ``columns`` granules and the wrap-around entry, mirroring the
        paper's presentation (``0 -> BC 0``, ``16 -> BC 1``, ...,
        ``16 x (M-1) -> BC M-1``, ``16 x M -> BC 0``).
        """
        rows = []
        for i in range(min(columns, self.channels)):
            base = i * CHUNK_BYTES
            rows.append(
                (f"{base}..{base + CHUNK_BYTES - 1}", f"BC {self.channel_of(base)}")
            )
        wrap = self.channels * CHUNK_BYTES
        rows.append((f"{wrap}..{wrap + CHUNK_BYTES - 1}", f"BC {self.channel_of(wrap)}"))
        return rows
