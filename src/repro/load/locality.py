"""Static row-buffer locality analysis of a transaction stream.

Predicts, without running the timing engine, how a transaction stream
will behave in the row buffers: per-channel burst counts, row-buffer
hit rates and activate counts under the open-page policy.  The
prediction walks the exact per-channel, per-bank open-row state the
controller would hold, so for refresh-free windows it matches the
engine's counters *exactly* — the cross-validation test pins that.
(Refresh closes all rows every tREFI, so over long windows the engine
reports slightly more activates; the analyzer quantifies the gap.)

Use cases: sizing interleaving/mapping choices before committing to a
simulation sweep, and sanity-checking workload generators (a "video
recording" trace with a 60 % predicted hit rate is a buggy trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.controller.engine import ChannelEngine
from repro.controller.mapping import AddressMapping, AddressMultiplexing
from repro.controller.request import MasterTransaction
from repro.core.interleave import ChannelInterleaver
from repro.dram.device import NO_OPEN_ROW, BankClusterGeometry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LocalityPrediction:
    """Predicted row-buffer behaviour of one stream on one layout."""

    channels: int
    scheme: AddressMultiplexing
    #: Bursts per channel.
    chunks_per_channel: Tuple[int, ...]
    #: Predicted activates per channel (open-page, no refresh).
    activates_per_channel: Tuple[int, ...]

    @property
    def total_chunks(self) -> int:
        """Total bursts across channels."""
        return sum(self.chunks_per_channel)

    @property
    def total_activates(self) -> int:
        """Total predicted activates."""
        return sum(self.activates_per_channel)

    @property
    def row_hit_rate(self) -> float:
        """Predicted fraction of bursts hitting an open row."""
        if self.total_chunks == 0:
            return 1.0
        return 1.0 - self.total_activates / self.total_chunks

    def hit_rate_for(self, channel: int) -> float:
        """Predicted hit rate of one channel."""
        chunks = self.chunks_per_channel[channel]
        if chunks == 0:
            return 1.0
        return 1.0 - self.activates_per_channel[channel] / chunks


def predict_locality(
    transactions: Iterable[MasterTransaction],
    channels: int,
    geometry: BankClusterGeometry,
    scheme: AddressMultiplexing = AddressMultiplexing.RBC,
) -> LocalityPrediction:
    """Walk the open-row state a controller would hold for ``transactions``.

    The per-channel runs come from
    :meth:`~repro.core.interleave.ChannelInterleaver.split_stream` with
    addresses wrapping modulo the total capacity, exactly as
    :meth:`repro.core.system.MultiChannelMemorySystem.run` splits them.
    """
    if channels < 1:
        raise ConfigurationError(f"channels must be >= 1, got {channels}")
    mapping = AddressMapping.build(geometry, scheme)
    bank_shift = mapping.bank_shift
    bank_mask = mapping.bank_mask
    row_shift = mapping.row_shift
    row_mask = mapping.row_mask
    xor_shift = mapping.xor_shift
    xor_mask = mapping.xor_mask

    # Arrival cycles do not affect row locality; any clock will do.
    tables, _, _ = ChannelInterleaver(channels).split_stream(
        transactions, geometry.capacity_bytes * channels, tck_ns=1.0
    )
    chunk_counts = [0] * channels
    activates = [0] * channels
    for ch, table in enumerate(tables):
        rows = [NO_OPEN_ROW] * geometry.banks
        for _, start, count, _ in ChannelEngine._normalise(table):
            chunk_counts[ch] += count
            for chunk in range(start, start + count):
                bank = (
                    (chunk >> bank_shift) ^ ((chunk >> xor_shift) & xor_mask)
                ) & bank_mask
                row = (chunk >> row_shift) & row_mask
                if rows[bank] != row:
                    rows[bank] = row
                    activates[ch] += 1

    return LocalityPrediction(
        channels=channels,
        scheme=scheme,
        chunks_per_channel=tuple(chunk_counts),
        activates_per_channel=tuple(activates),
    )


def compare_schemes(
    transactions: Sequence[MasterTransaction],
    channels: int,
    geometry: BankClusterGeometry,
) -> Dict[AddressMultiplexing, LocalityPrediction]:
    """Predict every multiplexing scheme's locality for one stream."""
    return {
        scheme: predict_locality(transactions, channels, geometry, scheme)
        for scheme in AddressMultiplexing
    }
