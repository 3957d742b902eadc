"""Memory requests at the two granularities the simulator uses.

The paper's load model produces **master transactions**: block reads
and writes against the global (multi-channel) address space, generated
by the video-recording state machine.  The channel interleaver splits
each master transaction into per-channel **access runs** -- contiguous
sequences of 16-byte DRAM bursts within one channel's local address
space (the minimum interleaving granularity of Table II: burst size 4
times the 32-bit word = 16 bytes).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: Bytes moved by one DRAM burst: burst length 4 x 32-bit words.
CHUNK_BYTES = 16
#: log2(CHUNK_BYTES), for shift-based address arithmetic.
CHUNK_SHIFT = 4

#: ``dataclass(slots=True)`` exists from Python 3.10 on; on 3.9 the
#: transaction keeps its instance dict (same behaviour, more memory).
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


class Op(enum.IntEnum):
    """Direction of a memory operation.

    ``IntEnum`` with explicit values so the hot loop can compare raw
    ints (``run.op == 0``) without enum attribute lookups.
    """

    READ = 0
    WRITE = 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "R" if self is Op.READ else "W"


@dataclass(frozen=True, **_SLOTS)
class MasterTransaction:
    """One block transfer issued by the load model's state machine.

    Addresses are byte addresses in the *global* interleaved address
    space; ``size`` is in bytes.  Master transactions carry no data --
    the simulator is timing/power only, exactly like the paper's
    untimed TLMs.  Slotted: the frame memo (:mod:`repro.load.frames`)
    keeps up to eight frames of them alive, and a slotted transaction
    takes about a quarter less memory.
    """

    op: Op
    address: int
    size: int
    #: Earliest issue time in nanoseconds.  ``0.0`` (the default) and
    #: ``None`` both mean backlogged: the request is ready as soon as
    #: the memory can take it.  Consumers must test ``is not None``
    #: rather than truthiness -- an arrival of exactly ``0.0`` ns is a
    #: valid timestamp, not a missing one.
    arrival_ns: Optional[float] = 0.0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ConfigurationError(f"address must be >= 0, got {self.address}")
        if self.size <= 0:
            raise ConfigurationError(f"size must be positive, got {self.size}")
        if self.arrival_ns is not None:
            # isfinite first: every comparison against NaN is False, so
            # a bare `< 0` test would wave NaN (and +inf) through into
            # the engine's time arithmetic and poison every cycle
            # computation downstream.
            if not math.isfinite(self.arrival_ns):
                raise ConfigurationError(
                    f"arrival_ns must be finite, got {self.arrival_ns}"
                )
            if self.arrival_ns < 0:
                raise ConfigurationError(
                    f"arrival_ns must be >= 0, got {self.arrival_ns}"
                )

    @property
    def end_address(self) -> int:
        """One past the last byte touched."""
        return self.address + self.size

    def chunk_span(self) -> range:
        """Global chunk indices this transaction touches.

        Partial head/tail chunks still cost a full DRAM burst, so the
        span is computed on aligned boundaries.
        """
        first = self.address >> CHUNK_SHIFT
        last = (self.end_address - 1) >> CHUNK_SHIFT
        return range(first, last + 1)


@dataclass(frozen=True)
class ChannelRun:
    """A contiguous sequence of chunk accesses on one channel.

    ``start_chunk`` indexes the channel-*local* chunk space (local
    byte address = ``start_chunk * 16``).  A run of ``count`` chunks
    with ``stride`` 1 is a sequential local stream; the interleaver
    always produces stride-1 runs because the Table II mapping packs a
    global sequential stream densely into each channel.
    """

    op: Op
    start_chunk: int
    count: int
    #: Earliest issue time in channel clock cycles (0 = backlogged).
    arrival_cycle: int = 0

    def __post_init__(self) -> None:
        if self.start_chunk < 0:
            raise ConfigurationError(
                f"start_chunk must be >= 0, got {self.start_chunk}"
            )
        if self.count <= 0:
            raise ConfigurationError(f"count must be positive, got {self.count}")
        if self.arrival_cycle < 0:
            raise ConfigurationError(
                f"arrival_cycle must be >= 0, got {self.arrival_cycle}"
            )

    @property
    def bytes_moved(self) -> int:
        """Bytes transferred by this run."""
        return self.count * CHUNK_BYTES
