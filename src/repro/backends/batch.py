"""The batch backend: vectorized segment decode + closed-form batching.

The fast backend already collapses steady-state streaming into O(1)
closed forms, but it still pays Python-loop overhead *per access* for
address decode (bank/row shifts, segment-boundary arithmetic) and
re-derives the same decode for every point of a frequency sweep.  This
backend removes both costs:

1. **Vectorized decode.**  The run list is decoded once, with numpy,
   into a structured *segment table*: maximal stretches of accesses
   that share (op, bank, row) -- broken at direction switches, at
   2**seg_shift address blocks (the coarsest granularity at which any
   decode input can change; row crossings and bank rotations happen
   only there) and at run boundaries (where power-down gaps can
   occur).  Per-access work in the timing loop disappears; the loop
   advances one *segment* at a time.

2. **Cross-point decode cache.**  The segment table depends only on
   the run list and the address mapping -- never on clock frequency --
   so a frequency sweep re-decodes nothing: every point of the Fig. 3
   sweep shares one decoded access timeline and re-evaluates only the
   frequency-dependent timing recurrences.  The cache is a small
   content-keyed LRU (:data:`DECODE_CACHE_SIZE` entries) whose key is
   the run table's bytes (``table.tobytes()``) plus the mapping's
   bank/row/xor shifts and masks; inspect it with
   :func:`decode_cache_stats`, drop it with :func:`clear_decode_cache`.

Input formats.  :meth:`BatchChannelEngine.run` accepts an ``(n, 4)``
(or ``(n, 3)``, arrival 0) integer array -- the run table
:meth:`~repro.core.interleave.ChannelInterleaver.split_stream` builds
per channel, used as is -- or any iterable of ``(op, start, count[,
arrival])`` tuples and :class:`~repro.controller.request.ChannelRun`
objects.  Every input becomes one C-contiguous int64 table of ``[op,
start, count, arrival]`` rows whose op, count, start, arrival and
channel-capacity checks are vectorised; the same runs in any of these
formats therefore share one cache entry.  A non-integer field is
refused with :class:`~repro.errors.ConfigurationError`, like on every
other backend.

The timing recurrences themselves are resolved per segment with the
same *provably exact* cumulative-sum closed form the fast backend
uses (``busfree(i) = bus_free + i*burst + (ovh_acc + i*ovh_per) >>
ovh_shift``), split at refresh deadlines; where the proof fails the
engine steps per access with the reference engine's exact loop body.
The result is therefore **bit-identical** to the reference backend on
every input stream (``reference_tolerance = 0.0``: the differential
fuzzer and the golden comparator hold it to exact equality).

numpy is an *optional* dependency (the ``batch`` extra:
``pip install repro[batch]``).  Importing this module without numpy
works -- the registry can still list and describe the backend -- but
:meth:`BatchBackend.create` raises
:class:`~repro.errors.ConfigurationError` explaining what to install.

Command logging, runtime invariant checking and the closed-page
policy fall back to the reference engine's exact stepping loop
(inherited from :class:`~repro.controller.engine.ChannelEngine`), so
protocol audits and closed-page studies behave identically to
``reference`` -- just without the vectorized speedup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable, Optional

try:  # numpy is optional: the "batch" extra in pyproject.toml
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None

from repro.backends.base import ChannelBackend
from repro.backends.fast import MIN_BATCH
from repro.backends.reference import build_engine
from repro.controller.engine import (
    ChannelEngine,
    ChannelResult,
    RunLike,
    run_fields,
)
from repro.controller.interconnect import OVERHEAD_SCALE, OVERHEAD_SHIFT
from repro.core.config import SystemConfig
from repro.dram.commands import CommandCounters, StateDurations
from repro.dram.device import NO_OPEN_ROW
from repro.errors import AddressError, ConfigurationError

_NUMPY_MISSING = (
    "the 'batch' backend needs numpy, which is not installed; "
    "install the optional extra (pip install repro[batch]) or pick "
    "another backend (reference, fast, analytic)"
)

#: Maximum decoded segment tables kept alive.  Sized for one sweep
#: row's worth of channel streams (up to 8 channels) with headroom, so
#: a whole frequency sweep hits the cache after its first point.
DECODE_CACHE_SIZE = 32

#: Content-keyed LRU: (run-table bytes, mapping params) -> _DecodedStream.
_DECODE_CACHE: "OrderedDict[tuple, _DecodedStream]" = OrderedDict()
_CACHE_STATS = {
    "hits": 0,
    "misses": 0,
    "lookups": 0,
    "insertions": 0,
    "evictions": 0,
}


def decode_cache_stats() -> dict:
    """Counters of the cross-point decode cache.

    The counters form a closed ledger -- after any sequence of
    operations since the last :func:`clear_decode_cache`:

    - ``hits + misses == lookups`` (every lookup is exactly one or the
      other);
    - every miss inserts, so ``insertions == misses``;
    - ``evictions <= insertions`` (only inserted entries can be
      evicted) and ``entries == insertions - evictions
      <= DECODE_CACHE_SIZE``.

    Pinned by a property test in ``tests/backends/test_batch.py``.
    """
    return {
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
        "lookups": _CACHE_STATS["lookups"],
        "insertions": _CACHE_STATS["insertions"],
        "evictions": _CACHE_STATS["evictions"],
        "entries": len(_DECODE_CACHE),
    }


def clear_decode_cache() -> None:
    """Drop every cached segment table and reset the statistics."""
    _DECODE_CACHE.clear()
    for name in _CACHE_STATS:
        _CACHE_STATS[name] = 0


class _DecodedStream:
    """One run list decoded into a frequency-independent segment table.

    ``segments`` is a list of ``(op, bank, row, count, arrival)``
    tuples (materialised from the numpy structured table: plain-int
    iteration is what the scalar timing loop wants).  ``arrival`` is
    the run's arrival cycle on the run-head segment and ``-1``
    elsewhere, so the power-down block runs exactly once per run.
    Data-movement statistics that do not depend on timing at all
    (reads, writes, per-bank access counts) are folded here too.
    """

    __slots__ = ("segments", "n_rd", "n_wr", "bank_counts")

    def __init__(self, segments, n_rd, n_wr, bank_counts):
        self.segments = segments
        self.n_rd = n_rd
        self.n_wr = n_wr
        self.bank_counts = bank_counts


def _run_table(runs: Iterable[RunLike], max_chunk: int) -> Any:
    """Any accepted run format as one validated C-contiguous ``(n, 4)``
    int64 table of ``[op, start, count, arrival]`` rows.

    The checks are :meth:`ChannelEngine._normalise`'s plus the channel
    capacity, vectorised; the first offending row raises the same
    error, with the same message, as on the reference backend.
    """
    np = _np
    if isinstance(runs, np.ndarray):
        rows = runs
    else:
        rows = [run_fields(run) for run in runs]
    table = np.asarray(rows)
    if table.size == 0:
        return np.empty((0, 4), dtype=np.int64)
    if table.ndim != 2 or table.shape[1] not in (3, 4):
        raise ConfigurationError(
            f"a run table must have shape (n, 4) or (n, 3), got {table.shape}"
        )
    kind = table.dtype.kind
    if kind not in "iub" or (kind == "u" and table.max() > np.iinfo(np.int64).max):
        # Floats, objects and integers int64 cannot hold: the scalar
        # checks refuse a non-integer; an integer this large overruns
        # the channel (or, as an arrival, the table).
        for op, start, count, arrival in ChannelEngine._normalise(rows):
            if start + count > max_chunk:
                raise AddressError(
                    f"run [{start}, {start + count}) exceeds channel capacity "
                    f"of {max_chunk} chunks"
                )
        raise ConfigurationError("run arrival cycles must fit in int64")
    table = np.ascontiguousarray(table, dtype=np.int64)
    if table.shape[1] == 3:
        table = np.column_stack([table, np.zeros(len(table), dtype=np.int64)])
    op, start, count, arrival = table.T
    bad = ((op != 0) & (op != 1)) | (count <= 0) | (start < 0) | (arrival < 0)
    if bad.any():
        first = int(bad.argmax())
        ChannelEngine._normalise(table[first : first + 1])  # raises
    # count is positive here, so max_chunk - count cannot overflow.
    over = start > max_chunk - count
    if over.any():
        first = int(over.argmax())
        start, end = int(start[first]), int(start[first] + count[first])
        raise AddressError(
            f"run [{start}, {end}) exceeds channel capacity of {max_chunk} chunks"
        )
    return table


def _decode_stream(table, mapping) -> _DecodedStream:
    """Vectorized run-table -> segment-table decode (cache miss path)."""
    np = _np
    # Accesses share (bank, row) while the chunk bits at or above every
    # decode shift are constant, i.e. within one aligned 2**seg_shift
    # block (same criterion as the fast backend's batch proof).
    bank_shift = mapping.bank_shift
    row_shift = mapping.row_shift
    xor_shift = mapping.xor_shift
    xor_mask = mapping.xor_mask
    seg_shift = min(
        (bank_shift, row_shift, xor_shift)
        if xor_mask
        else (bank_shift, row_shift)
    )
    nbanks = mapping.bank_mask + 1

    nruns = len(table)
    if not nruns:
        return _DecodedStream([], 0, 0, (0,) * nbanks)

    ops = table[:, 0]
    starts = table[:, 1]
    counts = table[:, 2]
    arrivals = table[:, 3]

    first_block = starts >> seg_shift
    nseg = ((starts + counts - 1) >> seg_shift) - first_block + 1
    total = int(nseg.sum())
    seg_run = np.repeat(np.arange(nruns, dtype=np.int64), nseg)
    offsets = np.zeros(nruns, dtype=np.int64)
    np.cumsum(nseg[:-1], out=offsets[1:])
    within = np.arange(total, dtype=np.int64) - offsets[seg_run]
    block = first_block[seg_run] + within

    lo = np.maximum(block << seg_shift, starts[seg_run])
    hi = np.minimum((block + 1) << seg_shift, (starts + counts)[seg_run])

    segs = np.empty(
        total,
        dtype=np.dtype(
            [
                ("op", np.int64),
                ("bank", np.int64),
                ("row", np.int64),
                ("count", np.int64),
                ("arrival", np.int64),
            ]
        ),
    )
    segs["op"] = ops[seg_run]
    segs["bank"] = ((lo >> bank_shift) ^ ((lo >> xor_shift) & xor_mask)) & mapping.bank_mask
    segs["row"] = (lo >> row_shift) & mapping.row_mask
    seg_len = hi - lo
    segs["count"] = seg_len
    segs["arrival"] = np.where(within == 0, arrivals[seg_run], -1)

    bank_counts = np.bincount(
        segs["bank"], weights=seg_len, minlength=nbanks
    ).astype(np.int64)
    n_rd = int(seg_len[ops[seg_run] == 0].sum())
    n_wr = int(seg_len.sum()) - n_rd

    return _DecodedStream(
        segs.tolist(), n_rd, n_wr, tuple(int(c) for c in bank_counts)
    )


def _decode_cached(table, mapping) -> _DecodedStream:
    """LRU-cached decode of a :func:`_run_table` table, keyed by its
    bytes + the mapping parameters."""
    key = (
        table.tobytes(),
        mapping.bank_shift,
        mapping.bank_mask,
        mapping.row_shift,
        mapping.row_mask,
        mapping.xor_shift,
        mapping.xor_mask,
    )
    _CACHE_STATS["lookups"] += 1
    cached = _DECODE_CACHE.get(key)
    if cached is not None:
        _DECODE_CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        return cached
    _CACHE_STATS["misses"] += 1
    decoded = _decode_stream(table, mapping)
    _DECODE_CACHE[key] = decoded
    _CACHE_STATS["insertions"] += 1
    while len(_DECODE_CACHE) > DECODE_CACHE_SIZE:
        _DECODE_CACHE.popitem(last=False)
        _CACHE_STATS["evictions"] += 1
    return decoded


class BatchChannelEngine(ChannelEngine):
    """Reference timing algebra over a vectorized segment decode."""

    def run(
        self,
        runs: Iterable[RunLike],
        command_log: Optional[list] = None,
    ) -> ChannelResult:
        """Bit-identical to :meth:`ChannelEngine.run`, an order of
        magnitude faster on streaming traffic.

        The stepped branch is the reference engine's loop body, kept
        textually in sync; the batch branch is the fast backend's
        closed form applied per decoded segment.  Command logging,
        invariant checking and the closed-page policy fall back to the
        inherited reference loop (every command must be materialised
        to be logged / immediately precharged).
        """
        if command_log is not None or self.check_invariants:
            return ChannelEngine.run(self, runs, command_log)
        if not self.page_policy.keeps_rows_open:
            return ChannelEngine.run(self, runs, command_log)
        if _np is None:
            raise ConfigurationError(_NUMPY_MISSING)

        decoded = _decode_cached(_run_table(runs, self._max_chunk), self.mapping)

        timing = self.timing
        cas = timing.cas_latency
        wl = timing.write_latency
        burst = timing.burst_cycles
        t_rp = timing.t_rp
        t_rcd = timing.t_rcd
        t_ras = timing.t_ras
        t_rc = timing.t_rc
        t_rrd = timing.t_rrd
        t_wr = timing.t_wr
        t_wtr = timing.t_wtr
        rtw_gap = timing.t_rtw_gap
        t_xp = timing.t_xp
        t_cke = timing.t_cke
        t_refi = timing.t_refi
        t_rfc = timing.t_rfc
        t_faw = timing.t_faw

        nbanks = self.device.geometry.banks
        open_row = [NO_OPEN_ROW] * nbanks
        act_ready = [0] * nbanks
        pre_ready = [0] * nbanks
        col_ready = [0] * nbanks

        cmd_free = 0
        bus_free = 0
        last_rd_end = -(10**9)
        last_wr_end = -(10**9)
        last_act_any = -(10**9)
        last_pre_any = -(10**9)
        next_ref = t_refi
        faw_hist = [-(10**9)] * 4
        faw_idx = 0

        ovh_per = self.interconnect.overhead_fixed_point
        ovh_acc = 0
        ovh_scale = OVERHEAD_SCALE
        ovh_mask = ovh_scale - 1
        ovh_shift = OVERHEAD_SHIFT
        bstep = burst * ovh_scale + ovh_per

        qdepth = self.queue.depth
        ring = self.queue.make_ring()
        ring_i = 0

        pd_policy = self.power_down
        pd_cycles = 0
        pd_entries = 0

        n_act = 0
        n_pre = 0
        n_ref = 0
        n_qstall = 0
        n_conflict = 0

        const_ok_rd = (qdepth - 1) * burst >= cas - 1
        const_ok_wr = (qdepth - 1) * burst >= wl - 1
        # When both hold, the command-queue floor can never bind: every
        # access's data start satisfies ds_j >= ds_{j-1} + burst (the
        # column command is max'ed with bus_free - lat), so the ring
        # entry consumed by access j is ds_{j-q} <= ds_{j-1} -
        # (q-1)*burst <= (cmd_free - 1 + lat) - (lat - 1) = cmd_free
        # (initial entries are zero and cmd_free >= 0).  No stall can
        # be counted and no floor can raise t0, so the whole ring --
        # checks and writes -- is provably dead weight and is skipped.
        queue_live = not (const_ok_rd and const_ok_wr)

        for op, bnk, row, count, arrival in decoded.segments:
            # --- idle-gap / power-down handling at run boundaries -----
            if arrival > cmd_free and arrival > bus_free:
                busy_until = cmd_free if cmd_free > bus_free else bus_free
                gap = arrival - busy_until
                down = pd_policy.powered_down_cycles(gap, t_cke, t_xp)
                if down > 0:
                    pd_cycles += down
                    pd_entries += 1
                    floor = arrival + t_xp
                else:
                    floor = arrival
                if floor > cmd_free:
                    cmd_free = floor
                if arrival > bus_free:
                    bus_free = arrival

            if op == 0:
                is_read = True
                lat = cas
                const_ok = const_ok_rd
            else:
                is_read = False
                lat = wl
                const_ok = const_ok_wr

            left = count
            while left > 0:
                # ==== batch attempt (the fast backend's exact proof) ===
                #   1. no refresh due before any batched command issue,
                #   2. row hit ((bank, row) constant per segment),
                #   3. the data-bus bound dominates every other bound of
                #      the first access (monotonicity extends this),
                #   4. no command-queue stall for any batched access.
                if left >= MIN_BATCH and cmd_free < next_ref and open_row[bnk] == row:
                    t1 = bus_free - lat
                    if is_read:
                        turn_ok = t1 >= last_wr_end + t_wtr
                    else:
                        turn_ok = t1 >= last_rd_end + rtw_gap - wl
                    if turn_ok and t1 >= cmd_free and t1 >= col_ready[bnk]:
                        n = left
                        if queue_live and not const_ok and n > qdepth:
                            n = qdepth
                        # Refresh cap: access a (>= 2) issues its column
                        # command with cmd_free_a = busfree(a-2)-lat+1,
                        # which must stay below next_ref.
                        x = next_ref + lat - 2 - bus_free
                        if x < 0:
                            n = 1
                        else:
                            i_max = (x * ovh_scale - ovh_acc) // bstep
                            # floor slack can admit at most one more
                            if (
                                (i_max + 1) * burst
                                + ((ovh_acc + (i_max + 1) * ovh_per) >> ovh_shift)
                                <= x
                            ):
                                i_max += 1
                            if i_max + 2 < n:
                                n = i_max + 2 if i_max >= 0 else 1
                        if n >= MIN_BATCH:
                            ok = True
                            if queue_live:
                                # Queue floors for the first min(n,
                                # qdepth) accesses are pre-batch ring
                                # entries; check each against that
                                # access's cmd_free.
                                m = n if n < qdepth else qdepth
                                for a in range(1, m + 1):
                                    if a == 1:
                                        cf = cmd_free
                                    else:
                                        i = a - 2
                                        cf = (
                                            bus_free
                                            + i * burst
                                            + ((ovh_acc + i * ovh_per) >> ovh_shift)
                                            - lat
                                            + 1
                                        )
                                    if ring[(ring_i + a - 1) % qdepth] > cf:
                                        ok = False
                                        break
                            if ok:
                                # ---- apply the closed form -----------
                                i = n - 1
                                t_n = (
                                    bus_free
                                    + i * burst
                                    + ((ovh_acc + i * ovh_per) >> ovh_shift)
                                    - lat
                                )
                                if queue_live:
                                    for a in range(n - m + 1, n + 1):
                                        i = a - 1
                                        ring[(ring_i + a - 1) % qdepth] = (
                                            bus_free
                                            + i * burst
                                            + ((ovh_acc + i * ovh_per) >> ovh_shift)
                                        )
                                    ring_i = (ring_i + n) % qdepth
                                total = ovh_acc + n * ovh_per
                                bus_free = bus_free + n * burst + (total >> ovh_shift)
                                ovh_acc = total & ovh_mask
                                cmd_free = t_n + 1
                                if is_read:
                                    last_rd_end = t_n + cas + burst
                                    f = t_n + burst
                                else:
                                    de = t_n + wl + burst
                                    last_wr_end = de
                                    f = de + t_wr
                                if f > pre_ready[bnk]:
                                    pre_ready[bnk] = f
                                left -= n
                                continue

                # ==== stepped access (reference loop body) ============
                # --- refresh ------------------------------------------
                if cmd_free >= next_ref:
                    tpre = cmd_free
                    any_open = False
                    for b in range(nbanks):
                        if open_row[b] != NO_OPEN_ROW:
                            any_open = True
                            if pre_ready[b] > tpre:
                                tpre = pre_ready[b]
                    if any_open:
                        n_pre += 1  # PREA
                        tref = tpre + 1 + t_rp
                    else:
                        tref = tpre
                        f = last_pre_any + t_rp
                        if f > tref:
                            tref = f
                    ref_done = tref + 1 + t_rfc
                    for b in range(nbanks):
                        open_row[b] = NO_OPEN_ROW
                        if act_ready[b] < ref_done:
                            act_ready[b] = ref_done
                    if ref_done > cmd_free:
                        cmd_free = ref_done
                    n_ref += 1
                    next_ref += t_refi
                    while next_ref <= cmd_free:
                        ref_done = cmd_free + 1 + t_rfc
                        for b in range(nbanks):
                            if act_ready[b] < ref_done:
                                act_ready[b] = ref_done
                        cmd_free = ref_done
                        n_ref += 1
                        next_ref += t_refi

                t0 = cmd_free
                # --- command-queue bound (dead unless queue_live) -----
                if queue_live:
                    floor = ring[ring_i]
                    if floor > t0:
                        t0 = floor
                        n_qstall += 1

                # --- row management -----------------------------------
                orow = open_row[bnk]
                if orow != row:
                    if orow != NO_OPEN_ROW:
                        n_conflict += 1
                        tpre = pre_ready[bnk]
                        if tpre < t0:
                            tpre = t0
                        if tpre < cmd_free:
                            tpre = cmd_free
                        cmd_free = tpre + 1
                        n_pre += 1
                        last_pre_any = tpre
                        tact = tpre + t_rp
                        if act_ready[bnk] > tact:
                            tact = act_ready[bnk]
                    else:
                        tact = t0
                        if act_ready[bnk] > tact:
                            tact = act_ready[bnk]
                    rrd_floor = last_act_any + t_rrd
                    if rrd_floor > tact:
                        tact = rrd_floor
                    faw_floor = faw_hist[faw_idx] + t_faw
                    if faw_floor > tact:
                        tact = faw_floor
                    if tact < cmd_free:
                        tact = cmd_free
                    cmd_free = tact + 1
                    faw_hist[faw_idx] = tact
                    faw_idx = (faw_idx + 1) & 3
                    last_act_any = tact
                    act_ready[bnk] = tact + t_rc
                    pre_ready[bnk] = tact + t_ras
                    col_ready[bnk] = tact + t_rcd
                    open_row[bnk] = row
                    n_act += 1

                # --- column command -----------------------------------
                t = col_ready[bnk]
                if t < t0:
                    t = t0
                if is_read:
                    f = last_wr_end + t_wtr
                    if f > t:
                        t = f
                    f = bus_free - cas
                    if f > t:
                        t = f
                    if t < cmd_free:
                        t = cmd_free
                    cmd_free = t + 1
                    ds = t + cas
                    de = ds + burst
                    last_rd_end = de
                    f = t + burst  # read-to-precharge (tRTP ~ BL/2)
                    if f > pre_ready[bnk]:
                        pre_ready[bnk] = f
                else:
                    f = last_rd_end + rtw_gap - wl
                    if f > t:
                        t = f
                    f = bus_free - wl
                    if f > t:
                        t = f
                    if t < cmd_free:
                        t = cmd_free
                    cmd_free = t + 1
                    ds = t + wl
                    de = ds + burst
                    last_wr_end = de
                    f = de + t_wr  # write recovery before precharge
                    if f > pre_ready[bnk]:
                        pre_ready[bnk] = f

                # --- interconnect overhead ----------------------------
                ovh_acc += ovh_per
                if ovh_acc >= ovh_scale:
                    de += ovh_acc >> ovh_shift
                    ovh_acc &= ovh_mask

                bus_free = de
                if queue_live:
                    ring[ring_i] = ds
                    ring_i += 1
                    if ring_i == qdepth:
                        ring_i = 0
                left -= 1

        finish = bus_free if bus_free > cmd_free else cmd_free

        tck = timing.t_ck_ns
        total_ns = finish * tck
        pd_ns = pd_cycles * tck
        # Open-page only on this path (closed-page fell back above):
        # non-powered-down time is active standby, power-down residency
        # is active power-down (CKE drops with rows still open).
        n_rd = decoded.n_rd
        n_wr = decoded.n_wr
        counters = CommandCounters(
            activates=n_act,
            precharges=n_pre,
            reads=n_rd,
            writes=n_wr,
            refreshes=n_ref,
            power_down_entries=pd_entries,
            power_down_exits=pd_entries,
        )
        states = StateDurations(
            precharge_standby_ns=0.0,
            active_standby_ns=max(0.0, total_ns - pd_ns),
            precharge_powerdown_ns=0.0,
            active_powerdown_ns=pd_ns,
        )
        return ChannelResult(
            finish_cycle=finish,
            freq_mhz=self.freq_mhz,
            data_cycles=(n_rd + n_wr) * burst,
            chunks_read=n_rd,
            chunks_written=n_wr,
            counters=counters,
            states=states,
            bank_accesses=decoded.bank_counts[:nbanks],
            queue_stalls=n_qstall,
            bank_conflicts=n_conflict,
        )


class BatchBackend(ChannelBackend):
    """Vectorized-decode batching backend: reference-exact, sweep-fast."""

    name = "batch"
    supports_command_log = True
    description = (
        "vectorized segment decode + closed-form batching (numpy); "
        "bit-identical, >=10x faster on streaming sweeps"
    )
    #: Batching is applied only when provably exact, so the fuzzer and
    #: golden comparator hold this backend to bit-identity.
    reference_tolerance = 0.0

    def create(self, config: SystemConfig, index: int = 0) -> BatchChannelEngine:
        """One :class:`BatchChannelEngine` per channel.

        Raises :class:`~repro.errors.ConfigurationError` when numpy is
        not installed (the ``batch`` optional extra).
        """
        if _np is None:
            raise ConfigurationError(_NUMPY_MISSING)
        return build_engine(config, engine_cls=BatchChannelEngine)
