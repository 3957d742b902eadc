"""A bounded, thread-safe LRU memo with a closed ledger of counters.

The process-wide memos (the batch backend's segment-decode cache and
the load model's frame memo, :mod:`repro.load.frames`) are shared by
every thread of a process: the sweep coordinator runs up to
``DEFAULT_MAX_INFLIGHT`` work units on threads, in-process by default.
:class:`LockedLRU` serialises every lookup, insertion, eviction and
counter update under one lock, and computes a missing value under the
same lock, so a key is computed once however many threads ask for it
at the same time.

The counters form a closed ledger -- after any sequence of operations
since the last :meth:`LockedLRU.clear`:

- ``hits + misses == lookups`` (every lookup is exactly one or the
  other);
- every miss inserts, so ``insertions == misses``;
- ``evictions <= insertions`` and ``entries == insertions - evictions
  <= maxsize``.

A compute that raises inserts nothing and counts as neither a miss nor
a lookup, so the ledger stays closed.  A forked child re-creates the
lock of every live memo: a fork taken while another thread held one
must not leave the child waiting on it forever.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Tuple, TypeVar

from repro.errors import ConfigurationError

V = TypeVar("V")

#: Every live memo, so a forked child can replace their locks.
_LIVE: "weakref.WeakSet[LockedLRU]" = weakref.WeakSet()

_COUNTERS = ("hits", "misses", "lookups", "insertions", "evictions")

_MISSING = object()


class LockedLRU(Generic[V]):
    """At most ``maxsize`` values, least recently used evicted first."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ConfigurationError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._counts = dict.fromkeys(_COUNTERS, 0)
        self._lock = threading.Lock()
        _LIVE.add(self)

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], V]
    ) -> Tuple[V, bool]:
        """The value stored under ``key``, computing and storing it with
        ``compute()`` on a miss; returns ``(value, hit)``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._counts["lookups"] += 1
                self._counts["hits"] += 1
                return value, True
            value = compute()
            self._counts["lookups"] += 1
            self._counts["misses"] += 1
            self._entries[key] = value
            self._counts["insertions"] += 1
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._counts["evictions"] += 1
            return value, False

    def stats(self) -> Dict[str, int]:
        """The ledger: hits, misses, lookups, insertions, evictions and
        the current number of entries."""
        with self._lock:
            return {**self._counts, "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._counts = dict.fromkeys(_COUNTERS, 0)

    def __len__(self) -> int:
        return len(self._entries)


def _reset_locks_after_fork() -> None:
    for memo in list(_LIVE):
        memo._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_locks_after_fork)
