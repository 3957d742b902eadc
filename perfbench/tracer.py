"""Outside-in span tracer for the benchmark's traced runs.

The program under test is never edited: :func:`perfbench.layers.instrument`
replaces each layer's public entry point -- at the module or class
attribute its callers look it up through -- with a wrapper that records
a span (name, start, end, parent, run id), and a :class:`Patcher` puts
the originals back.  Spans stay in memory and are written out once, at
the end of a pass.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (:func:`perfbench.stats.self_time`).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.stats import self_time

#: Called before the wrapped function with its positional arguments;
#: whatever it returns is handed to the matching ``after`` hook.
Before = Callable[[tuple], Any]
#: Called after the wrapped function returns, with the closed span, the
#: positional arguments, the return value and the ``before`` context.
After = Callable[["Span", tuple, Any, Any], None]


class AccountingError(RuntimeError):
    """A traced pass broke one of the benchmark's accounting identities."""


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], name: str, start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._clock = clock

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self._clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name!r} closed while {popped.name!r} was innermost"
            )

    def wrapper(
        self,
        original: Callable,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> Callable:
        """``original`` wrapped so each call records a span ``name``.

        The hooks run outside the span, so their cost is charged to the
        caller's self time, not to the layer being measured.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            context = before(args) if before is not None else None
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, result, context)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # -- analysis --------------------------------------------------------

    def children(self) -> Dict[Optional[int], List[Span]]:
        """Spans grouped by parent id."""
        grouped: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.parent, []).append(span)
        return grouped

    def descendants(self, root: Span) -> List[Span]:
        """Every span below ``root`` (not including it)."""
        grouped = self.children()
        found: List[Span] = []
        frontier = [root.id]
        while frontier:
            for child in grouped.get(frontier.pop(), ()):
                found.append(child)
                frontier.append(child.id)
        return found

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, by span id."""
        grouped = self.children()
        return {
            span.id: self_time(
                span.start,
                span.end,
                ((c.start, c.end) for c in grouped.get(span.id, ())),
            )
            for span in self.spans
        }

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (with the shared run id)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span.id,
                            "parent": span.parent,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "attrs": span.attrs,
                        },
                        sort_keys=True,
                        default=str,
                    )
                    + "\n"
                )


class Patcher:
    """Replaces attributes and puts every original back on exit."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def check_accounting(tracer: Tracer, root: Span, tolerance: float = 1e-9) -> float:
    """Check that the layer self times under ``root`` plus the
    unattributed residue (``root``'s own self time) add up to ``root``'s
    duration, and that no self time is negative; returns the residue.

    Self times are computed from interval unions, so the sum only
    matches when spans nest properly -- overlapping siblings or a child
    outliving its parent break it.  :meth:`Tracer.close` already rejects
    such spans, so on a real pass this holds by construction: it guards
    the self-time arithmetic, not the program.
    """
    selfs = tracer.self_times()
    below = tracer.descendants(root)
    residue = selfs[root.id]
    total = residue + sum(selfs[span.id] for span in below)
    negative = [span.name for span in below if selfs[span.id] < -tolerance]
    if negative or residue < -tolerance:
        raise AccountingError(
            f"negative self time in {sorted(set(negative)) or ['residue']}"
        )
    if abs(total - root.duration) > tolerance * max(1.0, root.duration):
        raise AccountingError(
            f"layer self times + residue = {total!r} s, but the pass took "
            f"{root.duration!r} s"
        )
    return residue
