"""Spans recorded from outside the program, around calls into its layers.

A span is ``[name, start, end, parent]`` (``parent`` is the index of the
enclosing span, -1 at the top); spans stay in memory until the benchmark
ends and are written out with the result.  A layer's *self time* is its span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Spans of a name that occurs more often than this are summarized, not
#: listed, when a trace is written (per-crossing ``core.*`` spans).
LISTED_PER_NAME = 512


class Tracer:
    """Spans are kept as four parallel columns (no per-span container, so a
    round with 10^5 crossings does not feed the cyclic garbage collector);
    :attr:`spans` reads them back as ``[name, start, end, parent]`` rows."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = [-1]
        self._clock = clock

    @property
    def spans(self) -> List[list]:
        return [list(row) for row in zip(self.names, self.starts, self.ends, self.parents)]

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    @contextmanager
    def span(self, name: str):
        """Record the block as a span; yields the span's index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        try:
            yield index
        finally:
            self.ends[index] = self._clock()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span around each call (the hot-path form of
        :meth:`span`: no generator, no context manager)."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, self._clock

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ reading
    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(index)
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``name -> {count, total_s, self_s}`` over all spans (a name that
        never occurred reads as zeros)."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, own) in enumerate(zip(self.names, self.self_times())):
            row = out[name]
            row["count"] += 1
            row["total_s"] += self.duration(index)
            row["self_s"] += own
        return out

    def coverage(self, index: int) -> float:
        """Share of span ``index`` covered by its direct children."""
        covered = sum(self.duration(i) for i, parent in enumerate(self.parents) if parent == index)
        return covered / self.duration(index)

    def listed(self) -> Dict[str, Any]:
        """The trace as written to a result: every span of a rare name,
        a count for the names too frequent to list."""
        counts: Dict[str, int] = {}
        for name in self.names:
            counts[name] = counts.get(name, 0) + 1
        # Parents are re-indexed over the kept spans (a kept span whose
        # parent was dropped attaches to its nearest kept ancestor).
        new_index: Dict[int, int] = {}
        kept = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            if counts[name] > LISTED_PER_NAME:
                continue
            while parent >= 0 and parent not in new_index:
                parent = self.parents[parent]
            new_index[index] = len(kept)
            kept.append([name, start, end, new_index.get(parent, -1)])
        return {"spans": kept,
                "summarized": {n: c for n, c in counts.items() if c > LISTED_PER_NAME}}


def span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or nothing when tracing is off."""
    return tracer.span(name) if tracer is not None else nullcontext()


@contextmanager
def patched(tracer: Tracer, targets: Iterable[Tuple[Any, str, str]]):
    """Wrap ``owner.attr`` (a class or an instance) in a span named
    ``span_name`` for the duration of the block; every wrapper is removed
    again on exit, whether the block raised or not."""
    saved = []
    try:
        for owner, attr, span_name in targets:
            own = vars(owner)
            saved.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), span_name))
        yield
    finally:
        for owner, attr, had, old in reversed(saved):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
