"""In-memory spans and attribute wrappers for the traced benchmark run.

The traced run measures each layer from the outside: it replaces a
callable at the module or class attribute through which the program calls
it with a wrapper that records a span, and puts the original back
afterwards.  Spans stay in memory until the run ends; processes forked
from a traced one (the daemon's pool worker) inherit the wrappers and
flush their own spans to a file after each task.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One timed call: ``parent`` is the enclosing span's ``sid``."""

    __slots__ = ("sid", "name", "start", "end", "parent", "op")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.op = op

    def to_json(self, pid: int) -> Dict[str, Any]:
        """JSON form; ids are made unique across processes by the pid."""
        return {
            "sid": f"{pid}:{self.sid}",
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else f"{pid}:{self.parent}",
            "op": self.op,
        }


class Tracer:
    """Span recorder with per-thread parent stacks plus named counters.

    ``op`` is the identifier new root spans are booked to (a grid cell, an
    edit file, a request); child spans inherit their parent's.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: collections.Counter = collections.Counter()
        #: name -> largest value seen (e.g. the largest dense LP asked for)
        self.maxima: Dict[str, float] = {}
        self.op: Any = None
        self.pid = os.getpid()
        self._next_sid = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def adopt_fork(self) -> None:
        """In a forked child, forget what the parent recorded before the fork."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._local = threading.local()
            self._lock = threading.Lock()
            self.spans = []
            self.counts = collections.Counter()
            self.maxima = {}

    # -- spans --------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, op: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent.op if parent is not None else self.op
        with self._lock:
            span = Span(self._next_sid, name, time.perf_counter(),
                        parent.sid if parent is not None else None, op)
            self._next_sid += 1
            self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def span(self, name: str, op: Any = None) -> "_SpanContext":
        return _SpanContext(self, name, op)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def note_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(value, self.maxima.get(name, value))

    # -- wrappers -----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Optional[str],
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
        when: Optional[Callable[["Tracer"], bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name=None`` records no span (only ``before``/``after`` hooks run);
        ``when`` returning false makes that call pass straight through, its
        time staying with the caller's span.
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(tracer):
                return original(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                span = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.finish(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- persistence --------------------------------------------------------

    def drain_json(self) -> Dict[str, Any]:
        """Everything recorded so far, then forget it (worker-side flush)."""
        with self._lock:
            doc = {
                "pid": os.getpid(),
                "spans": [s.to_json(self.pid) for s in self.spans if s.end is not None],
                "counts": dict(self.counts),
                "maxima": dict(self.maxima),
            }
            self.spans = []
            self.counts = collections.Counter()
            self.maxima = {}
        return doc

    def append_to(self, path: str) -> None:
        """Append the drained state as one JSON line (one write per call)."""
        line = json.dumps(self.drain_json()) + "\n"
        with open(path, "a") as handle:
            handle.write(line)


class _SpanContext:
    __slots__ = ("tracer", "name", "op", "span")

    def __init__(self, tracer: Tracer, name: str, op: Any) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.tracer.begin(self.name, self.op)
        return self.span

    def __exit__(self, *_exc) -> None:
        self.tracer.finish(self.span)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """``sid -> duration minus the part of it its child spans cover``.

    Spans are dicts as :meth:`Span.to_json` writes them; ``sid`` values
    are unique within the sequence.
    """
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["sid"]: (span["end"] - span["start"])
        - _covered(children.get(span["sid"], ()), span["start"], span["end"])
        for span in spans
    }
