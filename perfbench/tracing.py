"""Spans recorded from outside the program, and the benchmark's statistics.

The benchmark never edits the program to trace it.  :meth:`Tracer.
instrument` replaces one public callable (a method on a class, or a
function on a module) with a wrapper that opens a span around each call;
:meth:`Tracer.restore` puts every original back.  Spans nest per thread, so
a layer's *self time* is its duration minus the time covered by the spans
it called (the scorer's time inside ``offer`` is the scorer's, not
``offer``'s).  Spans are wall time unless the tracer is given another
clock.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Tail percentiles tried from the highest down; the first one with at
#: least :data:`MIN_BEYOND` samples beyond it is the one reported.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (the smallest value with at least
    ``q`` percent of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0 - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""
    return count - max(1, math.ceil(count * q / 100.0 - 1e-9))


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` for the highest percentile in :data:`TAIL_PERCENTILES`
    with at least :data:`MIN_BEYOND` samples beyond it."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(len(values), q) >= MIN_BEYOND:
            return q, percentile(values, q)
    raise ValueError(
        f"{len(values)} samples leave fewer than {MIN_BEYOND} beyond "
        f"p{TAIL_PERCENTILES[-1]:g}; the workload is too small")


class Span(NamedTuple):
    """One finished span: its own time excludes the spans it called."""
    name: str
    start: float
    duration: float
    own: float


class _Open:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    """In-memory span recorder: per-layer durations and self times.

    Each finished span is kept as a :class:`Span`, in the order spans
    close; counts recorded at the same boundaries live in :attr:`counts`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Open:
        span = _Open(name, self.clock())
        self._stack().append(span)
        return span

    def close(self, span: _Open) -> None:
        duration = self.clock() - span.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].children += duration
        with self._lock:
            self.spans.append(Span(span.name, span.start, duration,
                                   duration - span.children))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- wrapping public calls ------------------------------------------
    def instrument(self, owner, attr: str, name,
                   on_result: Optional[Callable] = None) -> None:
        """Trace every call of ``owner.attr`` as a span.

        ``name`` is a span name or a function of the call's positional
        arguments returning one; ``on_result(args, result)`` records counts
        at the same boundary.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        target = raw.__func__ if is_classmethod else getattr(owner, attr)
        naming = name if callable(name) else (lambda *_: name)
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span = tracer.open(naming(*args))
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(args, result)
            return result

        owned = attr in vars(owner)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._patches.append((owner, attr, raw, owned))

    def restore(self) -> None:
        """Undo every :meth:`instrument`, newest first."""
        while self._patches:
            owner, attr, raw, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- summaries --------------------------------------------------------
    def self_times(self, name: str) -> List[float]:
        return [span.own for span in self.spans if span.name == name]

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]
