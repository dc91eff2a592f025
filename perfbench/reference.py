"""Host-speed reference slices taken between pieces of measured work.

End-to-end times are CPU time (see ``workloads.py``), which leaves out the
time the hypervisor steals the vCPUs but not a slower vCPU: on a shared
2-vCPU host the same CPU work takes up to 1.6x more CPU time for seconds to
minutes at a time.  So a workload runs one short fixed *reference slice*
of work that is not the program's between its operations, on the thread
that does the work, while nothing else in the process runs.  Slices are
timed on the same CPU clock as the work; their slowdown over the
reference's nominal slice time divides reported times (and multiplies
rates), so they read as on a host where one slice takes the nominal time.
Slice time is excluded from the measured times.

A slow spell does not slow all kinds of work alike, so a workload's
reference resembles its work.  :data:`INTERPRETER` (tokenizing, counting,
set algebra, small numpy kernels) tracks the model workloads; the resolve
stream's dict and set work over a large heap slows more with the shared
caches, and only :data:`TABLE`, which adds probes of a table larger than a
core's private caches, tracked it (and over-corrected the model workloads).
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import re
import signal
import statistics
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: Share of the slowest and of the fastest slices :attr:`HostSpeed.slowdown`
#: leaves out.
TRIM = 0.1

_TOKEN = re.compile(r"[a-z0-9]+")
_TEXT = " ".join(f"w{i:04d}-x{(i * 7919) % 1000:03d}" for i in range(300))


def interpreter_work() -> int:
    """One fixed unit of interpreter and small-numpy work."""
    tokens = _TOKEN.findall(_TEXT)
    counts = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    shared = set(tokens[::2]) & set(tokens[::3])
    hashes = np.arange(64, dtype=np.uint64) * np.uint64(2654435761)
    for _ in range(10):
        hashes = (hashes ^ (hashes >> np.uint64(13))) * np.uint64(3)
    return len(counts) + len(shared) + int(hashes[0] & np.uint64(1))


@functools.lru_cache(maxsize=None)
def _tables():
    """Built on first use (in a slice's untimed run), so only the workloads
    that use :data:`TABLE` hold them."""
    table = {(i * 7919) % 1_000_003: i for i in range(100_000)}
    probes = [(i * 104_729) % 1_000_003 for i in range(4000)]
    words = [f"w{(i * 7919) % 20_000}" for i in range(4000)]
    return table, probes, words


def table_work() -> int:
    """:func:`interpreter_work` plus dict probes and set algebra over
    tables larger than a core's private caches."""
    table, probes, words = _tables()
    found = sum(1 for key in probes if key in table)
    common = set(words[::2]) & set(words[1::2])
    return interpreter_work() + found + len(common)


@dataclasses.dataclass(frozen=True)
class Reference:
    """A reference slice's work and the CPU seconds one slice takes at the
    reference speed (its median on an unloaded 2-vCPU x86-64 host)."""

    work: Callable[[], int]
    nominal_s: float


INTERPRETER = Reference(interpreter_work, 0.00024)
TABLE = Reference(table_work, 0.0009)


def trimmed_mean(values: Sequence[float], trim: float = TRIM) -> float:
    """The mean of ``values`` without the ``trim`` share at either end."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class HostSpeed:
    """Reference slices taken during one measured phase."""

    def __init__(self, clock: Callable[[], float] = time.process_time,
                 reference: Reference = INTERPRETER):
        self.clock = clock
        self.reference = reference
        #: Clock time spent in slices (to exclude from measured times).
        self.total = 0.0
        #: (end time, timed seconds) of every slice, in time order.
        self.marks: List[Tuple[float, float]] = []
        self._slicing = False

    def slice(self, count: int = 1) -> float:
        """Run ``count`` reference slices; return the clock time they took.

        Each slice runs the work twice and times only the second run: the
        first brings the slice's code and data back into the caches the
        workload evicted, so the workload's own cache footprint does not
        leak into the host speed.
        """
        if self._slicing:  # a timer slice arriving during a slice
            return 0.0
        self._slicing = True
        took = 0.0
        try:
            for _ in range(count):
                began = self.clock()
                self.reference.work()
                warm = self.clock()
                self.reference.work()
                ended = self.clock()
                self.marks.append((ended, ended - warm))
                took += ended - began
        finally:
            self._slicing = False
        self.total += took
        return took

    @contextlib.contextmanager
    def sampling(self, every: float = 0.05):
        """Take a slice every ``every`` seconds of the process's CPU time,
        on the main thread (a ``SIGPROF`` timer's handler runs there), for
        work made of long calls with no point between operations to slice
        at.  Only for single-threaded work, with a per-thread :attr:`clock`:
        while an interval timer is armed, Linux advances the process CPU
        clock only at scheduler ticks, too coarse to time a slice."""
        previous = signal.signal(signal.SIGPROF, lambda *_: self.slice())
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, every, every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    @property
    def slowdown(self) -> float:
        """Mean slice time over the nominal one (>1: the host ran slow).

        A mean, so a phase that ran slow for part of its time is scaled by
        that part's share; trimmed, so one slice the process's own garbage
        collector or a page fault lengthened does not move it.
        """
        if not self.marks:
            raise ValueError("no reference slices taken")
        return trimmed_mean([timed for _, timed in self.marks]) \
            / self.reference.nominal_s

    def local(self, at: float, window: float = 0.5) -> float:
        """The slowdown (as :attr:`slowdown`) of the slices within
        ``window`` seconds of ``at``, or the whole phase's when there are
        none, for one timed operation: slow spells last from a fraction of
        a second to minutes."""
        times = [end for end, _ in self.marks]
        lo = bisect.bisect_left(times, at - window)
        hi = bisect.bisect_right(times, at + window)
        if lo == hi:
            return self.slowdown
        near = [timed for _, timed in self.marks[lo:hi]]
        return trimmed_mean(near) / self.reference.nominal_s
