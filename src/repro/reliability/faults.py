"""Deterministic fault injection for the training and evaluation pipeline.

A :class:`FaultPlan` names *where* (an injection site), *what* (a fault
kind), and *when* (which invocations of that site) faults fire.  Production
code calls :func:`fault_point` at its instrumented sites; with no active
plan the call is a single global load and ``is None`` test, so the
instrumentation is free in normal runs.

Triggering is deterministic: every site keeps a monotonically increasing
invocation counter, and a spec fires when the counter is in its ``at`` set
(optionally further restricted by context values such as ``epoch``/``step``).
Running the same plan against the same code therefore injects the same
faults at the same points, which is what lets the recovery tests assert
bitwise-identical resume behaviour.

Fault kinds and their contracts:

``transient``
    :func:`fault_point` raises :class:`TransientIOFault` (an ``OSError``).
    Callers are expected to absorb it with
    :func:`repro.reliability.retry.retry_with_backoff`.
``corrupt``
    Returned as the string ``"corrupt"``; the call site mangles its own
    data (truncate a file, poison a payload) so the *reader-side* recovery
    path is exercised, not just an exception handler.
``nan``
    Returned as ``"nan"``; the trainer substitutes a non-finite loss.
``kill``
    :func:`fault_point` raises :class:`TrainingKilled`, simulating the
    process being OOM-killed mid-epoch.
``poison``
    Returned as ``"poison"``; caches replace the stored entry with garbage
    so validation-and-degrade is exercised.
``stall``
    Returned as ``"stall"``; the call site sleeps for its configured stall
    duration, simulating a slow dependency (the serving layer uses this to
    exercise deadline-triggered tier degradation).

Plans are thread-safe: :meth:`FaultPlan.check` serializes the invocation
counters behind a single lock, so the serving worker pool can drive one
plan from many threads and still see a deterministic *total* fault count.
(The per-thread interleaving of invocation indices is scheduler-dependent;
multi-threaded tests therefore pin specs with wide ``at`` windows.)

Stdlib-only on purpose — imported from low-level modules (``perf.cache``).
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.reliability.locks import named_lock

#: Kinds that raise from inside :func:`fault_point`.
_RAISING_KINDS = ("transient", "kill")
#: Kinds returned to the caller, which applies the damage itself.
_RETURNED_KINDS = ("corrupt", "nan", "poison", "stall")
KINDS = _RAISING_KINDS + _RETURNED_KINDS


#: Registry of every instrumented site in the tree.  R004 (``repro lint``)
#: enforces that each ``fault_point`` call names a site registered here,
#: that site names are unique, and that every site is exercised by a test;
#: the table in ``docs/TESTING.md`` mirrors this dict.  Add the entry here
#: *before* instrumenting new production code.
KNOWN_SITES: Dict[str, str] = {
    "lm.checkpoint.read": "LM checkpoint file read (lm/checkpoint.py)",
    "lm.checkpoint.write": "LM checkpoint file write (lm/checkpoint.py)",
    "lm.checkpoint.parse": "LM checkpoint JSON parse (lm/checkpoint.py)",
    "lm.checkpoint.corrupt": "LM checkpoint payload integrity (lm/checkpoint.py)",
    "train.checkpoint.read": "trainer state read (reliability/state.py)",
    "train.checkpoint.write": "trainer state write (reliability/state.py)",
    "train.checkpoint.corrupt": "trainer state integrity (reliability/state.py)",
    "cache.entry": "LRU cache entry retrieval (perf/cache.py)",
    "trainer.loss": "per-step loss computation (core/trainer.py)",
    "trainer.step": "optimizer step boundary (core/trainer.py)",
    "pipeline.score": "pipeline chunk scoring (pipeline.py)",
    "harness.cell": "benchmark harness table cell (harness/tables.py)",
    "serving.score": "tier-1 model scoring per batch (serving/service.py)",
    "store.read": "embedding-store shard read + checksum (store/embedstore.py)",
    "store.build": "embedding-store atomic file publication (store/embedstore.py)",
    "serving.tier2": "tier-2 feature-matcher scoring (serving/service.py)",
    "guard.validate": "firewall record validation (guard/firewall.py)",
    "guard.drift": "drift-monitor window evaluation (guard/drift.py)",
    "blocking.index": "ANN blocking index query integrity (blocking/ann.py)",
    "serving.replica": "replica-process tier-1 scoring (serving/cluster.py)",
    "serving.dispatch": "router batch dispatch to a replica (serving/cluster.py)",
    "resolve.wal": "cluster-store WAL segment publication + replay (resolve/wal.py)",
    "resolve.merge": "incremental cluster merge / conflict repair (resolve/store.py)",
    "resolve.checkpoint": "resolver shutdown-checkpoint write + publication (resolve/wal.py)",
    "resolve.compact": "deletion of WAL segments a checkpoint covers (resolve/wal.py)",
}


class InjectedFault(Exception):
    """Base class for all injected faults (never raised spontaneously)."""


class TransientIOFault(InjectedFault, OSError):
    """A temporary IO failure; retrying the operation should succeed."""


class CorruptDataFault(InjectedFault, ValueError):
    """Raised by *readers* that detect injected (or real) corruption."""


class TrainingKilled(InjectedFault):
    """Simulates the process dying mid-epoch (SIGKILL / OOM)."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: ``kind`` at invocations ``at`` of ``site``.

    ``match`` further restricts firing to invocations whose context (the
    keyword arguments of the :func:`fault_point` call) contains the given
    items, e.g. ``{"epoch": 1}`` to only fire during the second epoch.
    """

    site: str
    kind: str
    at: FrozenSet[int] = frozenset((0,))
    match: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        # A set: check() tests membership on every invocation of the site,
        # and soak schedules hold hundreds of thousands of indices.
        object.__setattr__(self, "at", frozenset(int(i) for i in self.at))
        object.__setattr__(self, "match", tuple(self.match))

    def matches(self, ctx: Mapping) -> bool:
        return all(ctx.get(key) == value for key, value in self.match)


class FaultPlan:
    """A deterministic schedule of faults plus bookkeeping of what fired.

    ``triggered`` counts fired faults per ``(site, kind)``; ``invocations``
    counts how often each site was reached (fired or not), which tests use
    to pin specs to exact invocation indices.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...] = (), seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self.invocations: Counter = Counter()
        self.triggered: Counter = Counter()
        # One lock per plan: check() mutates two Counters and must stay
        # consistent when the serving worker pool fires sites concurrently.
        self._lock = named_lock("reliability.faults.plan")

    @classmethod
    def single(cls, site: str, kind: str, at: Tuple[int, ...] = (0,),
               **match) -> "FaultPlan":
        """Convenience constructor for a one-spec plan."""
        return cls((FaultSpec(site=site, kind=kind, at=at,
                              match=tuple(match.items())),))

    def check(self, site: str, ctx: Mapping) -> Optional[FaultSpec]:
        """Advance the site counter; return the spec that fires, if any."""
        with self._lock:
            index = self.invocations[site]
            self.invocations[site] += 1
            for spec in self.specs:
                if spec.site == site and index in spec.at and spec.matches(ctx):
                    self.triggered[(site, spec.kind)] += 1
                    return spec
            return None

    def fired(self, site: str, kind: str) -> int:
        return self.triggered[(site, kind)]


_active_plan: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    return _active_plan


@contextlib.contextmanager
def inject(plan: FaultPlan):
    """Activate ``plan`` for the duration of the block.

    The active-plan global is process-wide: the serving worker pool reads
    it from many threads while one test/driver thread holds the context.
    ``FaultPlan.check`` itself is lock-protected, so concurrent callers are
    safe; only *nesting* two ``inject`` blocks from different threads at
    once is unsupported.
    """
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    try:
        yield plan
    finally:
        _active_plan = previous


def fault_point(site: str, **ctx) -> Optional[str]:
    """Instrumented-site hook.  Returns a fault kind to apply, or ``None``.

    Raises :class:`TransientIOFault` / :class:`TrainingKilled` for the
    raising kinds; returns ``"corrupt"``/``"nan"``/``"poison"``/``"stall"``
    for the kinds the caller applies itself.
    """
    plan = _active_plan
    if plan is None:
        return None
    spec = plan.check(site, ctx)
    if spec is None:
        return None
    if spec.kind == "transient":
        raise TransientIOFault(f"injected transient IO fault at {site} {ctx or ''}")
    if spec.kind == "kill":
        raise TrainingKilled(f"injected kill at {site} {ctx or ''}")
    return spec.kind
