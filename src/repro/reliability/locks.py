"""Named locks and the repo's single global lock hierarchy.

Every ``threading.Lock`` in the tree is created through
:func:`named_lock`, which (a) gives the lock a stable, human-readable
name so sanitizer reports and ``repro lockgraph`` output cite sites
rather than ``id()``\\ s, and (b) assigns it a **rank** from the one
global :data:`LOCK_HIERARCHY` table below.  The ordering contract is:

    A thread holding a lock may only acquire locks of strictly greater
    rank.  Locks of equal rank (two instances of the same name, e.g.
    per-replica breakers) must never nest.

The static analyzer (rule R008 in :mod:`repro.analysis.concurrency`)
checks every nested acquisition it can see against this table, and the
opt-in runtime sanitizer (:mod:`repro.analysis.lockcheck`,
``REPRO_LOCKCHECK=1``) asserts it on every real acquisition.  New
subsystems — in particular the planned sharded/replica serving layer —
must add their locks to the table at the rank their nesting requires
and keep the merged static ∪ dynamic graph acyclic (see
``docs/ANALYSIS.md`` for the full contract and the current table).

When no sanitizer is installed, a :class:`NamedLock` costs one module
global load and an ``is None`` test over a plain ``threading.Lock`` —
the same zero-overhead hook pattern as the write-sanitizer and the op
profiler.

Stdlib-only on purpose: imported from ``reliability.counters`` and
``reliability.faults``, which low-level modules (``perf.cache``, the
optimizers) depend on.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

#: The single global lock hierarchy: name -> rank.  Lower ranks are
#: acquired first (outermost); a thread holding rank ``r`` may only
#: acquire ranks ``> r``.  Mirrored as a table in docs/ANALYSIS.md —
#: keep the two in sync (R008 parses this dict).
LOCK_HIERARCHY: Dict[str, int] = {
    "resolve.stream": 4,         # streaming resolver: reorder buffer + stats
    "resolve.store": 6,          # incremental cluster store partition state
    "resolve.wal.io": 8,         # write-ahead-log segment file serialization
    "serving.submit": 10,        # request core: admission/lifecycle/registry
    "serving.cluster.records": 14,   # retained records + sharded index map
    "serving.cluster.coalesce": 16,  # cross-request batch coalescing buffer
    "serving.cluster.replicas": 18,  # replica table: procs, beats, in-flight
    "serving.blocker": 20,       # online blocking index mutation/query
    "serving.model": 30,         # tier-1 scoring serialization
    "serving.breaker": 40,       # circuit-breaker state machine
    "guard.firewall.stats": 50,  # firewall conservation tallies
    "guard.quarantine": 52,      # quarantine in-memory record list
    "guard.quarantine.io": 54,   # quarantine JSONL file serialization
    "guard.drift": 56,           # drift-monitor windows + flag state
    "serving.counters": 60,      # service conservation counters
    "reliability.faults.plan": 70,   # fault-plan invocation counters
    "reliability.counters": 80,      # global recovery counters (innermost)
}

#: Registry of every name handed to :func:`named_lock`: name -> rank
#: (``None`` for locks outside the hierarchy — they still get dynamic
#: cycle detection, just no static rank check).
REGISTRY: Dict[str, Optional[int]] = {}

# Bootstrap lock for the registry itself.  Deliberately a plain
# threading.Lock: naming it would route its acquisitions through the
# sanitizer hook it exists to bootstrap.
_registry_lock = threading.Lock()

#: Sanitizer hook (installed by ``repro.analysis.lockcheck``): an object
#: with ``before_acquire(lock)`` / ``acquired(lock)`` / ``released(lock)``
#: methods, or None when no sanitizer is active.
_hook = None


class NamedLock:
    """A ``threading.Lock`` with a registered name and hierarchy rank.

    Supports the same surface the tree uses: ``with lock:``,
    ``acquire``/``release``, and ``locked()``.  Not reentrant (like the
    plain lock it wraps); the sanitizer reports same-name nesting as a
    self-deadlock.
    """

    __slots__ = ("name", "order", "_lock")

    def __init__(self, name: str, order: Optional[int]):
        self.name = name
        self.order = order
        self._lock = threading.Lock()  # repro: noqa[R008] -- the one wrapped primitive every named_lock() call site shares

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        hook = _hook
        if hook is not None:
            hook.before_acquire(self)
        got = self._lock.acquire(blocking, timeout)  # repro: noqa[R008] -- NamedLock wraps the primitive; order analysis happens on the wrapper
        if hook is not None and got:
            hook.acquired(self)
        return got

    def release(self) -> None:
        hook = _hook
        if hook is not None:
            hook.released(self)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        rank = "unranked" if self.order is None else f"rank {self.order}"
        return f"NamedLock({self.name!r}, {rank})"


def named_lock(name: str, order: Optional[int] = None) -> NamedLock:
    """Create a lock registered under ``name``.

    The rank comes from :data:`LOCK_HIERARCHY` when the name is listed
    there; an explicit ``order`` must agree with the table (and with any
    earlier registration of the same name).  Multiple instances may
    share one name — they are the same *site* and rank (and therefore
    must never nest with each other).
    """
    ranked = LOCK_HIERARCHY.get(name)
    if order is None:
        order = ranked
    elif ranked is not None and order != ranked:
        raise ValueError(
            f"lock {name!r} is rank {ranked} in LOCK_HIERARCHY; "
            f"conflicting order={order}")
    with _registry_lock:
        previous = REGISTRY.get(name)
        if name in REGISTRY and previous != order:
            raise ValueError(
                f"lock {name!r} already registered with rank {previous}; "
                f"conflicting order={order}")
        REGISTRY[name] = order
    return NamedLock(name, order)
