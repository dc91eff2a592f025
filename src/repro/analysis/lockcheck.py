"""Runtime lock-order sanitizer for the named locks in the tree.

The static half of the concurrency pack (rules R007–R010 in
:mod:`repro.analysis.concurrency`) proves what it can see; this module
checks the rest at runtime.  When enabled it installs itself as the
:data:`repro.reliability.locks._hook` and, on every acquisition of a
:class:`~repro.reliability.locks.NamedLock`:

* asserts the acquisition against the global hierarchy — a thread
  holding rank ``r`` may only acquire ranks ``> r``, and may never
  re-acquire a lock of the same *name* (self-deadlock on these
  non-reentrant locks);
* records the dynamic acquisition edge ``held -> acquiring`` and runs
  incremental cycle detection over the edge set (two unranked locks can
  deadlock without ever violating the rank check);
* records per-lock hold times, reported as percentiles by
  ``repro lockgraph``.

:func:`install_watches` additionally instruments the shared classes the
chaos soak exercises (service counters, breaker, firewall stats, drift
monitor, recovery counters) so any write to a guarded attribute without
its declared lock held is reported — the runtime analogue of rule R007.

Activation mirrors the write sanitizer's hook pattern: nothing here runs
unless :func:`enable` is called (or ``REPRO_LOCKCHECK=1`` is set, or
``repro serve --lockcheck``), and when disabled a ``NamedLock`` costs one
global load and an ``is None`` test over a plain lock.  In the default
collecting mode violations accumulate in :meth:`LockCheck.report`; with
``strict=True`` the offending ``acquire`` raises
:class:`LockOrderViolation` at the exact broken call.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.reliability import locks as _locks
from repro.reliability.locks import NamedLock

#: Cap on stored hold-time samples per lock (enough for p99 on a soak).
_HOLD_SAMPLE_CAP = 100_000


class LockOrderViolation(RuntimeError):
    """Raised in strict mode when an acquisition breaks the hierarchy."""


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (assumed sorted), ``q`` in [0, 100]."""
    if not samples:
        return 0.0
    rank = max(0, min(len(samples) - 1, int(round(q / 100.0 * (len(samples) - 1)))))
    return samples[rank]


class LockCheck:
    """Per-thread held-set tracking + order assertion + edge recording."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        # Plain threading.Lock on purpose: a NamedLock here would re-enter
        # the very hook this object implements and self-deadlock.
        self._mu = threading.Lock()
        self._tls = threading.local()
        self._acquisitions: Dict[str, int] = {}
        self._edges: Dict[Tuple[str, str], int] = {}
        self._adjacency: Dict[str, set] = {}
        self._holds: Dict[str, List[float]] = {}
        self._violations: List[Dict[str, object]] = []
        self._seen_violations: set = set()

    # -- hook protocol (called from NamedLock) --------------------------
    def _stack(self) -> List[Tuple[NamedLock, float]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def before_acquire(self, lock: NamedLock) -> None:
        stack = self._stack()
        if not stack:
            return
        for held, _ in stack:
            if held.name == lock.name:
                self._violation({
                    "kind": "self_deadlock", "held": held.name,
                    "acquiring": lock.name,
                    "thread": threading.current_thread().name})
            elif (held.order is not None and lock.order is not None
                    and held.order >= lock.order):
                self._violation({
                    "kind": "order", "held": held.name,
                    "held_rank": held.order, "acquiring": lock.name,
                    "acquiring_rank": lock.order,
                    "thread": threading.current_thread().name})
        top = stack[-1][0]
        if top.name != lock.name:
            self._record_edge(top.name, lock.name)

    def acquired(self, lock: NamedLock) -> None:
        from repro.perf.profiler import wall_clock
        with self._mu:
            self._acquisitions[lock.name] = \
                self._acquisitions.get(lock.name, 0) + 1
        self._stack().append((lock, wall_clock()))

    def released(self, lock: NamedLock) -> None:
        from repro.perf.profiler import wall_clock
        stack = self._stack()
        for at in range(len(stack) - 1, -1, -1):
            if stack[at][0] is lock:
                _, since = stack.pop(at)
                elapsed = wall_clock() - since
                with self._mu:
                    samples = self._holds.setdefault(lock.name, [])
                    if len(samples) < _HOLD_SAMPLE_CAP:
                        samples.append(elapsed)
                return

    # -- bookkeeping ----------------------------------------------------
    def _violation(self, record: Dict[str, object]) -> None:
        key = tuple(sorted((k, str(v)) for k, v in record.items()
                           if k != "thread"))
        with self._mu:
            if key not in self._seen_violations:
                self._seen_violations.add(key)
                self._violations.append(record)
        if self.strict:
            raise LockOrderViolation(str(record))

    def _record_edge(self, src: str, dst: str) -> None:
        with self._mu:
            known = (src, dst) in self._edges
            self._edges[(src, dst)] = self._edges.get((src, dst), 0) + 1
            if not known:
                self._adjacency.setdefault(src, set()).add(dst)
                cycle = self._find_path(dst, src)
                if cycle is None:
                    return
                record: Dict[str, object] = {
                    "kind": "cycle", "cycle": cycle + [dst],
                    "thread": threading.current_thread().name}
            else:
                return
        self._violation(record)

    def _find_path(self, src: str, dst: str) -> Optional[List[str]]:
        """DFS path ``src -> ... -> dst`` in the dynamic graph, or None."""
        seen = set()
        trail: List[Tuple[str, List[str]]] = [(src, [src])]
        while trail:
            node, path = trail.pop()
            if node == dst:
                return path
            if node in seen:
                continue
            seen.add(node)
            for succ in self._adjacency.get(node, ()):
                trail.append((succ, path + [succ]))
        return None

    # -- guarded-write watching (runtime R007) --------------------------
    def holding(self, name: str) -> bool:
        """True when the current thread holds a lock named ``name``."""
        return any(held.name == name for held, _ in self._stack())

    def record_unguarded_write(self, cls_name: str, attr: str,
                               lock_name: str) -> None:
        self._violation({
            "kind": "unguarded_write", "cls": cls_name, "attr": attr,
            "expected_lock": lock_name,
            "thread": threading.current_thread().name})

    # -- reporting ------------------------------------------------------
    def report(self) -> Dict[str, object]:
        with self._mu:
            order = [v for v in self._violations
                     if v["kind"] in ("order", "self_deadlock", "cycle")]
            writes = [v for v in self._violations
                      if v["kind"] == "unguarded_write"]
            hold_ms: Dict[str, Dict[str, float]] = {}
            for name, samples in sorted(self._holds.items()):
                ordered = sorted(samples)
                hold_ms[name] = {
                    "count": float(len(ordered)),
                    "p50_ms": _percentile(ordered, 50) * 1e3,
                    "p99_ms": _percentile(ordered, 99) * 1e3,
                    "max_ms": _percentile(ordered, 100) * 1e3,
                }
            return {
                "acquisitions": dict(sorted(self._acquisitions.items())),
                "edges": [{"src": src, "dst": dst, "count": count}
                          for (src, dst), count
                          in sorted(self._edges.items())],
                "order_violations": list(order),
                "unguarded_writes": list(writes),
                "hold_ms": hold_ms,
            }

    @property
    def clean(self) -> bool:
        with self._mu:
            return not self._violations


# -- module-level activation (the hook pattern) -------------------------
_active: Optional[LockCheck] = None


def active() -> Optional[LockCheck]:
    """The installed checker, or None when the sanitizer is off."""
    return _active


def enable(strict: bool = False) -> LockCheck:
    """Install a fresh checker as the global NamedLock hook."""
    global _active
    check = LockCheck(strict=strict)
    _active = check
    _locks._hook = check
    return check


def disable() -> Optional[LockCheck]:
    """Uninstall the checker; returns it so callers can read the report."""
    global _active
    check = _active
    _active = None
    _locks._hook = None
    return check


@contextlib.contextmanager
def lockcheck(strict: bool = False):
    """Context manager: enable for the block, restore the previous state."""
    global _active
    previous = _active
    check = enable(strict=strict)
    try:
        yield check
    finally:
        _active = previous
        _locks._hook = previous


def env_requested() -> bool:
    """True when ``REPRO_LOCKCHECK`` asks for the sanitizer (1/true/yes/on)."""
    return os.environ.get("REPRO_LOCKCHECK", "").strip().lower() in (
        "1", "true", "yes", "on")


def enable_from_env() -> Optional[LockCheck]:
    """Enable iff the environment asks for it (import-time activation)."""
    if env_requested() and _active is None:
        return enable()
    return _active


# -- watched shared classes (runtime R007 during the soak) --------------
def watch_attributes(cls: type, guards: Dict[str, str]) -> Callable[[], None]:
    """Instrument ``cls`` so rebinding a guarded attribute without its
    declared lock held is reported as an unguarded write.

    ``guards`` maps attribute name -> required lock name.  The *first*
    write of each attribute (``__init__``, before the instance is shared)
    is exempt; every rebind after that must hold the named lock.
    Returns an uninstaller restoring the original ``__setattr__``; an
    inherited one is restored by deleting the override, so a base class
    and its subclasses can be watched (and unwatched) independently.
    """
    original = cls.__setattr__
    owned = "__setattr__" in vars(cls)

    def checked(self, name, value, _original=original, _guards=dict(guards)):
        lock_name = _guards.get(name)
        if lock_name is not None and name in getattr(self, "__dict__", {}):
            check = _active
            if check is not None and not check.holding(lock_name):
                check.record_unguarded_write(type(self).__name__, name,
                                             lock_name)
        _original(self, name, value)

    cls.__setattr__ = checked

    def uninstall():
        if owned:
            cls.__setattr__ = original
        else:
            del cls.__setattr__
    return uninstall


def install_watches() -> Callable[[], None]:
    """Watch every R007-guarded shared class the chaos soak exercises.

    Returns a single uninstaller.  Imports are local: this module must
    stay importable (for ``REPRO_LOCKCHECK`` activation in
    ``repro/__init__``) without dragging in the serving stack.
    """
    import dataclasses

    from repro.guard.drift import DriftMonitor
    from repro.guard.firewall import FirewallStats
    from repro.reliability.counters import RecoveryCounters
    from repro.serving.breaker import BreakerStats, CircuitBreaker
    from repro.serving.cluster import ClusterService
    from repro.serving.service import (
        InferenceService,
        RequestCore,
        _RequestCounters,
    )

    uninstallers = [
        watch_attributes(_RequestCounters, {
            attr: "serving.counters" for attr in (
                "submitted", "answered", "rejected", "errors",
                "deadline_missed")}),
        watch_attributes(CircuitBreaker, {
            attr: "serving.breaker" for attr in (
                "_state", "_consecutive_failures", "_opened_at",
                "_probe_in_flight")}),
        watch_attributes(BreakerStats, {
            field.name: "serving.breaker"
            for field in dataclasses.fields(BreakerStats)}),
        watch_attributes(FirewallStats, {
            attr: "guard.firewall.stats" for attr in (
                "offered", "accepted", "quarantined", "replayed")}),
        watch_attributes(DriftMonitor, {
            attr: "guard.drift" for attr in (
                "_entities", "_oov", "_tokens", "_null_counts",
                "_attr_totals", "_lengths", "_scores",
                "windows_evaluated", "_consecutive", "_forcing",
                "_windows_rolled", "_next_window", "_pending_windows")}),
        watch_attributes(RecoveryCounters, {
            field.name: "reliability.counters"
            for field in dataclasses.fields(RecoveryCounters)}),
        # The core before its front ends: their watches wrap its own.
        watch_attributes(RequestCore, {
            attr: "serving.submit" for attr in (
                "_closed", "_started", "_drained", "_threads", "_next_id")}),
        watch_attributes(InferenceService, {
            "_queries_blocked": "serving.blocker",
            "_query_candidates": "serving.blocker"}),
        watch_attributes(ClusterService, {
            "_records": "serving.cluster.records",
            "_pending": "serving.cluster.coalesce",
            "_pending_pairs": "serving.cluster.coalesce",
            "_oldest_pending": "serving.cluster.coalesce",
            "_flushes": "serving.cluster.coalesce",
            "_fused_batches": "serving.cluster.coalesce",
            "_fused_pairs": "serving.cluster.coalesce",
            "_solo_batches": "serving.cluster.coalesce",
            "_next_batch_id": "serving.cluster.replicas",
            "_next_query_id": "serving.cluster.replicas",
            "_stale_results": "serving.cluster.replicas",
            "_replica_errors": "serving.cluster.replicas",
            "_dispatch_faults": "serving.cluster.replicas",
            "_query_shard_misses": "serving.cluster.replicas"}),
    ]

    def uninstall():
        for restore in uninstallers:
            restore()
    return uninstall
