"""Crash-tolerant sharded multi-process serving with batch coalescing.

The router/replica architecture the ROADMAP's serving item calls for:
one :class:`ClusterService` **router** owns admission control, retained
records, and the response lifecycle, and fans scoring work out to N
**replica processes** (stdlib ``multiprocessing``, spawn context).  Each
replica loads the pickled frozen tier-1 scorer (and, when configured, the
read-only mmap embedding store) once at startup and then serves fused
score batches, shard queries, and incremental index adds from its work
queue.

Request lifecycle::

    submit(pairs, deadline_s)
        │  capacity full / closed ──► ServiceOverloaded / ServiceClosed
        ▼                             (explicit rejection, counted)
    coalescing buffer ── Δt or batch-size flush ──► fused batches
        ▼                                             │
    dispatcher ── consistent choice of live replica ──┤
        ▼                                             ▼
    replica process (one fused tier-1 forward)   tier-2/3 fallback
        ▼                                        (no live replica /
    collector ──► MatchResponse                   breaker open / deadline)

**Batch coalescing and bitwise parity.**  Compatible pairs from different
requests are held up to ``coalesce_window`` seconds (or ``coalesce_pairs``
pairs) and scored in one fused tier-1 forward.  Scores stay *bitwise
identical* to the offline single-request path because the store-backed
scorer pads every forward chunk to one fixed ``pad_width``
(:class:`~repro.store.scorer.StoreBackedScorer`): with all blocks inside
the fixed width, each pair's score is independent of which other pairs
share the batch, so neither fusion nor chunk boundaries can perturb a
bit.  Requests containing a pair wider than ``pad_width`` are never fused
— they are dispatched solo, where the same scorer reproduces the offline
chunking exactly.  Use :func:`pad_width_for` to pick the tightest width
for a record pool.

**Crash tolerance.**  Replicas heartbeat from their serving loop; the
supervisor declares a replica dead when its process exits (``kill -9``)
and wedged when beats stop, then pops the replica's in-flight batches
(ownership transfer — a late result from the old incarnation is dropped
as stale), fails them over to a surviving replica (or the local tier-2/3
cascade once :data:`MAX_REDISPATCH` is exhausted or every breaker is open),
and respawns the replica with its index shard rebuilt from the router's
retained records.  Every replica incarnation gets a *fresh* work queue,
so work left in a dead incarnation's queue can never be double-processed.
Conservation (``answered + rejected == submitted``) holds across the
crash: a batch is always either completed by exactly one owner or
explicitly failed over, and ``close()`` drains every admitted request
before teardown.  Admission, answering, the tier-2/3 fallback walk and
the drain are the shared :class:`~repro.serving.service.RequestCore`'s;
this module adds only what a router over processes needs.

**Sharded blocking.**  :meth:`ClusterService.index_record` routes each
retained record to the replica a consistent-hash ring assigns it;
:meth:`ClusterService.submit_query` broadcasts the query to every live
shard and merges the candidate sets deterministically (ascending global
index, capped at ``k``).  Dead shards are counted, not waited on.

Fault sites: ``serving.replica`` fires inside the replica scoring path
(``transient`` absorbed by in-replica retry, ``stall`` sleeps, ``corrupt``
mangles the response so router-side validation catches it, ``kill`` makes
the replica ``os._exit`` like a SIGKILL); ``serving.dispatch`` fires in
the router's dispatch path.  The router's locks rank between the core's
``serving.submit`` and ``serving.blocker`` in ``LOCK_HIERARCHY`` (see
docs/ANALYSIS.md).
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import multiprocessing
import os
import queue
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import get_default_dtype, set_default_dtype
from repro.config import get_scale, set_scale
from repro.data.schema import Entity, EntityPair
from repro.perf.profiler import wall_clock
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TrainingKilled,
    fault_point,
    inject,
)
from repro.reliability.locks import named_lock
from repro.reliability.retry import RetryPolicy, retry_with_backoff
from repro.serving.breaker import OPEN, CircuitBreaker
from repro.serving.service import PendingResponse, RequestCore, _Request
from repro.serving.tiers import DegradationCascade, ScoringTier
from repro.store.scorer import StoreBackedScorer

#: Widest fixed pad width the pair comparator supports: it concatenates
#: the left and right WpC blocks plus one separator through the frozen LM
#: encoder, so ``2 * pad_width + 1 <= max_len (128)``.
MAX_PAD_WIDTH = 63

#: Replica idle-loop beat period (the work queue poll timeout).
HEARTBEAT_INTERVAL = 0.05
#: Supervisor scan period.
SUPERVISOR_INTERVAL = 0.05
#: Batch failovers before giving up on tier 1 and answering locally.
MAX_REDISPATCH = 2
#: Respawn budget per replica slot.
MAX_RESPAWNS = 8
#: How long a broadcast shard query waits for stragglers.
QUERY_TIMEOUT = 10.0
#: ``multiprocessing`` start method: spawn keeps children free of
#: inherited router locks/threads (fork could freeze a child whose heap
#: snapshot caught a lock mid-acquisition).
START_METHOD = "spawn"


# ======================================================================
# Pad-width selection (the parity foundation of coalescing)
# ======================================================================
def _base_matcher(matcher):
    return matcher.matcher if isinstance(matcher, StoreBackedScorer) else matcher


def pair_width(matcher, pair: EntityPair) -> int:
    """Exact padded token width scoring ``pair`` needs (0 for encoder-less
    matchers, whose scores carry no padding and always coalesce)."""
    base = _base_matcher(matcher)
    encoder = getattr(base, "_encoder", None)
    if encoder is None:
        return 0
    slots = base._num_attributes
    return max(len(encoder.attribute_ids(entity, slot))
               for entity in (pair.left, pair.right)
               for slot in range(slots))


def pad_width_for(matcher, pairs: Sequence[EntityPair]) -> int:
    """The tightest fixed pad width covering ``pairs`` (capped so the
    comparator's joined sequence still fits the LM's ``max_len``)."""
    widest = max((pair_width(matcher, pair) for pair in pairs), default=0)
    return min(widest, MAX_PAD_WIDTH)


# ======================================================================
# Configuration
# ======================================================================
@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Tuning knobs for :class:`ClusterService` (see docs/SERVING.md)."""

    #: Number of replica processes (also the shard count of the ring).
    replicas: int = 2
    #: Bound on concurrently admitted requests; beyond it submits reject.
    queue_capacity: int = 64
    #: Δt — how long compatible pairs wait for batch-mates before a flush.
    coalesce_window: float = 0.005
    #: Flush as soon as this many pairs are buffered (also the fused batch
    #: size cap, i.e. the replica's one-forward amortization target).
    coalesce_pairs: int = 32
    #: Fixed tier-1 pad width; ``None`` falls back to :data:`MAX_PAD_WIDTH`
    #: (always correct, wastes head FLOPs — pass :func:`pad_width_for` of
    #: the serving pool instead).  Requests wider than this dispatch solo.
    pad_width: Optional[int] = None
    #: Beats may go silent this long before a replica counts as wedged.
    heartbeat_timeout: float = 5.0
    #: Wedge grace for a spawning replica (import + unpickle are slow).
    spawn_grace: float = 120.0
    #: Per-replica circuit breaker (crashes and errors count as failures).
    breaker_failures: int = 3
    breaker_reset: float = 0.25
    #: In-replica retry policy for transient tier-1 faults.
    retry: RetryPolicy = RetryPolicy(retries=2, base_delay=0.005,
                                     max_delay=0.05)
    #: Sleep applied when the ``stall`` fault kind fires at a cluster site.
    stall_seconds: float = 0.05
    #: Per-request deadline unless ``submit`` passes an explicit one.
    default_deadline: Optional[float] = None
    #: ``close()`` waits this long for in-flight requests to drain before
    #: force-answering the leftovers (still conserved, stamped "error").
    drain_timeout: float = 60.0
    #: Deterministic fault specs shipped to every replica (each replica
    #: process builds its own plan; ``serving.replica`` is the site).
    replica_faults: Tuple[FaultSpec, ...] = ()


# ======================================================================
# Consistent-hash sharding
# ======================================================================
class ConsistentHashRing:
    """Deterministic uid -> replica-slot assignment with virtual nodes.

    blake2b-based so every process (router, respawned replicas, tests)
    computes identical ownership without sharing state.
    """

    def __init__(self, replica_ids: Sequence[int], vnodes: int = 32):
        self.replica_ids = tuple(replica_ids)
        if not self.replica_ids:
            raise ValueError("ring needs at least one replica id")
        points = sorted(
            (self._hash(f"replica-{rid}:vnode-{v}"), rid)
            for rid in self.replica_ids for v in range(vnodes))
        self._keys = [point for point, _ in points]
        self._owners = [rid for _, rid in points]

    @staticmethod
    def _hash(key: object) -> int:
        digest = hashlib.blake2b(str(key).encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def owner(self, key: object) -> int:
        at = bisect.bisect_right(self._keys, self._hash(key))
        if at == len(self._keys):
            at = 0
        return self._owners[at]


# ======================================================================
# Replica process side
# ======================================================================
@dataclasses.dataclass(frozen=True)
class _ReplicaPayload:
    """Everything a replica needs, picklable for the spawn boundary.

    ``FaultPlan`` holds a lock and cannot cross the boundary — replicas
    receive the frozen specs and build their own plan, so fault schedules
    stay deterministic per process.

    ``default_dtype`` and ``scale`` carry the router process's ambient
    numeric state across the spawn boundary: tensor construction casts to
    the *process-global* default dtype, so a fresh interpreter left at its
    own default would score the same model in a different precision than
    the router's offline parity reference.
    """

    scorer: object
    retry: RetryPolicy
    stall_seconds: float
    fault_specs: Tuple[FaultSpec, ...] = ()
    blocker_factory: Optional[object] = None
    shard: Tuple[Tuple[int, Entity], ...] = ()
    store_path: Optional[str] = None
    default_dtype: object = None
    scale: object = None


def _replica_main(replica_id: int, incarnation: int,
                  payload: _ReplicaPayload, work_q, response_q) -> None:
    """Replica serving loop (runs in a spawned child process).

    Beats are posted from this loop only — after each work item and on
    every idle poll timeout — so a heartbeat proves the loop is live, and
    a replica wedged inside a forward goes silent until the supervisor
    kills it.  The injected ``kill`` fault exits with ``os._exit`` so the
    router sees exactly what a SIGKILL looks like.
    """
    if payload.default_dtype is not None:
        set_default_dtype(payload.default_dtype)
    if payload.scale is not None:
        set_scale(payload.scale)
    scorer = payload.scorer
    if isinstance(scorer, StoreBackedScorer):
        if payload.store_path is not None:
            from repro.store.embedstore import EmbeddingStore

            store = EmbeddingStore.open(payload.store_path)
            network = getattr(scorer.matcher, "_network", None)
            if network is not None:
                store.bind(network)
            scorer.store = store

    blocker = None
    shard_gidx: List[int] = []
    indexed = set()
    if payload.blocker_factory is not None:
        blocker = payload.blocker_factory()
        blocker.fit([record for _, record in payload.shard])
        shard_gidx = [gidx for gidx, _ in payload.shard]
        indexed = set(shard_gidx)

    plan = FaultPlan(payload.fault_specs) if payload.fault_specs else None
    plan_ctx = inject(plan) if plan is not None else contextlib.nullcontext()
    with plan_ctx:
        response_q.put(("ready", replica_id, incarnation, len(shard_gidx)))
        served = 0
        while True:
            try:
                message = work_q.get(timeout=HEARTBEAT_INTERVAL)
            except queue.Empty:
                message = None
            if message is None:
                response_q.put(("beat", replica_id, incarnation, served))
                continue
            kind = message[0]
            if kind == "stop":
                fired = dict(plan.triggered) if plan is not None else {}
                response_q.put(("stopped", replica_id, incarnation, fired))
                return
            try:
                if kind == "score":
                    _, batch_id, pairs = message

                    def attempt(batch_id=batch_id, pairs=pairs):
                        fault = fault_point("serving.replica",
                                            replica=replica_id,
                                            batch=batch_id)
                        if fault == "stall":
                            time.sleep(payload.stall_seconds)
                        values = [float(v) for v in scorer.scores(list(pairs))]
                        if fault == "corrupt":
                            # Mangled response payload: the *router-side*
                            # validation (length + finiteness) must catch
                            # it and fail the batch over.
                            values = values[:-1]
                        return values

                    values = retry_with_backoff(attempt, policy=payload.retry)
                    response_q.put(("result", replica_id, incarnation,
                                    batch_id, values))
                elif kind == "index":
                    _, gidx, record = message
                    if blocker is not None and gidx not in indexed:
                        blocker.add(record)
                        shard_gidx.append(gidx)
                        indexed.add(gidx)
                elif kind == "query":
                    _, qid, record, k = message
                    local = (blocker.candidates(record, k=k)
                             if blocker is not None else [])
                    response_q.put(("cands", replica_id, incarnation, qid,
                                    [shard_gidx[at] for at in local]))
            except TrainingKilled:
                # The injected-kill contract: die the way a SIGKILL/OOM
                # would — no cleanup, no goodbye message.
                os._exit(1)
            except BaseException as exc:
                batch_id = message[1] if kind == "score" else None
                response_q.put(("error", replica_id, incarnation, batch_id,
                                f"{type(exc).__name__}: {exc}"))
            served += 1
            response_q.put(("beat", replica_id, incarnation, served))


def _reap(proc) -> None:
    """Stop a replica process that will not go quietly: terminate, then
    kill."""
    for stop in (proc.terminate, proc.kill):
        if proc.is_alive():
            stop()
            proc.join(timeout=2.0)


# ======================================================================
# Router-side bookkeeping records (plain holders; every mutation happens
# under the ClusterService lock noted on the owning table)
# ======================================================================
@dataclasses.dataclass
class _ClusterRequest(_Request):
    """An admitted request plus its segment state (guarded by
    serving.submit): batches fill their slices in, and the worst tier
    seen stamps the response."""

    scores: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    fusible: bool = True
    filled: int = 0
    tier: Optional[ScoringTier] = None
    degrade_reason: Optional[str] = None


@dataclasses.dataclass
class _Batch:
    """One dispatch unit: slices of one or more requests, fused in order."""

    id: int
    slices: Tuple[Tuple[_ClusterRequest, int, int], ...]
    pairs: Tuple[EntityPair, ...]
    owner: Optional[Tuple[int, int]] = None   # (replica id, incarnation)
    attempts: int = 0
    redispatched: bool = False


@dataclasses.dataclass(eq=False)
class _Replica:
    """Router-side view of one replica incarnation (serving.cluster.replicas).

    Every incarnation owns a *private* response queue and collector
    thread.  This is a crash-tolerance decision, not a convenience: a
    ``multiprocessing.Queue`` shares one cross-process write lock among
    its writers, so a replica SIGKILLed mid-``put`` on a shared queue
    would strand the lock and wedge every *healthy* writer too.  With
    per-incarnation queues, a kill can only ever poison the victim's own
    channel — the worst case is that one collector thread blocks on a
    half-written frame, and the supervisor has already failed the
    victim's work over by then.
    """

    rid: int
    proc: object
    work_q: object
    resp_q: object
    incarnation: int
    breaker: CircuitBreaker
    shard_size: int
    collector: Optional[threading.Thread] = None
    alive: bool = True
    ready: bool = False
    last_beat: float = 0.0
    beats: int = 0
    respawns: int = 0
    faults_fired: Dict[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class _Query:
    """One broadcast shard query (guarded by serving.cluster.replicas)."""

    qid: int
    expected: frozenset
    results: Dict[int, List[int]]
    event: threading.Event


# ======================================================================
# The router
# ======================================================================
class ClusterService(RequestCore):
    """Router over N replica processes: coalescing, dispatch, failover.

    Use as a context manager (``with ClusterService(...) as svc``) or call
    :meth:`start` / :meth:`close` explicitly.  Admission (in-flight bounded
    by ``queue_capacity``), answering, fallback, drain and the shared
    stats come from :class:`~repro.serving.service.RequestCore`, so soak
    harnesses and clients drive this and
    :class:`~repro.serving.service.InferenceService` interchangeably.

    Thread/lock layout (ranks in ``LOCK_HIERARCHY``): the core's
    lifecycle, open-request registry and per-request segment state under
    ``serving.submit``; the retained record table under
    ``serving.cluster.records``; the coalescing buffer under
    ``serving.cluster.coalesce``; the replica table, in-flight batch
    table, and open queries under ``serving.cluster.replicas``.  Blocking
    work (queue puts/gets, process management, fault points, tier
    forwards) always runs outside these locks.
    """

    _request_type = _ClusterRequest

    def __init__(self, cascade: DegradationCascade,
                 config: ClusterConfig = ClusterConfig(),
                 blocker_factory=None,
                 store_path: Optional[str] = None):
        if config.replicas < 1:
            raise ValueError("a cluster needs at least one replica")
        super().__init__(cascade, config, inflight_bound=config.queue_capacity,
                         drain_timeout=config.drain_timeout)
        #: Factory building one *empty* shard blocker per replica; must be
        #: picklable (a module-level class or ``functools.partial``).
        self.blocker_factory = blocker_factory
        self.store_path = store_path

        matcher = cascade.tier1.matcher
        if not isinstance(matcher, StoreBackedScorer) \
                and getattr(matcher, "_network", None) is not None:
            matcher = StoreBackedScorer(matcher)
            cascade.tier1.matcher = matcher
        if isinstance(matcher, StoreBackedScorer):
            pad = MAX_PAD_WIDTH if config.pad_width is None \
                else min(config.pad_width, MAX_PAD_WIDTH)
            matcher.pad_width = pad
            # One fused forward per dispatched batch: chunking wider than
            # the fusion cap means a coalesced batch never re-splits (and
            # with the fixed pad width, chunk boundaries cannot move a
            # bit anyway).
            base_batch = matcher.batch_size \
                or getattr(matcher.matcher.scale, "batch_size", 32)
            matcher.batch_size = max(base_batch, config.coalesce_pairs)
            self.pad_width = pad
        else:
            # Encoder-less tier 1 (feature/stub matchers): scores carry no
            # padding, so every request is fusible by construction.
            self.pad_width = config.pad_width or 0

        self._records_lock = named_lock("serving.cluster.records")
        self._coalesce_lock = named_lock("serving.cluster.coalesce")
        self._replicas_lock = named_lock("serving.cluster.replicas")

        self._next_batch_id = 0
        self._next_query_id = 0

        self._records: List[Entity] = []

        self._pending: List[_ClusterRequest] = []
        self._pending_pairs = 0
        self._oldest_pending: Optional[float] = None
        self._flushes = 0
        self._fused_batches = 0
        self._solo_batches = 0
        self._fused_pairs = 0

        self._replicas: Dict[int, _Replica] = {}
        self._inflight: Dict[int, _Batch] = {}
        self._queries: Dict[int, _Query] = {}
        self._stale_results = 0
        self._replica_errors = 0
        self._dispatch_faults = 0
        self._query_shard_misses = 0

        self._flush_event = threading.Event()
        #: Set by the drain: flush whatever is buffered without waiting
        #: out the coalesce window.
        self._draining = threading.Event()
        self._stop_event = threading.Event()
        self._fallback_q: "queue.Queue" = queue.Queue()

        self._ctx = multiprocessing.get_context(START_METHOD)
        self._ring = ConsistentHashRing(range(config.replicas))
        self._payload = self._build_payload()

    # -- payload --------------------------------------------------------
    def _build_payload(self) -> _ReplicaPayload:
        scorer = self.cascade.tier1.matcher
        ship = scorer
        if isinstance(scorer, StoreBackedScorer):
            # Ship a freshly built store-less clone: the mmap store is
            # reopened inside each replica process (mmaps must not ride
            # through pickle), and a fresh clone carries no instance
            # token, so live-encode cache keys never cross processes.
            ship = StoreBackedScorer(scorer.matcher, store=None,
                                     batch_size=scorer.batch_size,
                                     pad_width=scorer.pad_width)
        return _ReplicaPayload(
            scorer=ship,
            retry=self.config.retry,
            stall_seconds=self.config.stall_seconds,
            fault_specs=tuple(self.config.replica_faults),
            blocker_factory=self.blocker_factory,
            store_path=self.store_path,
            default_dtype=get_default_dtype(),
            scale=get_scale(),
        )

    # -- core hooks -----------------------------------------------------
    def _launch(self) -> List[threading.Thread]:
        for rid in range(self.config.replicas):
            replica = self._spawn_replica(rid, incarnation=0, shard=())
            with self._replicas_lock:
                self._replicas[rid] = replica
        return [
            threading.Thread(target=self._dispatcher_loop,
                             name="cluster-dispatcher", daemon=True),
            threading.Thread(target=self._supervisor_loop,
                             name="cluster-supervisor", daemon=True),
            threading.Thread(target=self._fallback_loop,
                             name="cluster-fallback", daemon=True),
        ]

    def wait_ready(self, timeout: float = 120.0) -> bool:
        """Block until every replica finished loading (or ``timeout``)."""
        deadline = wall_clock() + timeout
        while wall_clock() < deadline:
            with self._replicas_lock:
                ready = all(replica.ready or not replica.alive
                            for replica in self._replicas.values()) \
                    and any(replica.alive
                            for replica in self._replicas.values())
            if ready:
                return True
            time.sleep(0.01)
        return False

    def _wake(self) -> None:
        self._draining.set()
        self._flush_event.set()

    def _shutdown(self, threads: List[threading.Thread]) -> None:
        """Stop the router threads, then the replicas.  The core drained
        first, with the dispatcher/supervisor/fallback threads, the
        collectors and the replicas all live, so in-flight work finished
        through the normal paths — including respawns, if a replica died
        during shutdown."""
        self._stop_event.set()
        self._flush_event.set()
        for thread in threads:
            thread.join(timeout=30.0)
        self._stop_replicas()

    def _stop_replicas(self) -> None:
        """Graceful replica teardown.

        Each incarnation's collector thread is still draining its private
        response queue here, so the 'stopped' goodbyes — carrying the
        replica's fired-fault tallies — land through the normal path.
        After the processes are reaped, flipping ``alive`` is the floor
        that lets every collector exit even for incarnations killed
        without a goodbye.
        """
        with self._replicas_lock:
            replicas = list(self._replicas.values())
        for replica in replicas:
            if replica.proc.is_alive():
                with contextlib.suppress(ValueError, OSError):
                    replica.work_q.put(("stop",))
        for replica in replicas:
            replica.proc.join(timeout=5.0)
            _reap(replica.proc)
        with self._replicas_lock:
            for replica in replicas:
                replica.alive = False
        for replica in replicas:
            if replica.collector is not None:
                replica.collector.join(timeout=10.0)
            with contextlib.suppress(ValueError, OSError):
                replica.work_q.cancel_join_thread()
                replica.work_q.close()
            with contextlib.suppress(ValueError, OSError):
                replica.resp_q.cancel_join_thread()
                replica.resp_q.close()

    # -- replica process management ------------------------------------
    def _spawn_replica(self, rid: int, incarnation: int,
                       shard: Tuple[Tuple[int, Entity], ...]) -> _Replica:
        """Start one replica incarnation with *fresh* private queues.

        Abandoning the previous incarnation's work queue is what makes
        redispatch safe: work stranded in a dead incarnation's queue can
        never be picked up again, so a batch has exactly one live owner.
        The response queue (and its collector thread) are equally
        per-incarnation: a SIGKILLed child can die holding its response
        queue's shared writer lock, and a shared channel would wedge
        every healthy replica behind that corpse.  Private channels turn
        a poisoned queue into the dead owner's private problem — and the
        dead owner's work has already been failed over.
        """
        work_q = self._ctx.Queue()
        resp_q = self._ctx.Queue()
        payload = dataclasses.replace(self._payload, shard=tuple(shard))
        proc = self._ctx.Process(
            target=_replica_main,
            args=(rid, incarnation, payload, work_q, resp_q),
            name=f"repro-replica-{rid}", daemon=True)
        proc.start()
        breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_timeout=self.config.breaker_reset,
            name=f"replica-{rid}")
        replica = _Replica(rid=rid, proc=proc, work_q=work_q,
                           resp_q=resp_q, incarnation=incarnation,
                           breaker=breaker, shard_size=len(shard))
        replica.last_beat = wall_clock()
        replica.collector = threading.Thread(
            target=self._collector_loop, args=(replica,),
            name=f"cluster-collector-{rid}.{incarnation}", daemon=True)
        replica.collector.start()
        return replica

    def replica_pid(self, rid: int) -> Optional[int]:
        """The current incarnation's OS pid (chaos tests SIGKILL it)."""
        with self._replicas_lock:
            replica = self._replicas.get(rid)
            return replica.proc.pid if replica is not None else None

    def _shard_snapshot(self, rid: int) -> Tuple[Tuple[Tuple[int, Entity], ...], int]:
        """(shard records owned by ``rid``, retained-record watermark)."""
        with self._records_lock:
            watermark = len(self._records)
            shard = tuple(
                (gidx, record)
                for gidx, record in enumerate(self._records)
                if self._ring.owner(record.uid) == rid)
        return shard, watermark

    def _handle_replica_death(self, replica: _Replica, why: str) -> None:
        """Failover + respawn for one dead/wedged incarnation."""
        COUNTERS.increment("replica_crashes")
        replica.breaker.record_failure()
        if why == "wedged":
            # A silent-but-running process still holds the model lock-free
            # serving loop hostage; take it down before handing its work
            # to someone else, so it cannot answer after the transfer.
            _reap(replica.proc)
        orphans: List[_Batch] = []
        with self._replicas_lock:
            for batch_id in list(self._inflight):
                batch = self._inflight[batch_id]
                if batch.owner == (replica.rid, replica.incarnation):
                    orphans.append(self._inflight.pop(batch_id))
        if not self._stop_event.is_set() \
                and replica.respawns < MAX_RESPAWNS:
            shard, watermark = self._shard_snapshot(replica.rid)
            fresh = self._spawn_replica(replica.rid,
                                        replica.incarnation + 1, shard)
            fresh.respawns = replica.respawns + 1
            with self._replicas_lock:
                self._replicas[replica.rid] = fresh
            # Records retained while the replacement was spawning missed
            # both the snapshot and the live index path; send the delta.
            with self._records_lock:
                delta = [
                    (gidx, record) for gidx, record
                    in enumerate(self._records[watermark:], start=watermark)
                    if self._ring.owner(record.uid) == replica.rid]
            for gidx, record in delta:
                with contextlib.suppress(ValueError, OSError):
                    fresh.work_q.put(("index", gidx, record))
            COUNTERS.increment("replica_respawns")
        for batch in orphans:
            self._failover(batch)

    def _supervisor_loop(self) -> None:
        while not self._stop_event.is_set():
            self._stop_event.wait(SUPERVISOR_INTERVAL)
            if self._stop_event.is_set():
                return
            now = wall_clock()
            dead: List[Tuple[_Replica, str]] = []
            with self._replicas_lock:
                for replica in self._replicas.values():
                    if not replica.alive:
                        continue
                    grace = self.config.spawn_grace if not replica.ready \
                        else self.config.heartbeat_timeout
                    if not replica.proc.is_alive():
                        replica.alive = False
                        dead.append((replica, "crashed"))
                    elif now - replica.last_beat > grace:
                        replica.alive = False
                        dead.append((replica, "wedged"))
            for replica, why in dead:
                self._handle_replica_death(replica, why)

    def _enqueue(self, request: _ClusterRequest) -> None:
        """Buffer an admitted request for coalescing (an empty one is
        answered on the spot)."""
        now = wall_clock()
        request.scores = np.zeros(len(request.pairs), dtype=np.float64)
        request.labels = np.zeros(len(request.pairs), dtype=np.int64)
        if not request.pairs:
            self.respond(request, self.cascade.tier1, request.scores,
                         request.labels, None)
            return
        if self.pad_width:
            request.fusible = all(
                pair_width(self.cascade.tier1.matcher, pair) <= self.pad_width
                for pair in request.pairs)
        with self._coalesce_lock:
            self._pending.append(request)
            self._pending_pairs += len(request.pairs)
            if self._oldest_pending is None:
                self._oldest_pending = now
            buffered = self._pending_pairs
        if buffered >= self.config.coalesce_pairs:
            self._flush_event.set()

    # -- coalescing + dispatch ------------------------------------------
    def _dispatcher_loop(self) -> None:
        while True:
            with self._coalesce_lock:
                buffered = self._pending_pairs
                oldest = self._oldest_pending
            now = wall_clock()
            window = self.config.coalesce_window
            due = buffered and (
                buffered >= self.config.coalesce_pairs
                or (oldest is not None and now - oldest >= window)
                or self._stop_event.is_set() or self._draining.is_set())
            if due:
                self._flush()
                continue
            if self._stop_event.is_set():
                return
            timeout = window if oldest is None \
                else max(window - (now - oldest), 0.001)
            self._flush_event.wait(timeout)
            self._flush_event.clear()

    def _flush(self) -> None:
        """Drain the buffer into batches: fused packs, solos, expiries."""
        with self._coalesce_lock:
            requests = self._pending
            self._pending = []
            self._pending_pairs = 0
            self._oldest_pending = None
        if not requests:
            return
        now = wall_clock()
        fused_src: List[_ClusterRequest] = []
        batches: List[Tuple[_Batch, Optional[str]]] = []
        for request in requests:
            whole = ((request, 0, len(request.pairs)),)
            if request.expired(now):
                batches.append((self._new_batch(whole), "deadline"))
            elif not request.fusible:
                batches.append((self._new_batch(whole), None))
            else:
                fused_src.append(request)
        cap = self.config.coalesce_pairs
        slices: List[Tuple[_ClusterRequest, int, int]] = []
        size = 0
        packed: List[_Batch] = []
        for request in fused_src:
            offset = 0
            total = len(request.pairs)
            while offset < total:
                take = min(cap - size, total - offset)
                slices.append((request, offset, take))
                size += take
                offset += take
                if size >= cap:
                    packed.append(self._new_batch(tuple(slices)))
                    slices = []
                    size = 0
        if slices:
            packed.append(self._new_batch(tuple(slices)))
        fused = sum(1 for batch in packed if len(batch.slices) > 1)
        fused_pairs = sum(len(batch.pairs) for batch in packed
                          if len(batch.slices) > 1)
        solo = len(packed) - fused \
            + sum(1 for _, reason in batches if reason is None)
        with self._coalesce_lock:
            self._flushes += 1
            self._fused_batches += fused
            self._fused_pairs += fused_pairs
            self._solo_batches += solo
        for batch, reason in batches:
            if reason == "deadline":
                self._to_fallback(batch, "deadline")
            else:
                self._dispatch(batch)
        for batch in packed:
            self._dispatch(batch)

    def _new_batch(self,
                   slices: Tuple[Tuple[_ClusterRequest, int, int], ...]) -> _Batch:
        pairs: List[EntityPair] = []
        for request, start, count in slices:
            pairs.extend(request.pairs[start:start + count])
        with self._replicas_lock:
            self._next_batch_id += 1
            batch_id = self._next_batch_id
        return _Batch(id=batch_id, slices=tuple(slices), pairs=tuple(pairs))

    def _choose_replica_locked(
            self, exclude: Optional[Tuple[int, int]]) -> Optional[_Replica]:
        """Least-loaded live replica whose breaker admits traffic.

        Called with ``serving.cluster.replicas`` held; the per-replica
        breaker nests at a strictly greater rank.
        """
        load: Dict[int, int] = {}
        for batch in self._inflight.values():
            if batch.owner is not None:
                load[batch.owner[0]] = load.get(batch.owner[0], 0) + 1
        best: Optional[Tuple[Tuple[int, int], _Replica]] = None
        for replica in self._replicas.values():
            if not replica.alive:
                continue
            if exclude is not None \
                    and (replica.rid, replica.incarnation) == exclude:
                continue
            if replica.breaker.state == OPEN:
                continue
            key = (load.get(replica.rid, 0), replica.rid)
            if best is None or key < best[0]:
                best = (key, replica)
        return best[1] if best is not None else None

    def _dispatch(self, batch: _Batch,
                  exclude: Optional[Tuple[int, int]] = None) -> None:
        attempts = 0
        kind = None
        while True:
            try:
                kind = fault_point("serving.dispatch", batch=batch.id)
                break
            except InjectedFault:
                # A dispatch attempt that died before reaching a replica;
                # counted, then retried on the spot (the batch is still
                # exclusively ours — nothing was handed off yet).
                attempts += 1
                with self._replicas_lock:
                    self._dispatch_faults += 1
                if attempts > 3:
                    kind = None
                    break
        if kind == "stall":
            time.sleep(self.config.stall_seconds)
        with self._replicas_lock:
            target = self._choose_replica_locked(exclude)
            if target is not None:
                batch.owner = (target.rid, target.incarnation)
                self._inflight[batch.id] = batch
        if target is None:
            self._to_fallback(batch, "replica-unavailable")
            return
        try:
            target.work_q.put(("score", batch.id, batch.pairs))
        except (ValueError, OSError):
            # The incarnation was torn down between choice and put; take
            # the batch back (if the supervisor has not already) and let
            # the fallback answer it.
            with self._replicas_lock:
                reclaimed = self._inflight.pop(batch.id, None)
            if reclaimed is not None:
                self._to_fallback(reclaimed, "replica-unavailable")

    def _failover(self, batch: _Batch) -> None:
        """Re-dispatch a lost batch, or degrade it once the budget is spent."""
        batch.attempts += 1
        batch.redispatched = True
        COUNTERS.increment("requests_redispatched",
                           len({slice_[0].id for slice_ in batch.slices}))
        if batch.attempts > MAX_REDISPATCH:
            self._to_fallback(batch, "replica-failed")
        else:
            self._dispatch(batch, exclude=batch.owner)

    def _to_fallback(self, batch: _Batch, reason: str) -> None:
        self._fallback_q.put((batch, reason))

    # -- collectors (one per replica incarnation) ------------------------
    def _collector_loop(self, replica: _Replica) -> None:
        """Drain one incarnation's private response queue.

        Exits only once the incarnation is no longer ``alive`` *and* its
        queue is empty, so the "stopped" goodbye (graceful) or the last
        buffered results (crash) are always processed before the thread
        dies.  The exit condition deliberately ignores ``_stop_event``:
        ``_stop_replicas`` flips ``alive`` itself as the floor for
        incarnations that died without a goodbye.
        """
        while True:
            try:
                message = replica.resp_q.get(timeout=0.05)
            except (queue.Empty, OSError, ValueError):
                message = None
            if message is None:
                with self._replicas_lock:
                    gone = not replica.alive
                if gone:
                    return
                continue
            kind = message[0]
            if kind in ("beat", "ready"):
                self._on_beat(message[1], message[2], ready=(kind == "ready"))
            elif kind == "result":
                self._on_result(*message[1:])
            elif kind == "error":
                self._on_error(*message[1:])
            elif kind == "cands":
                self._on_candidates(*message[1:])
            elif kind == "stopped":
                self._on_stopped(*message[1:])

    def _current(self, rid: int, incarnation: int) -> Optional[_Replica]:
        """Replica ``rid`` if still ``incarnation``, else None (lock held)."""
        replica = self._replicas.get(rid)
        if replica is not None and replica.incarnation == incarnation:
            return replica
        return None

    def _on_beat(self, rid: int, incarnation: int, ready: bool) -> None:
        with self._replicas_lock:
            replica = self._current(rid, incarnation)
            if replica is not None:
                replica.last_beat = wall_clock()
                replica.beats += 1
                if ready:
                    replica.ready = True

    def _on_result(self, rid: int, incarnation: int, batch_id: int,
                   values: List[float]) -> None:
        scores = np.asarray(values, dtype=np.float64)
        with self._replicas_lock:
            batch = self._inflight.pop(batch_id, None)
            if batch is None:
                # Stale: the batch was already completed or transferred
                # to a new owner (who will be the one to answer it).
                self._stale_results += 1
                return
            # Router-side validation: a mangled response is a replica
            # failure, not an answer.
            corrupt = scores.shape[0] != len(batch.pairs) \
                or not bool(np.isfinite(scores).all())
            if corrupt:
                self._replica_errors += 1
            replica = self._current(rid, incarnation)
        if corrupt:
            if replica is not None:
                replica.breaker.record_failure()
            self._failover(batch)
            return
        if replica is not None:
            replica.breaker.record_success()
        self._complete(batch, scores, self.cascade.tier1, reason=None)

    def _on_error(self, rid: int, incarnation: int,
                  batch_id: Optional[int], detail: str) -> None:
        batch = None
        with self._replicas_lock:
            self._replica_errors += 1
            if batch_id is not None:
                candidate = self._inflight.get(batch_id)
                if candidate is not None \
                        and candidate.owner == (rid, incarnation):
                    batch = self._inflight.pop(batch_id)
            replica = self._current(rid, incarnation)
        if replica is not None:
            replica.breaker.record_failure()
        if batch is not None:
            self._failover(batch)

    def _on_candidates(self, rid: int, incarnation: int, qid: int,
                       gidxs: List[int]) -> None:
        done = False
        with self._replicas_lock:
            query = self._queries.get(qid)
            if query is not None:
                query.results[rid] = list(gidxs)
                done = set(query.results) >= set(query.expected)
        if done and query is not None:
            query.event.set()

    def _on_stopped(self, rid: int, incarnation: int,
                    fired: Dict[object, int]) -> None:
        with self._replicas_lock:
            replica = self._current(rid, incarnation)
            if replica is not None:
                replica.alive = False
                replica.faults_fired = {
                    f"{site}:{kind}": count
                    for (site, kind), count in sorted(fired.items())}

    # -- local fallback scoring -----------------------------------------
    def _fallback_loop(self) -> None:
        """Tier-2/3 answers for batches tier 1 could not serve, through
        the core's fallback walk (deadline-expired batches drop straight
        to the floor)."""
        while True:
            try:
                item = self._fallback_q.get(timeout=0.05)
            except queue.Empty:
                item = None
            if item is None:
                if self._stop_event.is_set():
                    return
                continue
            batch, reason = item
            tier, scores = self.fallback(batch.id, list(batch.pairs),
                                         expired=reason == "deadline")
            self._complete(batch, np.asarray(scores, dtype=np.float64),
                           tier, reason=reason)

    # -- completion ------------------------------------------------------
    def _complete(self, batch: _Batch, scores: np.ndarray,
                  tier: ScoringTier, reason: Optional[str]) -> None:
        """Fill each request segment; finalize requests that are whole.

        Completion may run from the collector and the fallback thread
        concurrently (two batches of one split request), so segment state
        mutates under ``serving.submit``; the labels forward runs outside
        it.
        """
        labels = tier.predict(scores)
        finished: List[_ClusterRequest] = []
        offset = 0
        with self._submit_lock:
            for request, start, count in batch.slices:
                request.scores[start:start + count] = scores[offset:offset + count]
                request.labels[start:start + count] = labels[offset:offset + count]
                request.filled += count
                if request.tier is None or tier.level >= request.tier.level:
                    request.tier = tier
                    if reason is not None:
                        request.degrade_reason = reason
                if batch.redispatched:
                    request.redispatched = True
                if request.filled >= len(request.pairs):
                    finished.append(request)
                offset += count
        for request in finished:
            self.respond(request, request.tier, request.scores,
                         request.labels, request.degrade_reason)

    # -- sharded online blocking -----------------------------------------
    def index_record(self, record: Entity) -> int:
        """Retain ``record`` and index it on its ring-assigned shard.

        The router keeps every record (that is what rebuilds a crashed
        replica's shard); the owning replica mirrors it into its local
        blocker via the incremental ``add`` path.
        """
        if self.blocker_factory is None:
            raise RuntimeError("cluster was built without a blocker factory")
        with self._records_lock:
            gidx = len(self._records)
            self._records.append(record)
        rid = self._ring.owner(record.uid)
        with self._replicas_lock:
            replica = self._replicas.get(rid)
            target_q = replica.work_q \
                if replica is not None and replica.alive else None
        if target_q is not None:
            with contextlib.suppress(ValueError, OSError):
                target_q.put(("index", gidx, record))
        return gidx

    def submit_query(self, record: Entity, k: int = 16,
                     deadline_s: Optional[float] = None,
                     ) -> Tuple[List[int], Optional[PendingResponse]]:
        """Block-then-score one raw record against every live shard.

        Candidate membership is the union of each live shard's top-``k``;
        emission is deterministic (ascending retained-record index, capped
        at ``k``).  Shards that miss :data:`QUERY_TIMEOUT` are counted in
        ``stats()["sharding"]["query_shard_misses"]`` — a degraded recall
        answer, never a hang.
        """
        if self.blocker_factory is None:
            raise RuntimeError("cluster was built without a blocker factory")
        event = threading.Event()
        with self._replicas_lock:
            self._next_query_id += 1
            qid = self._next_query_id
            targets = [(replica.rid, replica.work_q)
                       for replica in self._replicas.values() if replica.alive]
            query = _Query(qid=qid,
                           expected=frozenset(rid for rid, _ in targets),
                           results={}, event=event)
            self._queries[qid] = query
        for _, target_q in targets:
            with contextlib.suppress(ValueError, OSError):
                target_q.put(("query", qid, record, k))
        if targets:
            event.wait(QUERY_TIMEOUT)
        with self._replicas_lock:
            self._queries.pop(qid, None)
            results = {rid: list(gidxs)
                       for rid, gidxs in query.results.items()}
            missing = len(query.expected) - len(results)
            if missing > 0:
                self._query_shard_misses += missing
        merged = sorted({gidx for gidxs in results.values()
                         for gidx in gidxs})[:k]
        if not merged:
            return [], None
        with self._records_lock:
            others = [self._records[gidx] for gidx in merged]
        pairs = [EntityPair(record, other, 0) for other in others]
        return merged, self.submit(pairs, deadline_s=deadline_s)

    # -- observability ---------------------------------------------------
    def _sections(self) -> Tuple[bool, Dict[str, object]]:
        """Coalescing, replica table and sharding tallies; serving while
        a live replica exists."""
        with self._coalesce_lock:
            coalesce = {
                "window_s": self.config.coalesce_window,
                "max_pairs": self.config.coalesce_pairs,
                "pad_width": self.pad_width,
                "flushes": self._flushes,
                "fused_batches": self._fused_batches,
                "fused_pairs": self._fused_pairs,
                "solo_batches": self._solo_batches,
                "pending_pairs": self._pending_pairs,
            }
        with self._records_lock:
            retained = len(self._records)
        with self._replicas_lock:
            replicas = {
                str(replica.rid): {
                    "alive": replica.alive,
                    "ready": replica.ready,
                    "pid": replica.proc.pid,
                    "incarnation": replica.incarnation,
                    "respawns": replica.respawns,
                    "beats": replica.beats,
                    "shard_size": replica.shard_size,
                    "breaker": replica.breaker.as_dict(),
                    "faults_fired": dict(replica.faults_fired),
                }
                for replica in self._replicas.values()}
            any_alive = any(replica.alive
                            for replica in self._replicas.values())
            sharding = {
                "retained_records": retained,
                "inflight_batches": len(self._inflight),
                "open_queries": len(self._queries),
                "stale_results": self._stale_results,
                "replica_errors": self._replica_errors,
                "dispatch_faults": self._dispatch_faults,
                "query_shard_misses": self._query_shard_misses,
            }
        return any_alive, {
            "service": {"replicas": self.config.replicas},
            "coalesce": coalesce,
            "replica_table": replicas,
            "sharding": sharding,
        }
