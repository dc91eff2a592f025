"""The request core both serving front ends share, and the in-process
front end on it: bounded queue, worker pool, deadlines, circuit breaker,
and the degradation cascade.

Request lifecycle::

    submit(pairs, deadline_s)
        │  queue full / closed ──► ServiceOverloaded / ServiceClosed
        ▼                          (explicit rejection, counted)
    bounded Queue ──► worker pool ──► tier walk ──► MatchResponse
                                       │
                      tier 1 (full model, behind the breaker, chunked with
                              deadline checkpoints between chunks)
                       ├─ deadline pressure / open breaker / fault
                       ▼
                      tier 2 (Magellan feature matcher)
                       ├─ deadline pressure / fault
                       ▼
                      tier 3 (TF-IDF floor — always answers)

Contracts the chaos soak asserts (admission, answering, fallback and
drain are written once, in :class:`RequestCore`, for this service and the
multi-process :class:`~repro.serving.cluster.ClusterService` alike):

* **Conservation** — every submitted request is either answered (a
  ``MatchResponse``, possibly degraded, possibly carrying an error) or
  explicitly rejected at admission.  ``answered + rejected == submitted``,
  always; nothing is silently dropped.
* **Tier-1 parity** — a tier-1 response is bitwise-identical to the
  offline single-threaded ``matcher.scores`` path.  Tier-1 scoring chunks
  at the matcher's own batch size (so padding boundaries match the offline
  call exactly) and serializes model calls behind one lock (the encoding
  caches are process-global).
* **Honest degradation** — every response is stamped with the tier that
  produced it and the reason it degraded; a cheap answer is never passed
  off as a tier-1 answer.

Timing uses :func:`repro.perf.profiler.wall_clock` exclusively (R001: the
perf layer owns the clock).
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocking.base import Blocker
from repro.data.schema import Entity, EntityPair
from repro.guard.firewall import DataFirewall, summarize
from repro.perf.profiler import wall_clock
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import fault_point
from repro.reliability.locks import named_lock
from repro.reliability.retry import RetryPolicy, retry_with_backoff
from repro.serving.breaker import OPEN, CircuitBreaker, CircuitOpenError
from repro.serving.tiers import DegradationCascade, ScoringTier
from repro.store.embedstore import EmbeddingStore
from repro.store.scorer import StoreBackedScorer


class ServiceOverloaded(RuntimeError):
    """Admission control rejected the request: the front end is full."""


class ServiceClosed(RuntimeError):
    """The service is shut down and no longer admits requests."""


class _DeadlinePressure(Exception):
    """Internal: a deadline checkpoint fired between pipeline stages."""


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs for :class:`InferenceService` (see docs/SERVING.md)."""

    #: Bounded request queue; a full queue rejects, never buffers unbounded.
    queue_capacity: int = 32
    num_workers: int = 4
    #: Per-request deadline in seconds (None = no deadline) unless the
    #: caller passes an explicit one to ``submit``.
    default_deadline: Optional[float] = None
    #: Tier-1 scoring chunk; None = the matcher's own batch size, which is
    #: what keeps chunked scoring bitwise-identical to the offline call.
    batch_size: Optional[int] = None
    #: Circuit breaker around the tier-1 LM-encoding + cache path.
    breaker_failures: int = 3
    breaker_reset: float = 0.25
    #: Sleep applied when the ``stall`` fault kind fires at a serving site.
    stall_seconds: float = 0.05
    #: Retry policy for transient tier-1 faults (inside the breaker).
    retry: RetryPolicy = RetryPolicy(retries=2, base_delay=0.005,
                                     max_delay=0.05)
    #: When the firewall's drift monitor reports sustained drift, force
    #: requests straight to tier 2 (the full model's calibration is suspect
    #: on a shifted distribution; the feature tier degrades more gracefully).
    drift_force_tier2: bool = True


@dataclasses.dataclass
class MatchResponse:
    """One answered request, stamped with provenance."""

    request_id: int
    status: str                      # "ok" | "error"
    tier: Optional[str]              # tier name that produced the answer
    tier_level: Optional[int]        # 1 = full model, 2 = features, 3 = tfidf
    scores: Optional[np.ndarray]
    labels: Optional[np.ndarray]
    degraded: bool = False
    degrade_reason: Optional[str] = None   # "deadline"|"breaker"|"fault"|"drift"
    deadline_missed: bool = False
    latency: float = 0.0             # seconds from admission to answer
    error: Optional[str] = None
    #: Records of this request the firewall quarantined at submit; scores
    #: cover only the surviving pairs.
    quarantined: int = 0
    #: True when part of this request was failed over to another replica
    #: after its original owner died (cluster serving only; see
    #: serving/cluster.py).
    redispatched: bool = False


class PendingResponse:
    """Client-side handle for an admitted request (a minimal future)."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._event = threading.Event()
        self._response: Optional[MatchResponse] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> MatchResponse:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not answered within {timeout}s")
        assert self._response is not None
        return self._response

    def _fulfill(self, response: MatchResponse) -> None:
        self._response = response
        self._event.set()


@dataclasses.dataclass
class _Request:
    """One admitted request, held in the core's registry until answered."""

    id: int
    pairs: Tuple[EntityPair, ...]
    pending: PendingResponse
    admitted_at: float
    deadline_at: Optional[float] = None
    quarantined: int = 0
    redispatched: bool = False

    def expired(self, now: Optional[float] = None) -> bool:
        return self.deadline_at is not None \
            and (wall_clock() if now is None else now) >= self.deadline_at


class _RequestCounters:
    """Conservation bookkeeping, behind one lock."""

    def __init__(self):
        self._lock = named_lock("serving.counters")
        self.submitted = 0
        self.answered = 0
        self.rejected = 0
        self.errors = 0
        self.deadline_missed = 0
        self.by_tier: Dict[int, int] = {1: 0, 2: 0, 3: 0}

    def try_admit(self, bound: Optional[int]) -> bool:
        """Count a submission; admit it iff in-flight stays within
        ``bound`` (``None``: no bound).  One atomic step, so an over-bound
        submission is counted *and* rejected in the same snapshot."""
        with self._lock:
            self.submitted += 1
            if bound is not None \
                    and self.submitted - self.answered - self.rejected > bound:
                self.rejected += 1
                return False
            return True

    def record_reject(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_answer(self, response: MatchResponse) -> None:
        with self._lock:
            self.answered += 1
            if response.tier_level is not None:
                self.by_tier[response.tier_level] += 1
            if response.deadline_missed:
                self.deadline_missed += 1
            if response.status == "error":
                self.errors += 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "submitted": self.submitted,
                "answered": self.answered,
                "rejected": self.rejected,
                "errors": self.errors,
                "deadline_missed": self.deadline_missed,
                "by_tier": dict(self.by_tier),
                "conserved": self.submitted == self.answered + self.rejected,
                "in_flight": self.submitted - self.answered - self.rejected,
            }


#: The recovery counters ``stats()["recovery"]`` reports, for either front
#: end (a counter a front end never touches simply reads 0).
RECOVERY_KEYS = (
    "transient_retries", "cache_degraded", "breaker_trips", "requests_shed",
    "tier2_degradations", "tier3_degradations", "records_quarantined",
    "records_replayed", "drift_flags", "drift_forced_degradations",
    "store_corrupt_shards", "store_build_discards", "blocking_index_rebuilds",
    "replica_crashes", "replica_respawns", "requests_redispatched")


class RequestCore:
    """What both serving front ends do identically, written once.

    :class:`InferenceService` (threads) and
    :class:`~repro.serving.cluster.ClusterService` (replica processes)
    differ only in how tier 1 gets scored.  The core owns the lifecycle
    and the open-request registry (under ``serving.submit``), admission,
    answering (:meth:`respond`/:meth:`fail`, exactly once via
    :meth:`finish`), the tier-2/3 :meth:`fallback`, the drain in
    :meth:`close`, and the shared ``stats()`` sections.  A front end
    implements the hooks below.
    """

    _request_type = _Request

    def __init__(self, cascade: DegradationCascade, config,
                 inflight_bound: Optional[int] = None,
                 drain_timeout: Optional[float] = None):
        self.cascade = cascade
        self.config = config
        self.counters = _RequestCounters()
        #: Bound on requests in flight, checked atomically at admission
        #: (``None``: the front end bounds admission itself).
        self._inflight_bound = inflight_bound
        #: ``close()`` force-answers whatever is still open after this
        #: long (``None``: wait as long as the work takes).
        self._drain_timeout = drain_timeout
        self._submit_lock = named_lock("serving.submit")
        self._closed = False
        self._started = False
        self._drained = False
        self._next_id = 0
        self._requests: Dict[int, _Request] = {}
        self._threads: List[threading.Thread] = []

    # -- front-end hooks ------------------------------------------------
    def _launch(self) -> List[threading.Thread]:
        """Bring the scoring side up; return its (unstarted) threads."""
        raise NotImplementedError

    def _screen(self, request_id: int, pairs: Tuple[EntityPair, ...],
                ) -> Tuple[Sequence[EntityPair], int]:
        """Filter a request's pairs at admission: (kept, quarantined)."""
        return pairs, 0

    def _enqueue(self, request: _Request) -> None:
        """Hand an admitted request over — or raise without having done
        so (a counted rejection)."""
        raise NotImplementedError

    def _wake(self) -> None:
        """Nudge the scoring side while ``close()`` drains."""

    def _shutdown(self, threads: List[threading.Thread]) -> None:
        """Stop ``threads`` and anything else ``_launch`` started."""
        raise NotImplementedError

    def _sections(self) -> Tuple[bool, Dict[str, object]]:
        """(can serve right now, the front end's own ``stats()`` sections
        — a ``"service"`` dict among them)."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "RequestCore":
        with self._submit_lock:
            if self._started:
                return self
            self._started = True
        threads = self._launch()
        with self._submit_lock:
            self._threads = threads
        for thread in threads:
            thread.start()
        return self

    def wait_ready(self, timeout: float = 120.0) -> bool:
        """Block until the front end can serve (in-process: at once)."""
        return True

    def close(self) -> None:
        """Stop admitting, drain every admitted request, tear down.

        Draining runs with the scoring side still live, so in-flight work
        finishes through the normal paths; a request that made it past
        admission is always answered, even during shutdown.  The wake
        hook runs on every poll: a submit that raced the close can hand
        its request over *after* the scoring side consumed an earlier
        wake (the cluster's coalesce buffer would then sit out its
        window).  With a ``drain_timeout``, leftovers are force-answered
        with an explicit error once it passes; nothing is ever silently
        dropped.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            threads = self._threads
        deadline = None if self._drain_timeout is None \
            else wall_clock() + self._drain_timeout
        while True:
            with self._submit_lock:
                leftovers = list(self._requests.values())
            if not leftovers:
                break
            if deadline is not None and wall_clock() >= deadline:
                for request in leftovers:
                    self.fail(request, "drain timeout: request abandoned")
                break
            self._wake()
            time.sleep(0.005)
        self._shutdown(threads)
        with self._submit_lock:
            self._threads = []
            # A close that reaches this point answered everything it
            # admitted: stats() reports it as gracefully drained, not
            # unhealthy (see the "healthy" computation there).
            self._drained = True

    def __enter__(self) -> "RequestCore":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission ------------------------------------------------------
    def submit(self, pairs: Sequence[EntityPair],
               deadline_s: Optional[float] = None) -> PendingResponse:
        """Admit a scoring request or reject it explicitly.

        Raises :class:`ServiceClosed` after shutdown and
        :class:`ServiceOverloaded` when the front end's bound is full.
        Those, and any exception raised while admitting (a firewall
        fault, say), count once as rejected (``COUNTERS.requests_shed``)
        and propagate, so conservation stays checkable.
        """
        admitted = self.counters.try_admit(self._inflight_bound)
        request: Optional[_Request] = None
        try:
            with self._submit_lock:
                if self._closed:
                    raise ServiceClosed(f"{type(self).__name__} is closed")
                if admitted:
                    # Registered in the same step as the closed check, so
                    # a draining close() always waits for this request.
                    self._next_id += 1
                    request = self._request_type(
                        id=self._next_id, pairs=tuple(pairs),
                        pending=PendingResponse(self._next_id),
                        admitted_at=wall_clock())
                    self._requests[request.id] = request
            if request is None:
                raise ServiceOverloaded(
                    f"{self._inflight_bound} requests already in flight; "
                    f"retry with backoff")
            pairs, request.quarantined = self._screen(request.id,
                                                      request.pairs)
            request.pairs = tuple(pairs)
            if deadline_s is None:
                deadline_s = self.config.default_deadline
            request.admitted_at = wall_clock()
            if deadline_s is not None:
                request.deadline_at = request.admitted_at + deadline_s
            self._enqueue(request)
        except BaseException:
            with self._submit_lock:
                # Not live: the drain's force-answer already answered it.
                live = request is None \
                    or self._requests.pop(request.id, None) is not None
                if live and admitted:  # an over-bound one counted already
                    self.counters.record_reject()
            if live:
                COUNTERS.increment("requests_shed")
            raise
        return request.pending

    # -- answering ------------------------------------------------------
    def respond(self, request: _Request, tier: ScoringTier,
                scores: np.ndarray, labels: np.ndarray,
                reason: Optional[str]) -> None:
        """Answer ``request`` with ``tier``'s scores, stamped honestly."""
        finished = wall_clock()
        self.finish(request, MatchResponse(
            request_id=request.id, status="ok", tier=tier.name,
            tier_level=tier.level, scores=scores, labels=labels,
            degraded=tier.level > 1, degrade_reason=reason,
            deadline_missed=(request.deadline_at is not None
                             and finished > request.deadline_at),
            latency=finished - request.admitted_at,
            quarantined=request.quarantined,
            redispatched=request.redispatched))

    def fail(self, request: _Request, error: str) -> None:
        """Answer ``request`` with an explicit error, never drop it."""
        self.finish(request, MatchResponse(
            request_id=request.id, status="error", tier=None,
            tier_level=None, scores=None, labels=None, degraded=True,
            degrade_reason="fault", latency=wall_clock() - request.admitted_at,
            error=error, quarantined=request.quarantined,
            redispatched=request.redispatched))

    def finish(self, request: _Request, response: MatchResponse) -> None:
        """Exactly-once answering: only the caller that pops ``request``
        from the registry answers it (completion, failure and the drain's
        force-answer can race during shutdown).  The pop and the count
        are one step, so an empty registry means every answer is counted.
        """
        with self._submit_lock:
            if self._requests.pop(request.id, None) is None:
                return
            self.counters.record_answer(response)
        request.pending._fulfill(response)

    # -- fallback -------------------------------------------------------
    def fallback(self, key: int, pairs: List[EntityPair],
                 expired: bool) -> Tuple[ScoringTier, np.ndarray]:
        """The tier-2 → tier-3 walk for work tier 1 could not serve.

        Work whose deadline has already passed skips the feature tier and
        drops straight to the floor; otherwise tier 2 scores it (the
        ``serving.tier2`` fault site, keyed by ``key``), and a tier-2
        fault degrades to the floor, which always answers.
        """
        tier = self.cascade.by_level(2)
        scores: Optional[np.ndarray] = None
        if not expired:
            try:
                if fault_point("serving.tier2", request=key) == "stall":
                    time.sleep(self.config.stall_seconds)
                scores = tier.score(pairs)
            except Exception:
                scores = None
        if scores is None:
            tier = self.cascade.by_level(3)
            scores = tier.score(pairs)
        COUNTERS.increment("tier2_degradations" if tier.level == 2
                           else "tier3_degradations")
        return tier, scores

    # -- observability --------------------------------------------------
    def healthy(self) -> bool:
        """Health summary: serving (the front end can score) — or
        *gracefully closed*, i.e. shut down after answering everything it
        admitted.  Only crash states read unhealthy."""
        return bool(self.stats()["healthy"])

    def stats(self) -> Dict[str, object]:
        """The health/stats endpoint.

        Each section comes from a *single* pass under its subsystem's
        lock, taken sequentially in lock-hierarchy order and never
        nested — so every section is internally consistent (its
        conservation flags describe exactly the numbers beside them) and
        a stats poll can never join a lock-order cycle with the threads
        it observes.
        """
        with self._submit_lock:
            closed = self._closed
            drained = self._drained
            open_requests = len(self._requests)
        serving, sections = self._sections()
        sections["service"].update(
            queue_capacity=self.config.queue_capacity,
            open_requests=open_requests, closed=closed)
        requests = self.counters.snapshot()
        recovery = COUNTERS.as_dict()
        return {
            # A gracefully-closed service stays healthy: closed is a
            # state, not a failure.  Unhealthy means unable to serve
            # while open, or a shutdown that lost requests.
            "healthy": ((serving and not closed)
                        or (closed and drained
                            and bool(requests["conserved"]))),
            "state": "closed" if closed else "running",
            "requests": requests,
            **sections,
            "recovery": {key: recovery[key] for key in RECOVERY_KEYS},
        }


class InferenceService(RequestCore):
    """A trained matcher behind a bounded queue and a worker pool.

    Use as a context manager (``with InferenceService(...) as svc``) or
    call :meth:`start` / :meth:`close` explicitly.  Admission, answering,
    fallback, drain and the shared stats live in :class:`RequestCore`;
    this front end adds the queue and workers, chunked tier 1 under the
    breaker, the firewall, the embedding store and the local blocker.
    """

    def __init__(self, cascade: DegradationCascade,
                 config: ServingConfig = ServingConfig(),
                 firewall: Optional[DataFirewall] = None,
                 store: Optional[EmbeddingStore] = None,
                 blocker: Optional[Blocker] = None):
        super().__init__(cascade, config)
        #: Optional online blocker: :meth:`index_record` grows its index
        #: incrementally and :meth:`submit_query` turns one raw record into
        #: blocked candidate pairs scored through the normal cascade.  One
        #: lock serializes index mutation against queries — blockers are
        #: deterministic, not thread-safe.
        self.blocker = blocker
        self._blocker_lock = named_lock("serving.blocker")
        self._queries_blocked = 0
        self._query_candidates = 0
        #: Optional data-quality firewall: request pairs are validated at
        #: submit (invalid records quarantined, never scored), accepted
        #: traffic and tier-1 scores feed its drift monitor, and sustained
        #: drift can force the cascade to tier 2 (``drift_force_tier2``).
        self.firewall = firewall
        #: Optional embedding store: tier 1 serves the frozen-encoder half
        #: from precomputed shards (read-only, so replicas can later share
        #: one store) and only runs the pair-level GAT head live.  Store
        #: misses fall through to the live encoder and are counted in
        #: ``stats()["store"]``.  Tier-1 parity is preserved: the wrapper
        #: chunks at the matcher's batch size like the offline call.
        self.store = store
        if store is not None and not isinstance(cascade.tier1.matcher,
                                                StoreBackedScorer):
            cascade.tier1.matcher = StoreBackedScorer(
                cascade.tier1.matcher, store=store)
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failures,
            reset_timeout=config.breaker_reset)
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue(
            maxsize=config.queue_capacity)
        self._model_lock = named_lock("serving.model")
        matcher = cascade.tier1.matcher
        scale = getattr(matcher, "scale", None)
        self.batch_size = config.batch_size or getattr(scale, "batch_size", 32)

    # -- core hooks -----------------------------------------------------
    def _launch(self) -> List[threading.Thread]:
        return [threading.Thread(target=self._worker_loop,
                                 name=f"serve-worker-{i}", daemon=True)
                for i in range(self.config.num_workers)]

    def _shutdown(self, threads: List[threading.Thread]) -> None:
        # The core drained every admitted request first, so the sentinels
        # reach idle workers.
        for _ in threads:
            self._queue.put(None)
        for worker in threads:
            worker.join()

    def _screen(self, request_id: int, pairs: Tuple[EntityPair, ...],
                ) -> Tuple[Sequence[EntityPair], int]:
        if self.firewall is None:
            return pairs, 0
        return self.firewall.admit_pairs(pairs, source=f"request-{request_id}")

    def _enqueue(self, request: _Request) -> None:
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            raise ServiceOverloaded(
                f"request queue full ({self.config.queue_capacity} waiting); "
                f"retry with backoff") from None

    # -- online blocking ------------------------------------------------
    def index_record(self, record: Entity) -> int:
        """Incrementally add ``record`` to the online blocking index.

        Uses the blocker's ``add`` path (bitwise-equivalent to a rebuild
        with the record included), so the serving index never needs an
        offline refit to stay current.
        """
        if self.blocker is None:
            raise RuntimeError("service was built without a blocker")
        with self._blocker_lock:
            return self.blocker.add(record)

    def submit_query(self, record: Entity, k: int = 16,
                     deadline_s: Optional[float] = None,
                     ) -> Tuple[List[int], Optional[PendingResponse]]:
        """Block-then-score one raw record against the indexed table.

        Returns the candidate indices (into ``blocker.records``) and the
        pending response scoring ``record`` against each candidate — in
        candidate order, so ``scores[n]`` belongs to ``candidates[n]``.
        A record with no candidates returns ``([], None)`` without
        consuming queue capacity; admission-control rejections propagate
        from :meth:`submit` unchanged.
        """
        if self.blocker is None:
            raise RuntimeError("service was built without a blocker")
        with self._blocker_lock:
            candidates = self.blocker.candidates(record, k=k)
            matched = [self.blocker.records[j] for j in candidates]
            self._queries_blocked += 1
            self._query_candidates += len(candidates)
        if not candidates:
            return [], None
        pairs = [EntityPair(record, other, 0) for other in matched]
        return candidates, self.submit(pairs, deadline_s=deadline_s)

    # -- worker side ----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            try:
                self._process(request)
            except BaseException as exc:  # the floor tier failed: answer
                # explicitly, never drop silently (a no-op if answered).
                self.fail(request, f"{type(exc).__name__}: {exc}")

    def _process(self, request: _Request) -> None:
        reason: Optional[str] = None
        tier = self.cascade.tier1
        scores: Optional[np.ndarray] = None
        monitor = self.firewall.monitor if self.firewall is not None else None

        # Checkpoint: between admission and tier-1 work.
        if request.expired():
            reason = "deadline"
        elif (monitor is not None and self.config.drift_force_tier2
                and monitor.forcing):
            # Sustained drift: the full model's calibration is not to be
            # trusted on this traffic; answer from the feature tier.
            reason = "drift"
            COUNTERS.increment("drift_forced_degradations")
        elif self.breaker.state == OPEN:
            reason = "breaker"
        else:
            try:
                scores = self._score_tier1(request)
            except _DeadlinePressure:
                reason = "deadline"
            except CircuitOpenError:
                reason = "breaker"
            except Exception:
                reason = "fault"

        if scores is None:
            # Checkpoint: between tier-1 abandonment and tier-2 work.
            tier, scores = self.fallback(request.id, list(request.pairs),
                                         expired=request.expired())
        elif monitor is not None and len(scores):
            # Only genuine tier-1 scores feed the score-shift monitor:
            # fallback-tier scores come from different models and would
            # read as drift of the model rather than of the traffic.
            monitor.observe_scores(scores)
        self.respond(request, tier, scores, tier.predict(scores), reason)

    def _score_tier1(self, request: _Request) -> np.ndarray:
        """Chunked tier-1 scoring with deadline checkpoints between chunks.

        Chunks are the matcher's own batch size, so concatenated chunk
        scores are bitwise-identical to one offline ``matcher.scores``
        call over the whole request (padding boundaries line up exactly).
        Each chunk runs through the circuit breaker; transient faults are
        retried inside it, and only an exhausted retry budget counts as a
        breaker failure.
        """
        pairs = request.pairs
        chunks: List[np.ndarray] = []
        for start in range(0, len(pairs), self.batch_size):
            if request.expired():
                raise _DeadlinePressure
            chunk = list(pairs[start:start + self.batch_size])

            def attempt(chunk=chunk):
                kind = fault_point("serving.score", request=request.id)
                if kind == "stall":
                    time.sleep(self.config.stall_seconds)
                # The store LRU and the autograd engine are process
                # globals; one model lock keeps worker interleavings out
                # of the tier-1 numbers entirely.
                with self._model_lock:
                    return self.cascade.tier1.score(chunk)

            chunks.append(self.breaker.call(
                lambda attempt=attempt: retry_with_backoff(
                    attempt, policy=self.config.retry)))
        if not chunks:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(chunks)

    # -- observability --------------------------------------------------
    def _sections(self) -> Tuple[bool, Dict[str, object]]:
        """Queue depth, blocking tallies, breaker, firewall, store and the
        perf layer's cache counters; serving while the breaker is not
        open."""
        from repro import perf

        # serving.blocker: online blocking tallies.
        blocking: Optional[Dict[str, object]] = None
        if self.blocker is not None:
            with self._blocker_lock:
                blocking = {
                    "blocker": type(self.blocker).name,
                    "indexed_records": len(self.blocker),
                    "queries": self._queries_blocked,
                    "candidates_emitted": self._query_candidates,
                }
        # serving.breaker: state + transition counters in one as_dict().
        breaker = self.breaker.as_dict()
        # guard.*: firewall tallies (conserved computed inside the same
        # snapshot), quarantine histogram, drift-window state.
        firewall: Optional[Dict[str, object]] = None
        if self.firewall is not None:
            summary = summarize(self.firewall)
            firewall = {
                "offered": summary.offered,
                "accepted": summary.accepted,
                "quarantined": summary.quarantined,
                "replayed": summary.replayed,
                "retracted": summary.retracted,
                "conserved": summary.conserved,
                "by_reason": summary.by_reason,
                "drift": (self.firewall.monitor.stats()
                          if self.firewall.monitor is not None else None),
            }
        store_stats: Optional[Dict[str, object]] = None
        tier1 = self.cascade.tier1.matcher
        if isinstance(tier1, StoreBackedScorer):
            store_stats = tier1.stats()
        return breaker["state"] != OPEN, {
            "service": {
                "queue_depth": self._queue.qsize(),
                "workers": self.config.num_workers,
                "batch_size": self.batch_size,
            },
            "breaker": breaker,
            "caches": perf.cache_stats(),
            "firewall": firewall,
            "store": store_stats,
            "blocking": blocking,
        }
