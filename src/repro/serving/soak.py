"""Chaos-soak harness: concurrent clients + fault injection + invariants.

Drives real traffic through a live :class:`InferenceService` or
:class:`ClusterService` (one soak loop for both) from several client
threads while a :class:`FaultPlan` injects transient IO faults,
poisoned cache entries, and slow-call stalls at the registered
``fault_point`` sites, then checks the two serving invariants:

* **conservation** — every submitted request was answered or explicitly
  rejected; client-side tallies and service counters must agree and sum up
  (``answered + rejected == submitted``);
* **tier-1 parity** — every response produced by tier 1 is bitwise-
  identical to the offline single-threaded ``matcher.scores`` answer for
  the same pairs.

The report carries throughput and p50/p99 latency (overall and per tier),
which ``repro serve --soak`` prints.

Client workload composition is seeded (R001): request slices are drawn
from a caller-seeded generator, so two soaks with the same seed submit the
same pair batches in the same per-client order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.schema import EntityPair
from repro.perf.profiler import wall_clock
from repro.reliability.faults import FaultPlan, FaultSpec, inject
from repro.serving.cluster import ClusterConfig, ClusterService
from repro.serving.service import (
    InferenceService,
    MatchResponse,
    RequestCore,
    ServiceClosed,
    ServiceOverloaded,
    ServingConfig,
)
from repro.serving.tiers import DegradationCascade


def default_chaos_plan(period: int = 5, stall_period: int = 7,
                       poison_period: int = 11) -> FaultPlan:
    """The standard soak mix: transients, stalls, and cache poisonings.

    Periodic ``at`` schedules (every ``period``-th tier-1 score call, etc.)
    keep the fault mix deterministic in *total volume* for a given amount
    of traffic regardless of thread interleaving.
    """
    return FaultPlan((
        FaultSpec(site="serving.score", kind="transient",
                  at=tuple(range(0, 1_000_000, period))),
        FaultSpec(site="serving.score", kind="stall",
                  at=tuple(range(3, 1_000_000, stall_period))),
        FaultSpec(site="cache.entry", kind="poison",
                  at=tuple(range(0, 1_000_000, poison_period))),
        FaultSpec(site="serving.tier2", kind="transient",
                  at=(2, 9)),
    ))


@dataclasses.dataclass
class SoakReport:
    """Everything the soak measured and asserted."""

    duration: float
    submitted: int
    answered: int
    rejected: int
    conserved: bool
    tier1_parity: bool
    parity_checked: int              # tier-1 responses compared bitwise
    by_tier: Dict[str, int]
    throughput: float                # answered requests / second
    latency: Dict[str, Dict[str, float]]  # per tier + "all": p50/p99/mean
    faults_triggered: Dict[str, int]
    service_stats: Dict[str, object]
    #: Lock-order sanitizer report (``REPRO_LOCKCHECK=1`` / ``--lockcheck``),
    #: None when the sanitizer was off for this soak.
    lockcheck: Optional[Dict[str, object]] = None

    @property
    def locks_clean(self) -> bool:
        """No lock-order violations and no unguarded shared writes.

        Vacuously true when the sanitizer was off — ``ok`` then asserts
        exactly what it asserted before the sanitizer existed.
        """
        if self.lockcheck is None:
            return True
        return not (self.lockcheck["order_violations"]
                    or self.lockcheck["unguarded_writes"])

    @property
    def ok(self) -> bool:
        return self.conserved and self.tier1_parity and self.locks_clean

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        lines = [
            f"soak: {self.submitted} submitted = {self.answered} answered "
            f"+ {self.rejected} rejected "
            f"[{'conserved' if self.conserved else 'LOST REQUESTS'}]",
            f"tier-1 parity: {'bitwise-identical' if self.tier1_parity else 'MISMATCH'}"
            f" ({self.parity_checked} responses checked)",
            f"throughput: {self.throughput:.1f} req/s over {self.duration:.2f}s",
        ]
        for tier, stats in sorted(self.latency.items()):
            if stats["count"]:
                lines.append(
                    f"  latency[{tier}]  p50={stats['p50'] * 1e3:.1f}ms  "
                    f"p99={stats['p99'] * 1e3:.1f}ms  n={int(stats['count'])}")
        if self.faults_triggered:
            fired = ", ".join(f"{key}={count}" for key, count
                              in sorted(self.faults_triggered.items()))
            lines.append(f"faults fired: {fired}")
        if self.lockcheck is not None:
            acquisitions = sum(self.lockcheck["acquisitions"].values())
            lines.append(
                f"lockcheck: {acquisitions} acquisitions over "
                f"{len(self.lockcheck['acquisitions'])} locks, "
                f"{len(self.lockcheck['edges'])} dynamic edges, "
                f"{len(self.lockcheck['order_violations'])} order violations, "
                f"{len(self.lockcheck['unguarded_writes'])} unguarded writes "
                f"[{'clean' if self.locks_clean else 'VIOLATIONS'}]")
        return "\n".join(lines)


def _latency_stats(latencies: Sequence[float]) -> Dict[str, float]:
    if not latencies:
        return {"count": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0}
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "count": int(arr.size),
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
    }


def _client(service: RequestCore, batches: Sequence[Tuple[EntityPair, ...]],
            deadline_s: Optional[float],
            out: List[Tuple[Tuple[EntityPair, ...], "object"]],
            rejections: List[int]) -> None:
    """One client thread: submit every batch, keep handles and rejections."""
    for batch in batches:
        try:
            pending = service.submit(batch, deadline_s=deadline_s)
        except (ServiceOverloaded, ServiceClosed):
            rejections.append(1)
            continue
        out.append((batch, pending))


def _drive(make_service: Callable[[], RequestCore],
           pairs: Sequence[EntityPair], plan: Optional[FaultPlan],
           n_clients: int, requests_per_client: int, pairs_per_request: int,
           deadline_s: Optional[float], seed: int, lockcheck: Optional[bool],
           kill: Optional["ReplicaKill"] = None,
           ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """The soak loop behind :func:`run_soak` and :func:`run_cluster_soak`.

    Pre-draws every client's batches, builds the service under the
    sanitizer's watches, drives the clients (plus the ``kill`` thread)
    and tallies conservation, bitwise tier-1 parity and latency.  The
    parity reference is the service's own tier-1 scorer, read after the
    run, so it covers whatever wrapping the service put on the tier (the
    store, the cluster's fixed pad width).  The clock starts once the
    service reports ready: throughput is steady-state serving, not
    start-up.  Returns the :class:`SoakReport` fields and the
    cluster-only ones.
    """
    rng = np.random.default_rng(seed)
    pool = list(pairs)
    if not pool:
        raise ValueError("cannot soak with an empty pair pool")

    # Pre-draw every client's batches so submission threads do no RNG work.
    client_batches: List[List[Tuple[EntityPair, ...]]] = []
    for _ in range(n_clients):
        batches = []
        for _ in range(requests_per_client):
            start = int(rng.integers(0, max(len(pool) - pairs_per_request, 0) + 1))
            batches.append(tuple(pool[start:start + pairs_per_request]))
        client_batches.append(batches)

    answered: List[List[Tuple[Tuple[EntityPair, ...], object]]] = \
        [[] for _ in range(n_clients)]
    rejections: List[List[int]] = [[] for _ in range(n_clients)]
    kill_outcome: Dict[str, object] = {}
    checker = None
    # Unwinds in reverse: the fault plan, then the watches, then the
    # sanitizer (if this soak turned it on).
    with contextlib.ExitStack() as stack:
        if lockcheck is None or lockcheck:
            from repro.analysis import lockcheck as lc_mod

            if lockcheck is None:
                lockcheck = lc_mod.env_requested() or lc_mod.active() is not None
            if lockcheck:
                checker = lc_mod.active()
                if checker is None:
                    checker = lc_mod.enable()
                    stack.callback(lc_mod.disable)
                stack.callback(lc_mod.install_watches())
        service = make_service()
        if plan is not None:
            stack.enter_context(inject(plan))
        with service:
            service.wait_ready()
            started = wall_clock()
            threads = [
                threading.Thread(
                    target=_client,
                    args=(service, client_batches[i], deadline_s,
                          answered[i], rejections[i]),
                    name=f"soak-client-{i}")
                for i in range(n_clients)
            ]
            if kill is not None:
                threads.append(threading.Thread(
                    target=_killer, args=(service, kill, kill_outcome),
                    name="soak-killer"))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            responses: List[Tuple[Tuple[EntityPair, ...], MatchResponse]] = []
            for client_out in answered:
                for batch, pending in client_out:
                    responses.append((batch, pending.result(timeout=120.0)))
            duration = wall_clock() - started

    # -- invariants -----------------------------------------------------
    n_rejected = sum(len(r) for r in rejections)
    n_submitted = n_rejected + len(responses)
    snapshot = service.counters.snapshot()
    conserved = (
        snapshot["conserved"]
        and snapshot["submitted"] == n_submitted
        and snapshot["answered"] == len(responses)
        and snapshot["rejected"] == n_rejected
    )

    # Parity is only asserted for responses with nothing quarantined: the
    # offline reference scores the raw batch.
    parity = True
    parity_checked = 0
    redispatched = 0
    redispatch_checked = 0
    offline = service.cascade.tier1.matcher
    for batch, response in responses:
        if response.redispatched:
            redispatched += 1
        if response.tier_level != 1 or response.quarantined:
            continue
        parity_checked += 1
        if response.redispatched:
            redispatch_checked += 1
        reference = offline.scores(list(batch))
        if not np.array_equal(response.scores, reference):
            parity = False

    # -- metrics --------------------------------------------------------
    by_tier: Dict[str, int] = {}
    latencies: Dict[str, List[float]] = {"all": []}
    for _, response in responses:
        tier = response.tier or "error"
        by_tier[tier] = by_tier.get(tier, 0) + 1
        latencies.setdefault(tier, []).append(response.latency)
        latencies["all"].append(response.latency)

    stats = service.stats()
    faults: Dict[str, int] = {}
    if plan is not None:
        faults = {f"{site}:{kind}": count
                  for (site, kind), count in sorted(plan.triggered.items())}
    # Replica processes fire their own plans; their tallies ride home on
    # the graceful stop.
    for info in stats.get("replica_table", {}).values():
        for key, count in info["faults_fired"].items():
            faults[key] = faults.get(key, 0) + count

    report = dict(
        duration=duration,
        submitted=n_submitted,
        answered=len(responses),
        rejected=n_rejected,
        conserved=bool(conserved),
        tier1_parity=parity,
        parity_checked=parity_checked,
        by_tier=by_tier,
        throughput=len(responses) / duration if duration > 0 else 0.0,
        latency={tier: _latency_stats(vals)
                 for tier, vals in sorted(latencies.items())},
        faults_triggered=faults,
        service_stats=stats,
        lockcheck=checker.report() if checker is not None else None,
    )
    cluster = dict(redispatched_responses=redispatched,
                   redispatch_parity_checked=redispatch_checked,
                   kill=kill_outcome or None)
    return report, cluster


def run_soak(cascade: DegradationCascade, pairs: Sequence[EntityPair],
             config: ServingConfig = ServingConfig(),
             plan: Optional[FaultPlan] = None,
             n_clients: int = 4, requests_per_client: int = 8,
             pairs_per_request: int = 8,
             deadline_s: Optional[float] = None,
             seed: int = 0,
             firewall=None,
             store=None,
             lockcheck: Optional[bool] = None) -> SoakReport:
    """Run the chaos soak and return the measured/asserted report.

    ``plan=None`` runs clean traffic (the latency baseline);
    :func:`default_chaos_plan` is the standard fault mix.
    ``firewall`` (a :class:`~repro.guard.firewall.DataFirewall`) routes
    every request's pairs through validation at submit; parity is then
    only asserted for responses with nothing quarantined (the offline
    reference scores the raw batch).
    ``store`` (a :class:`~repro.store.embedstore.EmbeddingStore`) puts the
    embedding store in front of tier 1; the offline parity reference is
    read after the service wraps the tier, so parity covers the
    store-backed path itself.
    ``lockcheck`` turns the runtime lock-order sanitizer on for the soak
    (per-thread order assertion + unguarded-write watches on the shared
    classes); ``None`` defers to ``REPRO_LOCKCHECK`` / an already-active
    checker.  The report lands in :attr:`SoakReport.lockcheck` and any
    violation fails :attr:`SoakReport.ok`.
    """
    report, _ = _drive(
        lambda: InferenceService(cascade, config, firewall=firewall,
                                 store=store),
        pairs, plan, n_clients, requests_per_client, pairs_per_request,
        deadline_s, seed, lockcheck)
    return SoakReport(**report)


# ======================================================================
# Cluster soak: the multi-process variant, including kill -9 chaos
# ======================================================================
def default_cluster_chaos_plan(transient_period: int = 9,
                               stall_period: int = 13) -> FaultPlan:
    """Router-side fault mix for the cluster soak (``serving.dispatch``)."""
    return FaultPlan((
        FaultSpec(site="serving.dispatch", kind="transient",
                  at=tuple(range(2, 1_000_000, transient_period))),
        FaultSpec(site="serving.dispatch", kind="stall",
                  at=tuple(range(5, 1_000_000, stall_period))),
    ))


def default_replica_fault_specs(transient_period: int = 7,
                                stall_period: int = 11,
                                corrupt_at: Tuple[int, ...] = (4,),
                                ) -> Tuple[FaultSpec, ...]:
    """Per-replica fault specs (``serving.replica``), shipped over the
    spawn boundary so each replica process builds its own deterministic
    plan: transients absorbed by the in-replica retry, stalls slowing the
    fused forward, and a corrupt response the router-side validation must
    catch and fail over."""
    return (
        FaultSpec(site="serving.replica", kind="transient",
                  at=tuple(range(1, 1_000_000, transient_period))),
        FaultSpec(site="serving.replica", kind="stall",
                  at=tuple(range(3, 1_000_000, stall_period))),
        FaultSpec(site="serving.replica", kind="corrupt", at=corrupt_at),
    )


@dataclasses.dataclass
class ReplicaKill:
    """Chaos directive: SIGKILL one replica process mid-soak.

    The killer thread waits until ``after_answered`` requests have been
    answered (so the cluster is demonstrably mid-flight), then sends
    ``sig`` to the current incarnation of replica ``replica_id``.
    """

    replica_id: int = 0
    after_answered: int = 4
    sig: int = signal.SIGKILL


@dataclasses.dataclass
class ClusterSoakReport(SoakReport):
    """:class:`SoakReport` plus the cluster-only evidence: replica table,
    redispatch parity coverage, and what the killer thread did."""

    #: Responses stamped ``redispatched`` (work failed over from a lost
    #: replica); the subset that still answered at tier 1 is also counted
    #: in ``redispatch_parity_checked`` — those were compared bitwise.
    redispatched_responses: int = 0
    redispatch_parity_checked: int = 0
    kill: Optional[Dict[str, object]] = None

    def summary(self) -> str:
        lines = [super().summary()]
        stats = self.service_stats
        replica_table = stats.get("replica_table", {})
        incarnations = {rid: info["incarnation"]
                        for rid, info in sorted(replica_table.items())}
        recovery = stats.get("recovery", {})
        lines.append(
            f"replicas: {len(replica_table)} "
            f"(incarnations {incarnations}), "
            f"crashes={recovery.get('replica_crashes', 0)} "
            f"respawns={recovery.get('replica_respawns', 0)} "
            f"redispatched={recovery.get('requests_redispatched', 0)}")
        coalesce = stats.get("coalesce", {})
        lines.append(
            f"coalescing: {coalesce.get('fused_batches', 0)} fused batches "
            f"({coalesce.get('fused_pairs', 0)} pairs) + "
            f"{coalesce.get('solo_batches', 0)} solo, "
            f"pad_width={coalesce.get('pad_width', 0)}")
        if self.redispatched_responses:
            lines.append(
                f"redispatched responses: {self.redispatched_responses} "
                f"({self.redispatch_parity_checked} tier-1, bitwise-checked)")
        if self.kill is not None:
            lines.append(
                f"killed replica {self.kill['replica_id']} "
                f"(pid {self.kill['pid']}) after "
                f"{self.kill['at_answered']} answers")
        return "\n".join(lines)


def _killer(service: ClusterService, kill: ReplicaKill,
            outcome: Dict[str, object]) -> None:
    """Kill thread body: wait for mid-flight traffic, then SIGKILL."""
    deadline = wall_clock() + 60.0
    while wall_clock() < deadline:
        if service.counters.snapshot()["answered"] >= kill.after_answered:
            break
        time.sleep(0.002)
    pid = service.replica_pid(kill.replica_id)
    if pid is not None:
        outcome["replica_id"] = kill.replica_id
        outcome["pid"] = pid
        outcome["at_answered"] = service.counters.snapshot()["answered"]
        os.kill(pid, kill.sig)


def run_cluster_soak(cascade: DegradationCascade,
                     pairs: Sequence[EntityPair],
                     config: Optional[ClusterConfig] = None,
                     plan: Optional[FaultPlan] = None,
                     n_clients: int = 4, requests_per_client: int = 8,
                     pairs_per_request: int = 8,
                     deadline_s: Optional[float] = None,
                     seed: int = 0,
                     kill: Optional[ReplicaKill] = None,
                     blocker_factory=None,
                     store_path: Optional[str] = None,
                     lockcheck: Optional[bool] = None) -> ClusterSoakReport:
    """The chaos soak against a :class:`ClusterService`.

    Same invariants as :func:`run_soak` — conservation and bitwise tier-1
    parity (the offline reference is the cluster's own wrapped tier-1
    scorer, so parity covers the fixed-pad coalescing path itself) — plus
    the cluster-only ones the report carries: redispatched responses are
    parity-checked like any other, and ``kill`` SIGKILLs a replica
    mid-soak to prove conservation and parity hold *across a crash*.
    The clock starts after every replica reports ready.
    """
    config = config or ClusterConfig()
    report, cluster = _drive(
        lambda: ClusterService(cascade, config,
                               blocker_factory=blocker_factory,
                               store_path=store_path),
        pairs, plan, n_clients, requests_per_client, pairs_per_request,
        deadline_s, seed, lockcheck, kill=kill)
    return ClusterSoakReport(**report, **cluster)
