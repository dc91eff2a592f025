"""Cluster-serving suite: router/replica processes, coalescing, crashes.

Covers the contracts documented in ``docs/SERVING.md``:

* **conservation across a crash** — every submitted request is answered
  or explicitly rejected even when a replica process is SIGKILLed (or an
  injected ``kill`` at the "serving.replica" site makes it exit)
  mid-soak; nothing is lost, nothing is double-answered;
* **coalesced tier-1 parity** — cross-request fused batches score
  bitwise-identical to the offline single-request reference, because the
  store-backed scorer pads every forward to one fixed width;
* **failover + respawn** — in-flight batches of a dead replica are
  re-dispatched to a survivor (responses stamped ``redispatched``), the
  replica is respawned with its consistent-hash shard rebuilt from the
  router's retained records, and the counters
  (``replica_crashes``/``replica_respawns``/``requests_redispatched``)
  record each step;
* **sharded online blocking** — ``index_record`` routes records by the
  ring, ``submit_query`` merges live shards deterministically, and a
  rebuilt shard answers queries again after the crash;
* **the shared request core** — ``TestFrontEndContract`` runs the
  contracts both front ends get from ``RequestCore`` (closed rejection,
  the deadline floor, drain after a bookkeeping crash) against
  ``InferenceService`` and ``ClusterService`` alike.

Everything cross-process in this file must be picklable and importable
from a spawned child, so the stand-ins live at module level.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.config import Scale, set_scale
from repro.data.schema import Entity, EntityPair
from repro.matchers.base import Matcher
from repro.reliability import COUNTERS, FaultSpec, RetryPolicy
from repro.serving import (
    ClusterConfig,
    ClusterService,
    ConsistentHashRing,
    InferenceService,
    MAX_PAD_WIDTH,
    ReplicaKill,
    ServiceClosed,
    ServingConfig,
    build_cascade,
    default_cluster_chaos_plan,
    default_replica_fault_specs,
    pad_width_for,
    run_cluster_soak,
)
from repro.serving.cluster import pair_width
from repro.serving.service import _RequestCounters
from repro.serving.tiers import DegradationCascade, ScoringTier
from repro.store.scorer import StoreBackedScorer


# ======================================================================
# Picklable deterministic stand-ins (spawned replicas import this module)
# ======================================================================
class HashMatcher(Matcher):
    """Deterministic per-pair score from the uid pair alone.

    Batch-composition invariant *by construction* (each score depends
    only on its own pair), which is exactly the property coalescing
    needs — and every pair gets a distinct value, so a misrouted or
    misaligned score shows up as a parity break, not a coincidence.
    """

    name = "hash"

    def __init__(self, salt: str = ""):
        self.salt = salt
        self.threshold = 0.5
        self.scale = None

    def fit(self, dataset):
        return self

    def scores(self, pairs):
        out = []
        for pair in pairs:
            digest = hashlib.blake2b(
                f"{self.salt}|{pair.left.uid}|{pair.right.uid}".encode(),
                digest_size=4).digest()
            out.append(int.from_bytes(digest, "big") / 2 ** 32)
        return np.asarray(out, dtype=np.float64)

    def predict(self, pairs):
        return (self.scores(pairs) >= self.threshold).astype(np.int64)


class AllPairsBlocker:
    """Tiny shard blocker: every indexed record is a candidate.

    Duck-types the :class:`~repro.blocking.base.Blocker` surface the
    cluster uses (``fit``/``add``/``candidates``/``records``/``len``);
    exhaustive so shard-merge and rebuild assertions are exact.
    """

    name = "all-pairs"

    def __init__(self):
        self._records = []

    def fit(self, table):
        self._records = list(table)
        return self

    def add(self, record):
        self._records.append(record)
        return len(self._records) - 1

    def candidates(self, record, k=16):
        return [i for i, other in enumerate(self._records)
                if other.uid != record.uid][:k]

    @property
    def records(self):
        return self._records

    def __len__(self):
        return len(self._records)


def _ent(i: int) -> Entity:
    return Entity.from_dict(f"e{i}", {"name": f"item {i}", "v": str(i)})


def _pair(i: int) -> EntityPair:
    return EntityPair(left=_ent(i), right=_ent(10_000 + i), label=0)


PAIRS = tuple(_pair(i) for i in range(64))


def _stub_cascade() -> DegradationCascade:
    """Three hash tiers with distinct salts: the producing tier is
    visible in the score values themselves."""
    return DegradationCascade(tiers=[
        ScoringTier(name="full", level=1, matcher=HashMatcher("t1")),
        ScoringTier(name="features", level=2, matcher=HashMatcher("t2")),
        ScoringTier(name="tfidf", level=3, matcher=HashMatcher("t3")),
    ])


def _fast_config(**overrides) -> ClusterConfig:
    defaults = dict(replicas=2, queue_capacity=256, coalesce_window=0.005,
                    coalesce_pairs=16, heartbeat_timeout=2.0,
                    spawn_grace=60.0, stall_seconds=0.02)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# ======================================================================
# The front-end contract: what RequestCore gives both services
# ======================================================================
#: Fast retries so the in-process service doesn't sleep through backoff.
FAST_RETRY = RetryPolicy(retries=1, base_delay=0.0, max_delay=0.0)

FRONT_ENDS = {
    "inference": lambda config: InferenceService(
        _stub_cascade(), ServingConfig(**config, retry=FAST_RETRY)),
    "cluster": lambda config: ClusterService(
        _stub_cascade(), _fast_config(replicas=1)),
}


@pytest.fixture(params=sorted(FRONT_ENDS))
def front_end(request):
    """Build one service per front end; ``config`` only reaches the
    in-process one (the cluster runs one replica)."""
    return FRONT_ENDS[request.param]


class TestFrontEndContract:
    def test_closed_service_rejects_explicitly(self, front_end):
        service = front_end(dict(num_workers=1))
        service.start()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(PAIRS[:1])
        assert service.counters.snapshot()["conserved"]

    def test_expired_deadline_falls_to_floor_with_reason(self, front_end):
        with front_end(dict(num_workers=1)) as service:
            response = service.submit(PAIRS[:3], deadline_s=0.0).result(5.0)
            floor = service.cascade.by_level(3).score(list(PAIRS[:3]))
        assert response.tier == "tfidf" and response.tier_level == 3
        assert response.degraded and response.degrade_reason == "deadline"
        assert response.deadline_missed
        assert np.allclose(response.scores, floor)  # the floor tier answered

    def test_worker_crash_after_scoring_does_not_deadlock_close(
            self, front_end, monkeypatch):
        """Regression: post-answer bookkeeping that raises must not leave
        the request open, or ``close()`` waits on it forever (the
        in-process service) or until the drain timeout (the cluster)."""
        service = front_end(dict(num_workers=1)).start()
        assert service.wait_ready(60.0)

        def boom(self, response):
            raise RuntimeError("bookkeeping crash after scoring")

        monkeypatch.setattr(_RequestCounters, "record_answer", boom)
        service.submit(PAIRS[:1])
        closer = threading.Thread(target=service.close, name="closer")
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive(), "close() deadlocked draining the request"


# ======================================================================
# Consistent-hash ring
# ======================================================================
class TestConsistentHashRing:
    def test_deterministic_and_complete(self):
        ring_a = ConsistentHashRing(range(4))
        ring_b = ConsistentHashRing(range(4))
        owners = {ring_a.owner(f"uid-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}
        for i in range(200):
            assert ring_a.owner(f"uid-{i}") == ring_b.owner(f"uid-{i}")

    def test_ownership_mostly_stable_under_growth(self):
        ring_2 = ConsistentHashRing(range(2))
        ring_3 = ConsistentHashRing(range(3))
        keys = [f"uid-{i}" for i in range(300)]
        moved = sum(1 for key in keys
                    if ring_2.owner(key) != ring_3.owner(key)
                    and ring_3.owner(key) != 2)
        # Keys not claimed by the new replica overwhelmingly stay put.
        assert moved < len(keys) * 0.2


# ======================================================================
# Cluster mechanics on the stub cascade (fast: no training, tiny procs)
# ======================================================================
class TestClusterMechanics:
    def test_clean_soak_conserved_with_fused_parity(self):
        COUNTERS.reset()
        report = run_cluster_soak(
            _stub_cascade(), PAIRS, config=_fast_config(),
            n_clients=3, requests_per_client=4, pairs_per_request=4, seed=0)
        assert report.ok, report.summary()
        assert report.answered + report.rejected == report.submitted
        assert report.by_tier.get("full", 0) == report.answered
        stats = report.service_stats
        assert stats["coalesce"]["fused_batches"] >= 1, report.summary()
        assert stats["healthy"], "graceful close must stay healthy"
        assert stats["state"] == "closed"

    def test_chaos_soak_fires_both_cluster_sites(self):
        COUNTERS.reset()
        report = run_cluster_soak(
            _stub_cascade(), PAIRS,
            config=_fast_config(
                coalesce_pairs=4,
                replica_faults=default_replica_fault_specs(
                    corrupt_at=(2, 3, 5, 7))),
            plan=default_cluster_chaos_plan(),
            n_clients=3, requests_per_client=6, pairs_per_request=4, seed=1)
        assert report.conserved, report.summary()
        assert report.tier1_parity, report.summary()
        fired = report.faults_triggered
        assert any(key.startswith("serving.dispatch") for key in fired), fired
        assert any(key.startswith("serving.replica") for key in fired), fired
        # the corrupt response was caught by router-side validation and
        # the batch failed over, not answered with mangled scores
        assert report.service_stats["sharding"]["replica_errors"] >= 1

    def test_injected_kill_fault_respawns_and_redispatches(self):
        COUNTERS.reset()
        # Replica 0's second fused forward exits the process mid-work
        # (the in-process stand-in for SIGKILL); its in-flight batch has
        # exactly one live owner afterwards: whoever it failed over to.
        kill_spec = FaultSpec(site="serving.replica", kind="kill", at=(1,),
                              match=(("replica", 0),))
        report = run_cluster_soak(
            _stub_cascade(), PAIRS,
            config=_fast_config(replica_faults=(kill_spec,),
                                coalesce_pairs=4),
            n_clients=3, requests_per_client=6, pairs_per_request=4, seed=2)
        assert report.conserved, report.summary()
        assert report.tier1_parity, report.summary()
        recovery = report.service_stats["recovery"]
        assert recovery["replica_crashes"] >= 1
        assert recovery["replica_respawns"] >= 1
        assert recovery["requests_redispatched"] >= 1
        assert report.redispatched_responses >= 1

    def test_overload_rejects_explicitly_and_conserves(self):
        COUNTERS.reset()
        report = run_cluster_soak(
            _stub_cascade(), PAIRS,
            config=_fast_config(
                queue_capacity=2, coalesce_window=0.05,
                replica_faults=(FaultSpec(
                    site="serving.replica", kind="stall",
                    at=tuple(range(0, 100_000))),)),
            n_clients=6, requests_per_client=6, pairs_per_request=4, seed=3)
        assert report.conserved, report.summary()
        assert report.rejected >= 1, report.summary()
        assert report.service_stats["recovery"]["requests_shed"] >= 1

    def test_soak_under_lockcheck_is_clean(self):
        COUNTERS.reset()
        report = run_cluster_soak(
            _stub_cascade(), PAIRS,
            config=_fast_config(
                replica_faults=default_replica_fault_specs()),
            plan=default_cluster_chaos_plan(),
            n_clients=3, requests_per_client=4, pairs_per_request=4,
            seed=4, lockcheck=True)
        assert report.lockcheck is not None
        assert report.locks_clean, report.summary()
        assert report.ok, report.summary()

    def test_empty_request_answers_immediately(self):
        COUNTERS.reset()
        with ClusterService(_stub_cascade(), _fast_config(replicas=1)) as svc:
            response = svc.submit([]).result(timeout=30.0)
            assert response.status == "ok"
            assert response.scores.shape == (0,)
            assert svc.counters.snapshot()["conserved"]


# ======================================================================
# kill -9 chaos: the crash the tentpole exists for
# ======================================================================
class TestReplicaSigkill:
    def test_sigkill_mid_soak_conserves_with_parity_and_respawn(self):
        COUNTERS.reset()
        # Stalls keep fused forwards slow enough that the SIGKILL lands
        # while work is genuinely in flight on the victim.
        report = run_cluster_soak(
            _stub_cascade(), PAIRS,
            config=_fast_config(
                coalesce_pairs=4, stall_seconds=0.03,
                replica_faults=(FaultSpec(
                    site="serving.replica", kind="stall",
                    at=tuple(range(0, 100_000, 2))),)),
            n_clients=4, requests_per_client=6, pairs_per_request=4,
            seed=5, kill=ReplicaKill(replica_id=0, after_answered=3))
        # zero lost requests, bitwise parity on everything tier-1 —
        # including the re-dispatched responses — across the crash
        assert report.conserved, report.summary()
        assert report.answered + report.rejected == report.submitted
        assert report.tier1_parity, report.summary()
        assert report.kill is not None and report.kill["pid"] > 0
        recovery = report.service_stats["recovery"]
        assert recovery["replica_crashes"] >= 1
        assert recovery["replica_respawns"] >= 1
        table = report.service_stats["replica_table"]
        assert max(info["incarnation"] for info in table.values()) >= 1

    def test_respawned_replica_serves_and_rebuilds_its_shard(self):
        COUNTERS.reset()
        config = _fast_config(coalesce_window=0.002, heartbeat_timeout=1.0)
        with ClusterService(_stub_cascade(), config,
                            blocker_factory=AllPairsBlocker) as svc:
            assert svc.wait_ready(60.0)
            records = [_ent(i) for i in range(12)]
            for record in records:
                svc.index_record(record)
            probe = _ent(999)
            candidates, pending = svc.submit_query(probe, k=12)
            assert pending is not None
            assert pending.result(timeout=30.0).status == "ok"
            assert candidates == list(range(12))

            victim = 0
            pid = svc.replica_pid(victim)
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                table = svc.stats()["replica_table"]
                fresh = table[str(victim)]
                if fresh["incarnation"] >= 1 and fresh["ready"]:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("replica was not respawned in time")
            assert fresh["pid"] != pid
            # the rebuilt shard answers again: the merged candidate set is
            # complete, so the killed shard's records are back in the index
            candidates, pending = svc.submit_query(probe, k=12)
            assert candidates == list(range(12))
            assert pending.result(timeout=30.0).status == "ok"
            ring = ConsistentHashRing(range(config.replicas))
            expected = sum(1 for r in records if ring.owner(r.uid) == victim)
            assert svc.stats()["replica_table"][str(victim)]["shard_size"] \
                == expected
        assert COUNTERS.as_dict()["replica_respawns"] >= 1


# ======================================================================
# Satellite: graceful close of the single-process service stays healthy
# ======================================================================
class TestGracefulCloseHealth:
    def test_closed_conserved_service_reports_healthy(self):
        cascade = _stub_cascade()
        service = InferenceService(cascade, ServingConfig(num_workers=2))
        with service:
            response = service.submit(list(PAIRS[:4])).result(timeout=30.0)
            assert response.status == "ok"
            running = service.stats()
            assert running["healthy"] and running["state"] == "running"
        stats = service.stats()
        assert stats["requests"]["conserved"]
        assert stats["state"] == "closed"
        assert stats["healthy"], \
            "a clean, conserved soak must not read unhealthy after close()"
        assert service.healthy()


# ======================================================================
# Regression: close() flushes a non-empty coalesce buffer, never drops it
# ======================================================================
class TestCloseFlushesCoalesceBuffer:
    def test_close_flushes_buffered_pairs_not_drops_them(self):
        """Pairs sitting in the coalesce buffer when close() is called are
        scored through the normal flush path, well before drain_timeout."""
        COUNTERS.reset()
        config = _fast_config(replicas=1, coalesce_window=30.0,
                              coalesce_pairs=64, drain_timeout=20.0)
        with ClusterService(_stub_cascade(), config) as svc:
            assert svc.wait_ready(60.0)
            pending = svc.submit(list(PAIRS[:3]))
            time.sleep(0.05)          # let the pairs land in the buffer
            started = time.monotonic()
            svc.close()
            elapsed = time.monotonic() - started
        response = pending.result(timeout=5.0)
        assert response.status == "ok", response.error
        assert response.tier == "full"
        assert elapsed < config.drain_timeout / 2, \
            "close() sat out the coalesce window instead of flushing"
        assert svc.counters.snapshot()["conserved"]

    def test_submit_racing_close_is_flushed_not_timed_out(self):
        """The narrow race: a submit passes the closed-check, then its
        pairs reach the coalesce buffer only *after* the dispatcher has
        consumed close()'s flush wake.  The drain loop must re-signal so
        the buffered pairs are scored, not force-answered as errors at
        the drain timeout."""
        import repro.serving.cluster as cluster_mod

        COUNTERS.reset()
        config = _fast_config(replicas=1, coalesce_window=30.0,
                              coalesce_pairs=64, drain_timeout=20.0)
        release = threading.Event()
        real_clock = cluster_mod.wall_clock

        def gated_clock():
            # Stall only the racing submit thread at its first wall_clock
            # call — the point between its closed-check and its buffer
            # append — until close() is underway.
            if threading.current_thread().name == "racing-submit":
                release.wait(15.0)
            return real_clock()

        svc = ClusterService(_stub_cascade(), config).start()
        try:
            assert svc.wait_ready(60.0)
            result = {}

            def racing_submit():
                result["pending"] = svc.submit(list(PAIRS[:3]))

            cluster_mod.wall_clock = gated_clock
            submitter = threading.Thread(target=racing_submit,
                                         name="racing-submit")
            submitter.start()
            time.sleep(0.05)          # submit is now stalled post-admission
            closer = threading.Thread(target=svc.close)
            started = time.monotonic()
            closer.start()
            # Give the dispatcher time to consume close()'s initial wake,
            # then let the submit land its pairs in the buffer.
            time.sleep(0.2)
            release.set()
            submitter.join(timeout=30.0)
            closer.join(timeout=30.0)
            elapsed = time.monotonic() - started
            assert not closer.is_alive(), "close() never finished"
        finally:
            cluster_mod.wall_clock = real_clock
            release.set()
            svc.close()
        response = result["pending"].result(timeout=5.0)
        assert response.status == "ok", response.error
        assert elapsed < config.drain_timeout / 2, \
            "the raced pairs were only answered at the drain timeout"
        assert svc.counters.snapshot()["conserved"]


# ======================================================================
# Real-model coalescing parity (one trained HierGAT, module-scoped)
# ======================================================================
@pytest.fixture(scope="module")
def beer_cluster():
    from repro.core import HierGAT
    from repro.data import load_dataset

    set_scale(Scale.ci())
    dataset = load_dataset("Beer")
    matcher = HierGAT().fit(dataset)
    return matcher, dataset


class TestRealModelCoalescingParity:
    def test_no_store_router_scorer_encodes_each_record_once(self,
                                                             beer_cluster):
        matcher, dataset = beer_cluster
        svc = ClusterService(build_cascade(matcher, dataset),
                             ClusterConfig(replicas=1))
        scorer = svc.cascade.tier1.matcher
        assert isinstance(scorer, StoreBackedScorer)
        assert scorer.store is None
        pairs = list(dataset.split.test)[:6]
        first = scorer.scores(pairs)
        encoded = scorer.live_fallbacks
        assert encoded > 0
        assert np.array_equal(scorer.scores(pairs), first)
        assert scorer.live_fallbacks == encoded
        # Replicas get a freshly built clone: no instance token (and so no
        # live-encode cache key) crosses the spawn boundary.
        assert "_perf_token" in vars(scorer)
        shipped = svc._build_payload().scorer
        assert shipped is not scorer
        assert shipped.store is None
        assert "_perf_token" not in vars(shipped)
        assert "_perf_token" not in vars(pickle.loads(pickle.dumps(shipped)))

    def test_pad_width_selection(self, beer_cluster):
        matcher, dataset = beer_cluster
        pool = list(dataset.split.test)
        width = pad_width_for(matcher, pool)
        assert 0 < width <= MAX_PAD_WIDTH
        assert width == max(pair_width(matcher, p) for p in pool)

    def test_fused_batches_score_bitwise_equal_offline(self, beer_cluster):
        matcher, dataset = beer_cluster
        cascade = build_cascade(matcher, dataset)
        pool = list(dataset.split.test)
        pad = pad_width_for(matcher, pool)
        # A wide-open coalescing window so the staggered small requests
        # genuinely fuse into cross-request batches.
        report = run_cluster_soak(
            cascade, pool,
            config=ClusterConfig(replicas=2, queue_capacity=64,
                                 coalesce_window=0.05, coalesce_pairs=8,
                                 pad_width=pad),
            n_clients=3, requests_per_client=3, pairs_per_request=3, seed=0)
        assert report.ok, report.summary()
        assert report.by_tier.get("full", 0) == report.answered
        assert report.parity_checked == report.answered
        assert report.service_stats["coalesce"]["fused_batches"] >= 1, \
            report.summary()

    def test_wide_pairs_dispatch_solo_with_parity(self, beer_cluster):
        matcher, dataset = beer_cluster
        cascade = build_cascade(matcher, dataset)
        pool = list(dataset.split.test)
        # pad_width=1 is narrower than any real record, so every request
        # is non-fusible and must take the solo whole-request path — and
        # still match the offline reference bitwise.
        report = run_cluster_soak(
            cascade, pool,
            config=ClusterConfig(replicas=1, queue_capacity=64,
                                 coalesce_window=0.01, coalesce_pairs=8,
                                 pad_width=1),
            n_clients=2, requests_per_client=3, pairs_per_request=4, seed=1)
        assert report.ok, report.summary()
        stats = report.service_stats["coalesce"]
        assert stats["fused_batches"] == 0
        assert stats["solo_batches"] >= 1


@pytest.fixture(scope="module")
def beer_store(beer_cluster, tmp_path_factory):
    """One float32 embedding store over the Beer test records, shared
    read-only by every replica."""
    from repro.store import build_store

    matcher, dataset = beer_cluster
    path = str(tmp_path_factory.mktemp("beer-store"))
    build_store(path, matcher,
                [e for pair in dataset.split.test
                 for e in (pair.left, pair.right)], dtype="float32")
    return path


@pytest.mark.slow
@pytest.mark.parametrize("replicas", [1, 2, 4])
def test_replica_curve_conserves_with_store_parity(beer_cluster, beer_store,
                                                   replicas):
    """Many small requests (8 clients x 32 requests x 4 pairs) through 1, 2
    and 4 replicas serving tier 1 from one shared float32 store: every
    request answered or rejected, every answer bitwise the offline one."""
    matcher, dataset = beer_cluster
    pool = list(dataset.split.test)
    report = run_cluster_soak(
        build_cascade(matcher, dataset), pool,
        config=ClusterConfig(replicas=replicas, queue_capacity=512,
                             coalesce_window=0.01, coalesce_pairs=32,
                             pad_width=pad_width_for(matcher, pool)),
        n_clients=8, requests_per_client=32, pairs_per_request=4, seed=0,
        store_path=beer_store)
    assert report.ok, report.summary()
    assert report.submitted == 8 * 32
    assert report.parity_checked == report.answered > 0, report.summary()
    assert report.service_stats["coalesce"]["fused_batches"] >= 1
