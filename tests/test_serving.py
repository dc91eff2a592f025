"""Serving-layer suite: admission control, breaker, deadlines, cascade.

Covers the contracts documented in ``docs/SERVING.md``:

* **conservation** — every request is answered or explicitly rejected
  (``answered + rejected == submitted``), even with the queue at capacity
  and faults firing at the "serving.score" / "serving.tier2" sites;
* **breaker** — closed -> open after N consecutive failures, half-open
  admits exactly one probe, probe success closes / failure reopens, and
  every transition is counted (``COUNTERS.breaker_trips`` included);
* **deadlines** — expired requests degrade at checkpoint boundaries and
  the producing tier + reason are stamped on the response;
* **tier-1 parity** — served tier-1 scores are bitwise-identical to the
  offline single-threaded ``matcher.scores`` path;
* the thread-safe counters, jittered retry policy, and the
  ``Matcher.scores`` contract fixed alongside the serving layer.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.config import Scale, set_scale
from repro.data.schema import Entity, EntityPair
from repro.matchers.base import Matcher
from repro.reliability import (
    COUNTERS,
    FaultPlan,
    FaultSpec,
    RecoveryCounters,
    RetryPolicy,
    inject,
)
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    DegradationCascade,
    InferenceService,
    ScoringTier,
    ServiceOverloaded,
    ServingConfig,
    TfidfMatcher,
    build_cascade,
    default_chaos_plan,
    run_soak,
)


# ======================================================================
# Cheap deterministic stand-ins (no training) for the service mechanics
# ======================================================================
class _ConstMatcher(Matcher):
    """Scores every pair ``value``; optional per-call delay."""

    name = "const"

    def __init__(self, value: float, delay: float = 0.0):
        self.value = value
        self.delay = delay
        self.threshold = 0.5
        self.scale = None  # service falls back to its default batch size

    def fit(self, dataset):
        return self

    def scores(self, pairs):
        if self.delay:
            time.sleep(self.delay)
        return np.full(len(pairs), self.value, dtype=np.float64)

    def predict(self, pairs):
        return (self.scores(pairs) >= self.threshold).astype(np.int64)


def _pair(i: int) -> EntityPair:
    left = Entity(uid=f"l{i}", attributes=(("name", f"item {i}"),))
    right = Entity(uid=f"r{i}", attributes=(("name", f"item {i}"),))
    return EntityPair(left=left, right=right, label=1)


def _stub_cascade(tier1_delay: float = 0.0) -> DegradationCascade:
    """Three const tiers with distinct values so the tier is visible in
    the scores themselves (0.9 = full, 0.7 = features, 0.3 = tfidf)."""
    return DegradationCascade(tiers=[
        ScoringTier(name="full", level=1,
                    matcher=_ConstMatcher(0.9, delay=tier1_delay)),
        ScoringTier(name="features", level=2, matcher=_ConstMatcher(0.7)),
        ScoringTier(name="tfidf", level=3, matcher=_ConstMatcher(0.3)),
    ])


PAIRS = tuple(_pair(i) for i in range(6))

#: Fast retries so breaker tests don't sleep through real backoff.
FAST_RETRY = RetryPolicy(retries=1, base_delay=0.0, max_delay=0.0)


# ======================================================================
# Satellite: thread-safe counters
# ======================================================================
class TestRecoveryCounters:
    def test_new_serving_counters_exist(self):
        counters = RecoveryCounters()
        snapshot = counters.as_dict()
        for name in ("breaker_trips", "requests_shed",
                     "tier2_degradations", "tier3_degradations"):
            assert snapshot[name] == 0

    def test_concurrent_increments_are_exact(self):
        counters = RecoveryCounters()
        threads = [
            threading.Thread(
                target=lambda: [counters.increment("transient_retries")
                                for _ in range(500)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters.as_dict()["transient_retries"] == 8 * 500

    def test_reset_clears_every_field(self):
        counters = RecoveryCounters()
        counters.increment("breaker_trips")
        counters.increment("requests_shed", 3)
        counters.reset()
        assert all(v == 0 for v in counters.as_dict().values())


# ======================================================================
# Satellite: deterministic retry jitter
# ======================================================================
class TestRetryJitter:
    def test_default_is_jitter_free(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=10.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)

    def test_jitter_is_seeded_and_bounded(self):
        make = lambda: RetryPolicy(  # noqa: E731
            base_delay=0.1, backoff=2.0, max_delay=10.0, jitter=0.5,
            jitter_rng=np.random.default_rng(42))
        a, b = make(), make()
        delays_a = [a.delay(i) for i in range(5)]
        delays_b = [b.delay(i) for i in range(5)]
        assert delays_a == delays_b  # same seed -> same schedule
        for attempt, delay in enumerate(delays_a):
            base = min(0.1 * 2.0 ** attempt, 10.0)
            assert base * 0.5 <= delay <= base

    def test_jitter_without_rng_is_ignored(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        assert policy.delay(0) == pytest.approx(0.1)


# ======================================================================
# Satellite: the Matcher.scores contract
# ======================================================================
class TestScoresContract:
    def test_base_scores_raises_not_degenerate_labels(self):
        with pytest.raises(NotImplementedError, match="scores"):
            Matcher().scores([_pair(0)])

    def test_predict_proba_delegates_to_scores(self):
        matcher = _ConstMatcher(0.42)
        assert np.array_equal(matcher.predict_proba(PAIRS[:3]),
                              matcher.scores(PAIRS[:3]))


# ======================================================================
# Circuit breaker state machine (fake clock, no sleeping)
# ======================================================================
class TestCircuitBreaker:
    def _make(self, threshold=3, reset=10.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(failure_threshold=threshold,
                                 reset_timeout=reset,
                                 clock=lambda: clock["now"])
        return breaker, clock

    def test_trips_open_after_consecutive_failures(self):
        breaker, _ = self._make(threshold=3)
        before = COUNTERS.as_dict()["breaker_trips"]
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_success()  # success resets the streak
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.stats.opened == 1
        assert COUNTERS.as_dict()["breaker_trips"] == before + 1

    def test_open_short_circuits_until_timeout(self):
        breaker, clock = self._make(threshold=1, reset=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.stats.short_circuits == 1
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: 1)
        clock["now"] = 10.0
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock["now"] = 2.0
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else short-circuits
        assert breaker.stats.half_opens == 1

    def test_probe_success_closes(self):
        breaker, clock = self._make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock["now"] = 2.0
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == CLOSED
        assert breaker.stats.closed_from_half_open == 1

    def test_probe_failure_reopens(self):
        breaker, clock = self._make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock["now"] = 2.0
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert breaker.state == OPEN
        assert breaker.stats.reopened_from_half_open == 1
        clock["now"] = 4.0           # timeout restarts from the reopen
        assert breaker.state == HALF_OPEN


# ======================================================================
# Tentpole: the inference service
# ======================================================================
class TestAdmissionControl:
    # Contracts both front ends share (closed rejection, deadline floor,
    # drain after a bookkeeping crash) are in test_serving_cluster.py's
    # TestFrontEndContract, run against each service.
    def test_full_queue_rejects_and_conserves(self):
        shed_before = COUNTERS.as_dict()["requests_shed"]
        cascade = _stub_cascade(tier1_delay=0.02)
        config = ServingConfig(queue_capacity=2, num_workers=1,
                               retry=FAST_RETRY)
        accepted, rejected = [], 0
        with InferenceService(cascade, config) as service:
            for _ in range(25):
                try:
                    accepted.append(service.submit(PAIRS[:2]))
                except ServiceOverloaded:
                    rejected += 1
            responses = [p.result(timeout=30.0) for p in accepted]
        assert rejected > 0, "queue never filled; admission control untested"
        snapshot = service.counters.snapshot()
        assert snapshot["conserved"]
        assert snapshot["submitted"] == 25
        assert snapshot["answered"] == len(responses) == 25 - rejected
        assert snapshot["rejected"] == rejected
        assert COUNTERS.as_dict()["requests_shed"] == shed_before + rejected

    def test_firewall_fault_at_admission_is_a_counted_rejection(self):
        """A firewall exception that exhausts its retry budget at submit
        is counted rejected and re-raised: never a request counted
        submitted but neither answered nor rejected."""
        from repro.guard import DataFirewall
        from repro.reliability import TransientIOFault

        shed_before = COUNTERS.as_dict()["requests_shed"]
        firewall = DataFirewall(retry_policy=RetryPolicy(
            retries=1, base_delay=0, max_delay=0))
        plan = FaultPlan((FaultSpec("guard.validate", "transient",
                                    at=(0, 1)),))
        service = InferenceService(_stub_cascade(),
                                   ServingConfig(num_workers=1),
                                   firewall=firewall).start()
        with inject(plan):
            with pytest.raises(TransientIOFault):
                service.submit(PAIRS[:1])
        service.close()
        snapshot = service.counters.snapshot()
        assert snapshot["conserved"] and snapshot["in_flight"] == 0
        assert snapshot["submitted"] == snapshot["rejected"] == 1
        assert COUNTERS.as_dict()["requests_shed"] == shed_before + 1
        assert service.stats()["healthy"]

    def test_close_drains_accepted_requests(self):
        cascade = _stub_cascade(tier1_delay=0.01)
        with InferenceService(cascade,
                              ServingConfig(queue_capacity=16, num_workers=2,
                                            retry=FAST_RETRY)) as service:
            handles = [service.submit(PAIRS[:2]) for _ in range(10)]
        # close() ran on __exit__; every accepted request must be answered
        assert all(h.done() for h in handles)
        assert service.counters.snapshot()["in_flight"] == 0


class TestStatsSnapshotConsistency:
    """``stats()`` under concurrent mutation: every section must be an
    internally consistent single-pass snapshot (satellite of the
    concurrency pack — see docs/SERVING.md)."""

    def test_request_section_conserves_in_every_snapshot(self):
        cascade = _stub_cascade(tier1_delay=0.002)
        config = ServingConfig(queue_capacity=32, num_workers=3,
                               retry=FAST_RETRY)
        snapshots = []
        stop = threading.Event()
        with InferenceService(cascade, config) as service:
            def poll():
                while not stop.is_set():
                    snapshots.append(service.stats())

            poller = threading.Thread(target=poll, name="stats-poller")
            poller.start()
            handles = []
            try:
                for i in range(60):
                    try:
                        handles.append(service.submit(PAIRS[:2]))
                    except ServiceOverloaded:
                        pass
                for handle in handles:
                    handle.result(timeout=30.0)
            finally:
                stop.set()
                poller.join(timeout=10.0)
        assert snapshots, "poller never snapshotted"
        for snap in snapshots:
            requests = snap["requests"]
            # one locked pass: the tallies beside each other must agree
            assert requests["in_flight"] >= 0
            assert requests["answered"] + requests["rejected"] \
                <= requests["submitted"]
            assert requests["conserved"] == (
                requests["submitted"]
                == requests["answered"] + requests["rejected"])
            # by_tier is incremented with answered under the same lock
            assert sum(requests["by_tier"].values()) <= requests["answered"]
        final = service.stats()
        assert final["requests"]["conserved"]
        assert final["requests"]["in_flight"] == 0

    def test_firewall_conserved_flag_matches_its_own_tallies(self):
        from repro.guard import DataFirewall

        firewall = DataFirewall()
        with InferenceService(_stub_cascade(),
                              ServingConfig(num_workers=2),
                              firewall=firewall) as service:
            for _ in range(4):
                service.submit(PAIRS[:2]).result(10.0)
            snap = service.stats()["firewall"]
        assert snap["conserved"] == (
            snap["accepted"] + snap["quarantined"] == snap["offered"])


class TestDegradationCascade:
    def test_deadline_checkpoint_between_tier1_chunks(self):
        # 3 chunks x 30ms against a 40ms deadline: chunk 2's checkpoint
        # fires mid-request and the features tier answers instead.
        cascade = _stub_cascade(tier1_delay=0.03)
        config = ServingConfig(num_workers=1, batch_size=2, retry=FAST_RETRY)
        with InferenceService(cascade, config) as service:
            response = service.submit(PAIRS[:6], deadline_s=0.04).result(5.0)
        assert response.tier_level in (2, 3)
        assert response.degrade_reason == "deadline"

    def test_tier1_faults_trip_breaker_then_tier2_serves(self):
        trips_before = COUNTERS.as_dict()["breaker_trips"]
        tier2_before = COUNTERS.as_dict()["tier2_degradations"]
        plan = FaultPlan((FaultSpec(site="serving.score", kind="transient",
                                    at=tuple(range(10_000))),))
        config = ServingConfig(num_workers=1, breaker_failures=2,
                               breaker_reset=60.0, retry=FAST_RETRY)
        with inject(plan):
            with InferenceService(_stub_cascade(), config) as service:
                responses = [service.submit(PAIRS[:2]).result(10.0)
                             for _ in range(4)]
        assert all(r.tier == "features" for r in responses)
        assert {r.degrade_reason for r in responses} <= {"fault", "breaker"}
        # later requests were short-circuited by the open breaker
        assert any(r.degrade_reason == "breaker" for r in responses)
        assert np.allclose(responses[0].scores, 0.7)
        assert COUNTERS.as_dict()["breaker_trips"] == trips_before + 1
        assert COUNTERS.as_dict()["tier2_degradations"] == tier2_before + 4

    def test_both_tiers_faulting_reaches_floor(self):
        tier3_before = COUNTERS.as_dict()["tier3_degradations"]
        plan = FaultPlan((
            FaultSpec(site="serving.score", kind="transient",
                      at=tuple(range(10_000))),
            FaultSpec(site="serving.tier2", kind="transient",
                      at=tuple(range(10_000))),
        ))
        config = ServingConfig(num_workers=1, breaker_failures=2,
                               retry=FAST_RETRY)
        with inject(plan):
            with InferenceService(_stub_cascade(), config) as service:
                response = service.submit(PAIRS[:2]).result(10.0)
        assert response.tier == "tfidf" and response.tier_level == 3
        assert response.degrade_reason == "fault"
        assert COUNTERS.as_dict()["tier3_degradations"] == tier3_before + 1

    def test_stall_fault_delays_but_answers_tier1(self):
        plan = FaultPlan.single("serving.score", "stall", at=(0,))
        config = ServingConfig(num_workers=1, stall_seconds=0.01,
                               retry=FAST_RETRY)
        with inject(plan):
            with InferenceService(_stub_cascade(), config) as service:
                response = service.submit(PAIRS[:2]).result(10.0)
        assert response.tier_level == 1 and not response.degraded
        assert plan.fired("serving.score", "stall") == 1

    def test_stats_endpoint_shape(self):
        with InferenceService(_stub_cascade(),
                              ServingConfig(num_workers=1,
                                            retry=FAST_RETRY)) as service:
            service.submit(PAIRS[:2]).result(5.0)
            stats = service.stats()
        assert stats["healthy"]
        assert stats["requests"]["conserved"]
        assert stats["breaker"]["state"] == CLOSED
        for key in ("breaker_trips", "requests_shed",
                    "tier2_degradations", "tier3_degradations"):
            assert key in stats["recovery"]


# ======================================================================
# Tier-1 parity + the real cascade (one trained HierGAT, module-scoped)
# ======================================================================
@pytest.fixture(scope="module")
def beer_cascade():
    from repro.core import HierGAT
    from repro.data import load_dataset

    set_scale(Scale.ci())
    dataset = load_dataset("Beer")
    matcher = HierGAT().fit(dataset)
    return build_cascade(matcher, dataset), dataset


class TestTier1Parity:
    def test_served_scores_bitwise_equal_offline(self, beer_cascade):
        cascade, dataset = beer_cascade
        pairs = list(dataset.split.test)[:10]
        config = ServingConfig(queue_capacity=16, num_workers=3)
        with InferenceService(cascade, config) as service:
            # Odd request sizes across several workers: chunking at the
            # matcher's batch size must still reproduce the offline call.
            handles = [(batch, service.submit(batch))
                       for batch in (pairs[:7], pairs[3:10], pairs[::2])]
            responses = [(batch, h.result(60.0)) for batch, h in handles]
        for batch, response in responses:
            assert response.tier_level == 1
            offline = cascade.tier1.matcher.scores(list(batch))
            assert np.array_equal(response.scores, offline)
            assert np.array_equal(
                response.labels,
                (offline >= cascade.tier1.threshold).astype(np.int64))

    def test_tfidf_floor_scores_are_probabilities(self, beer_cascade):
        cascade, dataset = beer_cascade
        floor = cascade.by_level(3)
        assert isinstance(floor.matcher, TfidfMatcher)
        scores = floor.score(list(dataset.split.test)[:8])
        assert scores.shape == (8,)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0 + 1e-9)

    def test_soak_clean_and_chaos_conserve_with_parity(self, beer_cascade):
        cascade, dataset = beer_cascade
        config = ServingConfig(queue_capacity=8, num_workers=3)
        # Pressure: every tier-1 call faults and requests carry a 20 ms
        # deadline, so the cascade answers from the tiers below it.
        pressure = FaultPlan((FaultSpec(site="serving.score",
                                        kind="transient",
                                        at=tuple(range(1_000_000))),))
        soaks = (
            (None, None, config),
            (default_chaos_plan(), None, config),
            (pressure, 0.02,
             dataclasses.replace(config, breaker_failures=2)),
        )
        for plan, deadline_s, soak_config in soaks:
            report = run_soak(cascade, dataset.split.test,
                              config=soak_config, plan=plan,
                              deadline_s=deadline_s, n_clients=3,
                              requests_per_client=3, pairs_per_request=5,
                              seed=0)
            assert report.conserved, report.summary()
            assert report.tier1_parity, report.summary()
            assert report.answered + report.rejected == report.submitted
        # The pressure soak (the last) answers, and never from tier 1.
        assert report.answered > 0 and "full" not in report.by_tier, \
            report.summary()

    def test_serving_under_sanitizer_smoke(self, beer_cascade):
        """REPRO_SANITIZE semantics: the worker pool must not mutate
        graph-visible arrays, so serving under the sanitizer still
        reproduces the offline scores bitwise."""
        cascade, dataset = beer_cascade
        pairs = list(dataset.split.test)[:6]
        offline = cascade.tier1.matcher.scores(pairs)
        with sanitizer.sanitize():
            with InferenceService(
                    cascade, ServingConfig(num_workers=2)) as service:
                response = service.submit(pairs).result(60.0)
        assert response.tier_level == 1
        assert np.array_equal(response.scores, offline)


# ======================================================================
# The multi-minute chaos soak (slow tier; `make test` only)
# ======================================================================
@pytest.mark.slow
class TestChaosSoak:
    def test_sustained_chaos_soak_zero_lost_requests(self, beer_cascade):
        cascade, dataset = beer_cascade
        config = ServingConfig(queue_capacity=16, num_workers=4,
                               breaker_failures=3)
        report = run_soak(cascade, dataset.split.test, config=config,
                          plan=default_chaos_plan(period=3, stall_period=5,
                                                  poison_period=7),
                          n_clients=6, requests_per_client=20,
                          pairs_per_request=8, deadline_s=2.0, seed=0)
        assert report.conserved, report.summary()
        assert report.tier1_parity, report.summary()
        assert report.submitted == report.answered + report.rejected
        # the chaos plan actually fired at the serving sites
        assert any(key.startswith("serving.score")
                   for key in report.faults_triggered)
