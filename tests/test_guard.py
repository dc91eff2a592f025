"""Data-quality firewall suite: validation, quarantine, drift, integration.

Covers the contracts documented in ``docs/ROBUSTNESS.md``:

* **canonicalization** — clean values pass through as the *same* object
  (bitwise transparency); repairable junk (BOM, zero-width, CR/LF/TAB) is
  normalized; encoding garbage is rejected, never guessed at;
* **conservation** — ``accepted + quarantined == offered`` for every mix
  of clean and malformed records, including while faults fire at the
  "guard.validate" and "guard.drift" sites;
* **replay** — a quarantined record re-offered after a fix leaves the
  store; one that is still broken stays, and the JSONL file follows;
* **drift** — seeded shift scenarios (vocabulary swap, null-rate spike,
  score shift) each flag within one window, a clean stream raises zero
  flags, and sustained drift forces the serving cascade to tier 2;
* the new recovery counters (``records_quarantined``, ``records_replayed``,
  ``drift_flags``, ``drift_forced_degradations``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.dirty import make_dirty
from repro.data.schema import Entity, EntityPair, PairDataset, Split
from repro.guard import (
    KINDS,
    REASON_ARITY,
    REASON_BAD_TYPE,
    REASON_DUPLICATE_ID,
    REASON_ENCODING,
    REASON_INJECTED,
    REASON_MISSING_ID,
    REASON_NULL_EXCESS,
    REASON_TOO_LONG,
    DataError,
    DataFirewall,
    DriftBaseline,
    DriftMonitor,
    DriftThresholds,
    QuarantinedRecord,
    QuarantineStore,
    RecordProvenance,
    RecordSchema,
    RecordValidator,
    canonicalize_value,
    corrupt_pairs,
    ks_critical,
    ks_statistic,
    perturb_entity,
    psi,
    summarize,
)
from repro.matchers.base import Matcher
from repro.reliability import COUNTERS, FaultPlan, FaultSpec, inject
from repro.serving import (
    DegradationCascade,
    InferenceService,
    ScoringTier,
    ServingConfig,
    run_soak,
)
from repro.text.vocab import NAN_TOKEN


@pytest.fixture(autouse=True)
def fresh_counters():
    COUNTERS.reset()
    yield
    COUNTERS.reset()


def _entity(uid: str, name: str = "stone ipa", brew: str = "stone") -> Entity:
    return Entity(uid=uid, attributes=(("name", name), ("brewery", brew)))


def _pair(i: int, label: int = 1) -> EntityPair:
    return EntityPair(left=_entity(f"l{i}", f"pale ale {i}"),
                      right=_entity(f"r{i}", f"pale ale {i}"),
                      label=label)


def _dataset(n: int = 12) -> PairDataset:
    pairs = [_pair(i, label=i % 2) for i in range(n)]
    third = max(1, n // 3)
    return PairDataset(name="toy", domain="test", pairs=pairs,
                       split=Split(train=pairs[: n - 2 * third],
                                   valid=pairs[n - 2 * third: n - third],
                                   test=pairs[n - third:]),
                       num_attributes=2)


# ======================================================================
# Canonicalization
# ======================================================================
class TestCanonicalize:
    def test_clean_value_is_same_object(self):
        value = "stone ipa 6.9%"
        assert canonicalize_value(value) is value

    def test_bom_and_zero_width_stripped(self):
        assert canonicalize_value("﻿stone​ ipa") == "stone ipa"

    def test_tabs_newlines_become_single_spaces(self):
        assert canonicalize_value("stone\tipa\r\nale") == "stone ipa ale"

    @pytest.mark.parametrize("junk", ["\x00", "\x1b", "\x7f", "�"])
    def test_garbage_raises(self, junk):
        with pytest.raises(ValueError):
            canonicalize_value(f"stone{junk}ipa")


# ======================================================================
# Validator
# ======================================================================
class TestRecordValidator:
    def test_valid_record_becomes_entity(self):
        entity = RecordValidator().validate(
            "a1", {"name": "stone ipa", "abv": None}, source="beer.csv")
        assert entity.uid == "a1"
        assert dict(entity.attributes) == {"name": "stone ipa",
                                           "abv": NAN_TOKEN}
        assert entity.source == "beer.csv"

    @pytest.mark.parametrize("uid", [None, "", "   ", 7])
    def test_missing_id(self, uid):
        with pytest.raises(DataError) as err:
            RecordValidator().validate(uid, {"name": "x"})
        assert err.value.reason == REASON_MISSING_ID

    def test_duplicate_id(self):
        validator = RecordValidator()
        validator.validate("a1", {"name": "x"})
        with pytest.raises(DataError) as err:
            validator.validate("a1", {"name": "y"})
        assert err.value.reason == REASON_DUPLICATE_ID
        validator.reset()
        validator.validate("a1", {"name": "y"})  # fresh source: fine

    def test_failed_record_does_not_burn_its_uid(self):
        """A record that fails a later check must stay replayable: its uid
        is only registered once every check has passed."""
        validator = RecordValidator(RecordSchema(max_value_chars=4))
        with pytest.raises(DataError):
            validator.validate("a1", {"name": "much too long"})
        entity = validator.validate("a1", {"name": "ok"})
        assert entity.uid == "a1"

    def test_non_string_value(self):
        with pytest.raises(DataError) as err:
            RecordValidator().validate("a1", {"name": 3.14})
        assert err.value.reason == REASON_BAD_TYPE

    def test_too_long_value(self):
        schema = RecordSchema(max_value_chars=8)
        with pytest.raises(DataError) as err:
            RecordValidator(schema).validate("a1", {"name": "much too long"})
        assert err.value.reason == REASON_TOO_LONG

    def test_arity_mismatch(self):
        schema = RecordSchema(attributes=("name", "brewery"))
        with pytest.raises(DataError) as err:
            RecordValidator(schema).validate("a1", {"name": "x"})
        assert err.value.reason == REASON_ARITY

    def test_null_excess(self):
        schema = RecordSchema(max_null_fraction=0.5)
        with pytest.raises(DataError) as err:
            RecordValidator(schema).validate(
                "a1", {"name": None, "brewery": None, "abv": "6.9"})
        assert err.value.reason == REASON_NULL_EXCESS

    def test_provenance_travels_with_the_error(self):
        provenance = RecordProvenance("beer.csv", 17)
        with pytest.raises(DataError) as err:
            RecordValidator().validate("a1", {"name": "x\x00y"}, provenance)
        assert err.value.reason == REASON_ENCODING
        assert err.value.provenance == provenance
        assert "beer.csv:row 17" in str(err.value)

    def test_validate_entity_clean_is_same_object(self):
        entity = _entity("a1")
        assert RecordValidator().validate_entity(entity) is entity

    def test_validate_entity_no_duplicate_tracking(self):
        validator = RecordValidator()
        entity = _entity("a1")
        validator.validate_entity(entity)
        assert validator.validate_entity(entity) is entity


# ======================================================================
# Quarantine store
# ======================================================================
class TestQuarantineStore:
    RECORD = QuarantinedRecord(uid="a1", values=(("name", "x\x00y"),),
                               source="beer.csv", row=3,
                               reason=REASON_ENCODING, detail="garbage")

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        store = QuarantineStore(path=path)
        store.add(self.RECORD)
        loaded = QuarantineStore.load(path)
        assert loaded.records == (self.RECORD,)
        assert loaded.by_reason() == {REASON_ENCODING: 1}

    def test_rewrite_after_remove(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        store = QuarantineStore(path=path)
        store.add(self.RECORD)
        store.add(QuarantinedRecord(uid="a2", values=(), source="s", row=1,
                                    reason=REASON_MISSING_ID))
        store.remove(self.RECORD)
        store.rewrite()
        assert [r.uid for r in QuarantineStore.load(path).records] == ["a2"]


# ======================================================================
# Firewall: conservation, transparency, replay
# ======================================================================
class TestDataFirewall:
    def test_conservation_over_mixed_records(self):
        firewall = DataFirewall(schema=RecordSchema(max_value_chars=16))
        rows = [("a1", {"name": "ok"}),
                ("a2", {"name": "bad\x00byte"}),
                ("a1", {"name": "duplicate"}),
                ("a4", {"name": "x" * 40}),
                ("a5", {"name": None})]
        accepted = [e for uid, values in rows
                    if (e := firewall.admit(uid, values)) is not None]
        snap = firewall.stats.snapshot()
        assert snap == {"offered": 5, "accepted": 2, "quarantined": 3,
                        "replayed": 0, "retracted": 0, "conserved": True}
        assert firewall.stats.conserved
        assert [e.uid for e in accepted] == ["a1", "a5"]
        assert firewall.store.by_reason() == {REASON_ENCODING: 1,
                                              REASON_DUPLICATE_ID: 1,
                                              REASON_TOO_LONG: 1}
        assert COUNTERS.as_dict()["records_quarantined"] == 3

    def test_admit_pairs_clean_returns_same_objects(self):
        firewall = DataFirewall()
        pairs = [_pair(i) for i in range(4)]
        accepted, quarantined = firewall.admit_pairs(pairs, source="req")
        assert quarantined == 0
        assert all(got is want for got, want in zip(accepted, pairs))
        assert firewall.stats.conserved

    def test_admit_pairs_drops_pair_when_either_side_is_bad(self):
        firewall = DataFirewall()
        bad = EntityPair(left=_entity("l9", "bad\x00"), right=_entity("r9"),
                         label=0)
        accepted, quarantined = firewall.admit_pairs([_pair(0), bad])
        assert len(accepted) == 1 and quarantined == 1
        assert firewall.stats.conserved

    def test_replay_accepts_fixed_records_and_keeps_broken_ones(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        strict = DataFirewall(schema=RecordSchema(max_value_chars=4),
                              store=QuarantineStore(path=path))
        strict.admit("a1", {"name": "too long for four"})
        strict.admit("a2", {"name": "bad\x00"})
        assert len(strict.store) == 2

        relaxed = DataFirewall(schema=RecordSchema(),
                               store=QuarantineStore.load(path))
        entities, remaining = relaxed.replay()
        assert [e.uid for e in entities] == ["a1"]
        assert remaining == 1
        assert relaxed.stats.conserved
        assert [r.uid for r in QuarantineStore.load(path).records] == ["a2"]
        assert COUNTERS.as_dict()["records_replayed"] == 1

    def test_thread_safety_of_stats(self):
        firewall = DataFirewall()

        def offer(base):
            for i in range(50):
                firewall.admit(f"{base}-{i}", {"name": "ok"})

        threads = [threading.Thread(target=offer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert firewall.stats.snapshot()["accepted"] == 200
        assert firewall.stats.conserved


# ======================================================================
# Fault sites: guard.validate and guard.drift (R004 coverage)
# ======================================================================
class TestGuardFaultSites:
    def test_transient_fault_at_guard_validate_is_absorbed(self):
        plan = FaultPlan((FaultSpec(site="guard.validate", kind="transient",
                                    at=(0,)),))
        firewall = DataFirewall()
        with inject(plan):
            entity = firewall.admit("a1", {"name": "ok"})
        assert entity is not None
        assert plan.fired("guard.validate", "transient")
        assert COUNTERS.as_dict()["transient_retries"] >= 1
        assert firewall.stats.conserved

    def test_corrupt_fault_at_guard_validate_quarantines_not_crashes(self):
        plan = FaultPlan((FaultSpec(site="guard.validate", kind="corrupt",
                                    at=(0,)),))
        firewall = DataFirewall()
        with inject(plan):
            first = firewall.admit("a1", {"name": "ok"})
            second = firewall.admit("a2", {"name": "ok"})
        assert first is None and second is not None
        assert firewall.store.records[0].reason == REASON_INJECTED
        assert firewall.stats.conserved

    def test_transient_fault_at_guard_drift_is_absorbed(self):
        baseline = DriftBaseline.from_dataset(_dataset())
        monitor = DriftMonitor(baseline, DriftThresholds(window=4))
        plan = FaultPlan((FaultSpec(site="guard.drift", kind="transient",
                                    at=(0,)),))
        with inject(plan):
            monitor.observe_pairs([_pair(i) for i in range(4)])
        assert plan.fired("guard.drift", "transient")
        assert monitor.windows_evaluated == 2  # 8 entities / window of 4
        assert monitor.flag_count == 0

    def test_poison_fault_at_guard_drift_is_recomputed(self):
        """Poisoned window statistics come out non-finite; the monitor must
        detect that and recompute through the retry path, not flag."""
        baseline = DriftBaseline.from_dataset(_dataset())
        monitor = DriftMonitor(baseline, DriftThresholds(window=4))
        plan = FaultPlan((FaultSpec(site="guard.drift", kind="poison",
                                    at=(0,)),))
        with inject(plan):
            monitor.observe_pairs([_pair(i) for i in range(2)])
        assert plan.fired("guard.drift", "poison")
        assert COUNTERS.as_dict()["transient_retries"] >= 1
        assert monitor.flag_count == 0


# ======================================================================
# Drift detection: seeded shift scenarios
# ======================================================================
def _monitor(window: int = 8, scores=None, **kw) -> DriftMonitor:
    baseline = DriftBaseline.from_dataset(_dataset(), scores=scores)
    return DriftMonitor(baseline, DriftThresholds(window=window, **kw))


class TestDriftStatistics:
    def test_ks_identical_samples_is_zero(self, rng):
        sample = rng.normal(size=200)
        assert ks_statistic(sample, sample) == 0.0

    def test_ks_disjoint_samples_is_one(self):
        assert ks_statistic(np.zeros(50), np.ones(50)) == 1.0

    def test_ks_critical_shrinks_with_n(self):
        assert ks_critical(1000, 1000, 1e-3) < ks_critical(10, 10, 1e-3)

    def test_psi_identical_is_small_and_shifted_is_large(self, rng):
        base = rng.normal(size=2000)
        assert psi(rng.normal(size=2000), base) < 0.05
        assert psi(rng.normal(size=2000) + 2.0, base) > 0.25


class TestDriftScenarios:
    def test_clean_stream_raises_zero_flags(self):
        monitor = _monitor(window=8)
        for _ in range(8):
            monitor.observe_pairs([_pair(i) for i in range(4)])
        assert monitor.windows_evaluated == 8
        assert monitor.flag_count == 0
        assert not monitor.forcing
        assert COUNTERS.as_dict()["drift_flags"] == 0

    def test_vocabulary_swap_flags_within_one_window(self):
        monitor = _monitor(window=8)
        alien = [EntityPair(left=_entity(f"x{i}", "zzqx qxzz vexing"),
                            right=_entity(f"y{i}", "qxv zvq wyrd"),
                            label=0) for i in range(4)]
        monitor.observe_pairs(alien)
        assert monitor.windows_evaluated == 1
        assert "oov_rate" in monitor.flag_reasons()

    def test_null_rate_spike_flags_within_one_window(self):
        monitor = _monitor(window=8)
        nulled = [EntityPair(left=_entity(f"x{i}", NAN_TOKEN, NAN_TOKEN),
                             right=_entity(f"y{i}", NAN_TOKEN, NAN_TOKEN),
                             label=0) for i in range(4)]
        monitor.observe_pairs(nulled)
        assert "null_rate" in monitor.flag_reasons()

    def test_score_shift_flags_within_one_window(self, rng):
        baseline_scores = list(rng.uniform(0.0, 0.4, size=256))
        monitor = _monitor(window=16, scores=baseline_scores)
        monitor.observe_scores(list(rng.uniform(0.8, 1.0, size=16)))
        assert "score_shift" in monitor.flag_reasons()

    def test_clean_scores_do_not_flag(self, rng):
        baseline_scores = list(rng.uniform(0.0, 1.0, size=256))
        monitor = _monitor(window=16, scores=baseline_scores)
        monitor.observe_scores(list(rng.uniform(0.0, 1.0, size=16)))
        assert monitor.flag_count == 0

    def test_small_window_psi_noise_does_not_flag(self, rng):
        """PSI is sampling noise below psi_min_count; only KS (which has a
        size-aware critical value) may flag small windows."""
        baseline_scores = list(rng.uniform(0.0, 1.0, size=64))
        monitor = _monitor(window=8, scores=baseline_scores)
        for _ in range(6):
            monitor.observe_scores(list(rng.uniform(0.0, 1.0, size=8)))
        assert monitor.flag_count == 0

    def test_sustained_drift_sets_forcing_and_clean_window_clears_it(self):
        monitor = _monitor(window=4, sustain=2)
        nulled = [EntityPair(left=_entity(f"x{i}", NAN_TOKEN, NAN_TOKEN),
                             right=_entity(f"y{i}", NAN_TOKEN, NAN_TOKEN),
                             label=0) for i in range(2)]
        monitor.observe_pairs(nulled)
        assert not monitor.forcing          # one flagged window: not yet
        monitor.observe_pairs(nulled)
        assert monitor.forcing              # two consecutive: forcing
        monitor.observe_pairs([_pair(0), _pair(1)])
        assert not monitor.forcing          # clean window clears

    def test_out_of_order_window_results_apply_in_roll_order(self):
        """Regression for the window-roll race: two flagged windows rolled
        before a clean one must leave forcing *off* even when the clean
        window's evaluation finishes first (threads publishing results in
        completion order used to let a stale clean window clear the
        forcing a newer flagged window had set — or vice versa)."""
        monitor = _monitor(window=4, sustain=2)
        # Completion order 2, 0, 1 for windows rolled in order 0, 1, 2
        # (0 and 1 flagged, 2 clean).
        monitor._record_window(2, ())
        stats = monitor.stats()
        assert stats["windows_evaluated"] == 0  # buffered: 0 not applied yet
        monitor._record_window(0, ("input.oov",))
        monitor._record_window(1, ("input.oov",))
        stats = monitor.stats()
        assert stats["windows_evaluated"] == 3
        assert monitor.flag_count == 2
        assert not monitor.forcing, (
            "flagged windows 0,1 then clean window 2 must end with "
            "forcing cleared, regardless of completion order")

    def test_out_of_order_flagged_tail_keeps_forcing(self):
        """Mirror case: clean window rolled first, flagged windows after —
        the stale clean result must not clear forcing set by newer
        windows."""
        monitor = _monitor(window=4, sustain=2)
        monitor._record_window(1, ("input.oov",))   # buffered
        monitor._record_window(2, ("input.oov",))   # buffered
        assert monitor.stats()["windows_evaluated"] == 0
        monitor._record_window(0, ())               # applies 0, 1, 2 in order
        assert monitor.stats()["windows_evaluated"] == 3
        assert monitor.forcing, "two newest windows flagged: forcing stays"


# ======================================================================
# Perturbation generators (seeded, R001)
# ======================================================================
class TestPerturbations:
    def test_same_seed_same_corruption(self):
        pairs = [_pair(i) for i in range(10)]
        a = corrupt_pairs(pairs, 0.5, np.random.default_rng(3))
        b = corrupt_pairs(pairs, 0.5, np.random.default_rng(3))
        assert a == b

    def test_rate_zero_returns_equal_pairs(self):
        pairs = [_pair(i) for i in range(5)]
        assert corrupt_pairs(pairs, 0.0, np.random.default_rng(0)) == pairs

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_produces_a_changed_entity(self, kind):
        entity = _entity("a1", "stone imperial russian stout", "stone")
        changed = perturb_entity(entity, kind, np.random.default_rng(4))
        assert changed.uid == entity.uid
        assert changed.attributes != entity.attributes

    def test_garbage_kind_gets_quarantined(self):
        entity = _entity("a1")
        garbled = perturb_entity(entity, "garbage", np.random.default_rng(0))
        firewall = DataFirewall()
        assert firewall.admit_entity(garbled) is None
        assert firewall.store.records[0].reason == REASON_ENCODING

    def test_make_dirty_seed_and_rng_are_equivalent(self):
        pairs = [_pair(i) for i in range(6)]
        assert make_dirty(pairs, seed=5) == \
            make_dirty(pairs, rng=np.random.default_rng(5))

    def test_make_dirty_requires_exactly_one_randomness_source(self):
        pairs = [_pair(0)]
        with pytest.raises(ValueError):
            make_dirty(pairs)
        with pytest.raises(ValueError):
            make_dirty(pairs, seed=1, rng=np.random.default_rng(1))


# ======================================================================
# Serving integration: submit-path firewall + drift-forced degradation
# ======================================================================
class _ConstMatcher(Matcher):
    name = "const"

    def __init__(self, value: float):
        self.value = value
        self.threshold = 0.5
        self.scale = None

    def fit(self, dataset):
        return self

    def scores(self, pairs):
        return np.full(len(pairs), self.value, dtype=np.float64)

    def predict(self, pairs):
        return (self.scores(pairs) >= self.threshold).astype(np.int64)


def _cascade() -> DegradationCascade:
    return DegradationCascade(tiers=[
        ScoringTier(name="full", level=1, matcher=_ConstMatcher(0.9)),
        ScoringTier(name="features", level=2, matcher=_ConstMatcher(0.7)),
        ScoringTier(name="tfidf", level=3, matcher=_ConstMatcher(0.3)),
    ])


class TestServingFirewall:
    def test_submit_quarantines_garbage_and_scores_the_rest(self):
        firewall = DataFirewall()
        bad = EntityPair(left=_entity("l9", "bad\x00"), right=_entity("r9"),
                         label=0)
        with InferenceService(_cascade(), ServingConfig(num_workers=1),
                              firewall=firewall) as service:
            response = service.submit([_pair(0), bad, _pair(1)]).result(5.0)
        assert response.status == "ok"
        assert response.quarantined == 1
        assert len(response.scores) == 2
        stats = service.stats()
        assert stats["firewall"]["conserved"]
        assert stats["firewall"]["quarantined"] == 1
        assert stats["requests"]["conserved"]

    def test_sustained_drift_forces_tier2_with_reason(self):
        baseline = DriftBaseline.from_dataset(_dataset())
        monitor = DriftMonitor(baseline, DriftThresholds(window=4, sustain=2))
        firewall = DataFirewall(monitor=monitor)
        nulled = [EntityPair(left=_entity(f"x{i}", NAN_TOKEN, NAN_TOKEN),
                             right=_entity(f"y{i}", NAN_TOKEN, NAN_TOKEN),
                             label=0) for i in range(2)]
        with InferenceService(_cascade(), ServingConfig(num_workers=1),
                              firewall=firewall) as service:
            service.submit(nulled).result(5.0)          # window 1 flags
            service.submit(nulled).result(5.0)          # window 2: forcing
            forced = service.submit([_pair(0)]).result(5.0)
        assert forced.tier_level == 2
        assert forced.degrade_reason == "drift"
        assert COUNTERS.as_dict()["drift_forced_degradations"] >= 1
        assert COUNTERS.as_dict()["drift_flags"] >= 2

    def test_drift_forcing_can_be_disabled(self):
        baseline = DriftBaseline.from_dataset(_dataset())
        monitor = DriftMonitor(baseline, DriftThresholds(window=4, sustain=1))
        firewall = DataFirewall(monitor=monitor)
        nulled = [EntityPair(left=_entity(f"x{i}", NAN_TOKEN, NAN_TOKEN),
                             right=_entity(f"y{i}", NAN_TOKEN, NAN_TOKEN),
                             label=0) for i in range(2)]
        config = ServingConfig(num_workers=1, drift_force_tier2=False)
        with InferenceService(_cascade(), config,
                              firewall=firewall) as service:
            service.submit(nulled).result(5.0)
            response = service.submit([_pair(0)]).result(5.0)
        assert response.tier_level == 1

    def test_chaos_soak_with_guard_faults_stays_conserved(self):
        """The acceptance chaos soak: faults at "guard.validate" and
        "guard.drift" while concurrent clients submit; both the request
        and the record conservation invariants must hold."""
        baseline = DriftBaseline.from_dataset(_dataset())
        monitor = DriftMonitor(baseline, DriftThresholds(window=64))
        firewall = DataFirewall(monitor=monitor)
        plan = FaultPlan((
            FaultSpec(site="guard.validate", kind="transient",
                      at=tuple(range(0, 1000, 7))),
            FaultSpec(site="guard.validate", kind="corrupt",
                      at=tuple(range(3, 1000, 11))),
            FaultSpec(site="guard.drift", kind="transient", at=(0, 1)),
        ))
        report = run_soak(_cascade(), [_pair(i) for i in range(12)],
                          config=ServingConfig(num_workers=2,
                                               queue_capacity=16),
                          plan=plan, n_clients=3, requests_per_client=4,
                          pairs_per_request=4, seed=1, firewall=firewall)
        assert report.conserved
        assert report.tier1_parity
        assert firewall.stats.conserved
        assert plan.fired("guard.validate", "corrupt")
        summary = summarize(firewall)
        assert summary.by_reason.get(REASON_INJECTED, 0) >= 1


# ======================================================================
# The corruption-robustness curve's clean point (slow tier)
# ======================================================================
@pytest.mark.slow
def test_robustness_curve_clean_point_is_untouched():
    """Firewall transparency on real matchers: at corruption rate 0.0 the
    firewall quarantines nothing and no drift window flags, for each of
    the three matchers; at rate 0.4 it does quarantine, so the predicate
    can fail.  F1 is not gated here (docs/ROBUSTNESS.md)."""
    from repro.config import Scale
    from repro.harness.robustness import robustness_series

    _, series = robustness_series("Beer", seed=7, scale=Scale.ci())
    assert [entry["matcher"] for entry in series] \
        == ["hiergat", "ditto", "magellan"]
    for entry in series:
        clean, _, dirty = entry["points"]
        assert clean["corruption_rate"] == 0.0
        assert clean["drift_windows"] > 0, entry
        assert clean["quarantined_records"] == 0, entry
        assert clean["drift_flagged"] == 0, entry
        assert dirty["corruption_rate"] == 0.4
        assert dirty["quarantined_records"] > 0, entry
