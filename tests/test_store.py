"""Embedding-store tests: quantization, parity, faults, and invalidation.

Covers the offline store end to end at CI scale:

* quantization round-trips and the fused :func:`quantized_matmul`;
* build → read parity — float32 store mode must be **bitwise identical**
  to the live encoder path, quantized modes must stay within the ΔF1 gate;
* the batched encoder — width-grouped, chunked ``encode_records`` is
  bitwise the per-record encode, and no call stacks more than K × chunk
  rows;
* the build's scale audit — a bad persisted int8 scale fails the build;
* the registered fault sites ``store.read`` (corrupt shard → checksum
  quarantine → counted live fallback) and ``store.build`` (kill between
  write and rename → partial file discarded, manifest never published,
  re-running the build resumes) — R004;
* the live-encode cache — a record absent from the store is encoded once
  however many pairs it appears in, bitwise equal to re-encoding it;
* staleness — a ``params_version`` bump invalidates the shards, the
  fronting LRU and the live-encode cache until the store is re-bound
  (R005);
* the serving integration — ``InferenceService`` reads the store on tier 1
  and reports hit/fallback counters, and a chaos soak's ``cache.entry``
  poisonings of the store LRU keep tier-1 parity;
* the store gates (slow) — on the Table-4 quick jobs at a scale where
  every live F1 > 0: float32 parity, int8 ΔF1 and the end-to-end ratio.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.config import Scale, set_scale
from repro.core import HierGAT
from repro.data import load_dataset
from repro.data.magellan import DIRTY_DATASETS
from repro.data.schema import EntityPair
from repro.harness.pairwise import QUICK_DATASETS
from repro.matchers.encoding import pad_sequences
from repro.perf.cache import bump_params_version, instance_token, params_version
from repro.perf.profiler import wall_clock
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import (
    KNOWN_SITES,
    FaultPlan,
    TrainingKilled,
    inject,
)
from repro.store import (
    EmbeddingStore,
    StoreBackedScorer,
    StoreBuildError,
    build_store,
    dequantize,
    encode_record,
    encode_records,
    parity_report,
    quantize,
    stable_record_key,
    store_cache,
    weights_digest,
)
from repro.store import embedstore, scorer as scorer_mod
from repro.store.quant import quantized_matmul


@pytest.fixture(scope="module")
def dataset():
    set_scale(Scale.ci())
    return load_dataset("Beer", scale=Scale.ci())


@pytest.fixture(scope="module")
def fitted(dataset):
    set_scale(Scale.ci())
    return HierGAT().fit(dataset)


def _test_entities(dataset):
    return [entity for pair in dataset.split.test
            for entity in (pair.left, pair.right)]


def _absent(entity):
    """A copy of ``entity`` under a uid no store built here indexes."""
    return dataclasses.replace(entity, uid=f"{entity.uid}:absent")


# ======================================================================
# Quantization primitives
# ======================================================================
class TestQuantization:
    def test_float32_is_a_bitwise_identity(self, rng):
        x = rng.normal(size=(7, 12)).astype(np.float32)
        stored, scale = quantize(x, "float32")
        assert scale == 1.0
        # The fast path hands back the same object: no copy, no arithmetic,
        # which is what makes float32 store mode bitwise by construction.
        assert dequantize(stored, scale) is stored
        assert np.array_equal(stored, x)

    def test_int8_roundtrip_error_is_bounded_by_half_a_step(self, rng):
        x = rng.normal(size=(9, 16)).astype(np.float32) * 3.0
        stored, scale = quantize(x, "int8")
        assert stored.dtype == np.int8
        assert np.abs(stored).max() <= 127
        err = np.abs(dequantize(stored, scale) - x)
        assert err.max() <= scale * 0.5 + 1e-7

    def test_float16_roundtrip_close(self, rng):
        x = rng.normal(size=(5, 8)).astype(np.float32)
        stored, scale = quantize(x, "float16")
        assert stored.dtype == np.float16
        assert np.allclose(dequantize(stored, scale), x, atol=1e-2)

    def test_quantized_matmul_matches_dequantize_then_matmul(self, rng):
        x = rng.normal(size=(6, 10)).astype(np.float32)
        w = rng.normal(size=(10, 4)).astype(np.float32)
        stored, scale = quantize(x, "int8")
        fused = quantized_matmul(stored, scale, w)
        exact = dequantize(stored, scale) @ w
        assert np.allclose(fused, exact, atol=1e-4, rtol=1e-4)
        # A (rows, 1) column gives each row its own scale.
        rows = np.array([[scale], [2 * scale], [1.0], [scale], [3.0], [0.5]],
                        dtype=np.float32)
        fused = quantized_matmul(stored, rows, w)
        exact = (stored.astype(np.float32) * rows) @ w
        assert np.allclose(fused, exact, atol=1e-4, rtol=1e-4)

    def test_unknown_dtype_rejected(self, rng):
        with pytest.raises(ValueError, match="dtype"):
            quantize(np.zeros((2, 2), dtype=np.float32), "int4")


# ======================================================================
# Build + read + parity
# ======================================================================
class TestBuildAndParity:
    def test_build_indexes_every_unique_record(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        store = build_store(tmp_path / "s", fitted, entities)
        unique = {stable_record_key(e) for e in entities}
        assert len(store) == len(unique)
        assert store.records == len(unique)
        assert store.dtype == "float32"
        assert store.valid()

    def test_get_matches_live_encoder_bitwise(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        store = build_store(tmp_path / "s", fitted, entities)
        entity = entities[0]
        record = store.get(entity)
        live = encode_record(fitted._network, fitted._encoder, entity,
                             fitted._num_attributes)
        assert store.stats.hits == 1
        for got, want in zip(record.wpc, live.wpc):
            assert np.array_equal(got, want)
        assert np.array_equal(record.attrs, live.attrs)

    def test_stacked_encode_keeps_true_lengths_and_matches_per_slot(
            self, fitted, dataset):
        """``encode_record`` encodes the K slots in one padded call, then
        cuts each back to its true length: the same blocks a per-slot
        encode at that length computes, within float tolerance."""
        from repro.autograd import no_grad

        network, encoder = fitted._network, fitted._encoder
        k_slots = fitted._num_attributes
        entity = _test_entities(dataset)[0]
        lengths = [len(encoder.attribute_ids(entity, k)) for k in range(k_slots)]
        assert len(set(lengths)) > 1, "slots must have different lengths"
        record = encode_record(network, encoder, entity, k_slots)
        assert [block.shape for block in record.wpc] == [
            (n, network.dim) for n in lengths]
        assert record.attrs.shape == (k_slots, network.dim)
        with no_grad():
            for k, n in enumerate(lengths):
                ids = np.asarray([encoder.attribute_ids(entity, k)])
                mask = np.ones((1, n), dtype=bool)
                wpc = network.encode_record_slot(ids, mask)
                attr = network.summarizer(wpc, mask)
                np.testing.assert_allclose(record.wpc[k], wpc.data[0], atol=1e-5)
                np.testing.assert_allclose(record.attrs[k], attr.data[0], atol=1e-5)

    def test_second_get_serves_from_fronting_lru(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        store = build_store(tmp_path / "s", fitted, entities)
        key = ("store", stable_record_key(entities[0]), params_version(),
               instance_token(store))
        assert key not in store_cache()
        store.get(entities[0])
        assert key in store_cache()
        store.get(entities[0])
        assert store.stats.hits == 2

    def test_absent_record_misses(self, tmp_path, fitted, dataset):
        store = build_store(tmp_path / "s", fitted, _test_entities(dataset))
        stranger = dataset.split.train[0].left
        if stable_record_key(stranger) in store.manifest["index"]:
            pytest.skip("train record coincides with a test record")
        assert store.get(stranger) is None
        assert store.stats.misses == 1

    def test_float32_store_scores_bitwise_identical(self, tmp_path, fitted,
                                                    dataset):
        store = build_store(tmp_path / "s", fitted, _test_entities(dataset))
        report = parity_report(fitted, store, dataset.split.test)
        assert report["bitwise"], report
        assert report["max_abs_diff"] == 0.0
        assert report["live_fallbacks"] == 0
        assert report["store_hits"] > 0

    def test_absent_record_encoded_once_across_its_pairs(self, tmp_path,
                                                         fitted, dataset,
                                                         monkeypatch):
        entities = _test_entities(dataset)
        store = build_store(tmp_path / "s", fitted, entities)
        stored = list({stable_record_key(e): e for e in entities}.values())[:8]
        query = _absent(entities[0])
        pairs = [EntityPair(query, other, 0) for other in stored]
        assert len(pairs) == 8

        encoded = []

        def counting(network, encoder, entity, num_attributes):
            encoded.append(entity)
            return encode_record(network, encoder, entity, num_attributes)

        monkeypatch.setattr(scorer_mod, "encode_record", counting)
        scorer = StoreBackedScorer(fitted, store=store)
        scores = scorer.scores(pairs)
        assert encoded == [query]
        assert scorer.live_fallbacks == 1
        monkeypatch.undo()
        reference = StoreBackedScorer(fitted, store=None).scores(pairs)
        assert np.array_equal(scores, reference)

    def test_store_backed_close_to_standard_forward(self, tmp_path, fitted,
                                                    dataset):
        """The cross-pair megabatch head agrees with matcher.scores.

        Not bitwise (different reduction order across the batch) but tight:
        this pins the store-backed scorer to the reference forward, not
        just to its own live-fallback path.
        """
        store = build_store(tmp_path / "s", fitted, _test_entities(dataset))
        scorer = StoreBackedScorer(fitted, store=store)
        pairs = list(dataset.split.test)
        assert np.allclose(scorer.scores(pairs), fitted.scores(pairs),
                           atol=1e-5, rtol=1e-4)

    def test_reopen_from_disk_serves_after_bind(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        build_store(tmp_path / "s", fitted, entities)
        reopened = EmbeddingStore.open(tmp_path / "s")
        assert not reopened.valid()          # unbound stores serve nothing
        assert reopened.bind(fitted._network)
        assert reopened.get(entities[0]) is not None
        assert reopened.stats.hits == 1

    def test_multi_shard_build(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        store = build_store(tmp_path / "s", fitted, entities, shard_size=3)
        shards = {entry["shard"] for entry in store.manifest["index"].values()}
        assert len(shards) > 1
        report = parity_report(fitted, store, dataset.split.test)
        assert report["bitwise"], report


# ======================================================================
# Batched encoding: width groups, bounded chunks, per-record parity
# ======================================================================
def _all_entities(dataset):
    return [entity for pair in dataset.pairs
            for entity in (pair.left, pair.right)]


def _width(encoder, entity, k_slots):
    return max(len(encoder.attribute_ids(entity, k)) for k in range(k_slots))


def _reference_record(network, encoder, entity, k_slots):
    """The per-record encode: one record's K slots, padded to its own
    width, alone in one encoder and one summarizer call."""
    sequences = [encoder.attribute_ids(entity, k) for k in range(k_slots)]
    ids, mask = pad_sequences(sequences, encoder.vocab.pad_id)
    with no_grad():
        network.eval()
        wpc = network.encode_record_slot(ids, mask)
        attrs = network.summarizer(wpc, mask)
    return ([wpc.data[k, :len(seq)] for k, seq in enumerate(sequences)],
            attrs.data)


class TestBatchedEncode:
    """``encode_records`` stacks records of one padded width, at most
    ``ENCODE_CHUNK`` at a time.  Parity with the per-record encode rests on
    each record keeping its own width and on batch rows being independent;
    both are pinned here, bitwise."""

    @pytest.mark.parametrize("chunk", [1, 3, embedstore.ENCODE_CHUNK])
    def test_bitwise_equal_to_per_record_reference(self, fitted, dataset,
                                                   monkeypatch, chunk):
        network, encoder = fitted._network, fitted._encoder
        k_slots = fitted._num_attributes
        entities = _all_entities(dataset)
        groups = collections.Counter(
            _width(encoder, entity, k_slots) for entity in entities)
        # Mixed widths, and (at chunk 3) a width with several full chunks
        # and one with a partial chunk.
        assert len(groups) > 1
        assert any(count > 2 * 3 for count in groups.values())
        assert any(count % 3 for count in groups.values())
        monkeypatch.setattr(embedstore, "ENCODE_CHUNK", chunk)
        records = encode_records(network, encoder, entities, k_slots)
        assert len(records) == len(entities)
        for entity, record in zip(entities, records):
            wpc, attrs = _reference_record(network, encoder, entity, k_slots)
            assert len(record.wpc) == k_slots
            for got, want in zip(record.wpc, wpc):
                assert got.dtype == np.float32
                assert np.array_equal(got, want)
            assert np.array_equal(record.attrs, attrs)

    def test_no_call_stacks_more_than_a_chunk(self, fitted, dataset,
                                              monkeypatch):
        network, encoder = fitted._network, fitted._encoder
        k_slots = fitted._num_attributes
        chunk = embedstore.ENCODE_CHUNK
        entities = _all_entities(dataset)
        entities = entities * (3 * chunk // len(entities) + 1)
        groups = collections.Counter(
            _width(encoder, entity, k_slots) for entity in entities)
        assert max(groups.values()) > chunk
        rows = []
        encode = network.encode_record_slot

        def counting(ids, mask):
            rows.append(ids.shape[0])
            return encode(ids, mask)

        monkeypatch.setattr(network, "encode_record_slot", counting)
        encode_records(network, encoder, entities, k_slots)
        assert max(rows) == k_slots * chunk
        assert all(n % k_slots == 0 for n in rows)
        assert len(rows) == sum(-(-count // chunk) for count in groups.values())

    def test_empty_input_encodes_nothing(self, fitted):
        assert encode_records(fitted._network, fitted._encoder, [],
                              fitted._num_attributes) == []


# ======================================================================
# Quantized modes: the ΔF1 gate
# ======================================================================
class TestQuantizedStore:
    @pytest.mark.parametrize("dtype", ["float16", "int8"])
    def test_delta_f1_within_gate(self, tmp_path, fitted, dataset, dtype):
        store = build_store(tmp_path / dtype, fitted, _test_entities(dataset),
                            dtype=dtype)
        scorer = StoreBackedScorer(fitted, store=store)
        delta = abs(scorer.test_f1(dataset) - fitted.test_f1(dataset))
        assert delta <= 0.5, f"{dtype} store ΔF1 {delta:.3f} exceeds the gate"
        assert scorer.live_fallbacks == 0

    def test_int8_scores_stay_close(self, tmp_path, fitted, dataset):
        store = build_store(tmp_path / "q", fitted, _test_entities(dataset),
                            dtype="int8")
        report = parity_report(fitted, store, dataset.split.test)
        assert report["max_abs_diff"] < 0.05, report

    def test_scales_persisted_per_slot(self, tmp_path, fitted, dataset):
        store = build_store(tmp_path / "q", fitted, _test_entities(dataset),
                            dtype="int8")
        for entry in store.manifest["index"].values():
            assert len(entry["scales"]) == fitted._num_attributes
            assert all(s > 0.0 for s in entry["scales"])

    def test_scale_audit_fails_the_build_on_a_bad_scale(self, tmp_path,
                                                        fitted, dataset,
                                                        monkeypatch):
        """One record-slot's persisted int8 scale is perturbed to NaN: the
        audit's fused and dequantized projections disagree, the build
        raises, and no manifest is published."""
        calls = []

        def perturbed(arr, dtype):
            stored, scale = quantize(arr, dtype)
            calls.append(scale)
            return stored, (float("nan") if len(calls) == 5 else scale)

        monkeypatch.setattr(embedstore, "quantize", perturbed)
        with pytest.raises(StoreBuildError, match="scale audit failed"):
            build_store(tmp_path / "q", fitted, _test_entities(dataset),
                        dtype="int8")
        with pytest.raises(FileNotFoundError):
            EmbeddingStore.open(tmp_path / "q")

    def test_scale_audit_fails_the_build_on_a_drifted_finite_scale(
            self, tmp_path, fitted, dataset, monkeypatch):
        """Every persisted int8 scale doubled: still finite, and the fused
        and dequantized projections agree, but the dequantized rows are
        twice the rows they store, so the build raises."""
        def doubled(arr, dtype):
            stored, scale = quantize(arr, dtype)
            return stored, 2.0 * scale

        monkeypatch.setattr(embedstore, "quantize", doubled)
        with pytest.raises(StoreBuildError, match="quantization step"):
            build_store(tmp_path / "q", fitted, _test_entities(dataset),
                        dtype="int8")
        with pytest.raises(FileNotFoundError):
            EmbeddingStore.open(tmp_path / "q")


# ======================================================================
# Fault sites (R004): store.read and store.build
# ======================================================================
class TestStoreFaults:
    def test_sites_registered(self):
        assert "store.read" in KNOWN_SITES
        assert "store.build" in KNOWN_SITES

    def test_corrupt_shard_quarantined_with_live_fallback(self, tmp_path,
                                                          fitted, dataset):
        entities = _test_entities(dataset)
        build_store(tmp_path / "s", fitted, entities)
        store = EmbeddingStore.open(tmp_path / "s")
        store.bind(fitted._network)
        COUNTERS.reset()
        pairs = list(dataset.split.test)[:4]
        scorer = StoreBackedScorer(fitted, store=store)
        with inject(FaultPlan.single("store.read", "corrupt")) as plan:
            scores = scorer.scores(pairs)
        assert plan.fired("store.read", "corrupt") == 1
        # The damaged shard is quarantined, counted, and every one of its
        # records falls through to the live encoder ...
        assert store.stats.corrupt_shards == 1
        assert store.stats.corrupt_misses >= 1
        assert scorer.live_fallbacks > 0
        assert COUNTERS.store_corrupt_shards == 1
        # ... which reproduces the store-bypassed scores exactly.
        reference = StoreBackedScorer(fitted, store=None).scores(pairs)
        assert np.array_equal(scores, reference)

    def test_transient_read_is_retried(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        build_store(tmp_path / "s", fitted, entities)
        store = EmbeddingStore.open(tmp_path / "s")
        store.bind(fitted._network)
        with inject(FaultPlan.single("store.read", "transient")) as plan:
            record = store.get(entities[0])
        assert plan.fired("store.read", "transient") == 1
        assert record is not None
        assert store.stats.corrupt_shards == 0

    def test_build_kill_publishes_nothing(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        with inject(FaultPlan.single("store.build", "kill")):
            with pytest.raises(TrainingKilled):
                build_store(tmp_path / "s", fitted, entities)
        # The kill landed between tmp-write and rename: a partial artifact
        # exists but no manifest references it, so the store is invisible.
        assert list((tmp_path / "s").glob("*.tmp.*"))
        with pytest.raises(FileNotFoundError):
            EmbeddingStore.open(tmp_path / "s")

    def test_rerun_after_kill_discards_partials_and_completes(self, tmp_path,
                                                              fitted, dataset):
        entities = _test_entities(dataset)
        with inject(FaultPlan.single("store.build", "kill")):
            with pytest.raises(TrainingKilled):
                build_store(tmp_path / "s", fitted, entities)
        COUNTERS.reset()
        store = build_store(tmp_path / "s", fitted, entities)
        assert COUNTERS.store_build_discards >= 1
        assert not list((tmp_path / "s").glob("*.tmp.*"))
        report = parity_report(fitted, store, dataset.split.test)
        assert report["bitwise"], report

    def test_build_transient_absorbed_by_retry(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        with inject(FaultPlan.single("store.build", "transient")) as plan:
            store = build_store(tmp_path / "s", fitted, entities)
        assert plan.fired("store.build", "transient") == 1
        report = parity_report(fitted, store, dataset.split.test)
        assert report["bitwise"], report


# ======================================================================
# Staleness / invalidation (R005)
# ======================================================================
class TestInvalidation:
    def test_params_version_bump_invalidates_store_and_lru(self, tmp_path,
                                                           fitted, dataset):
        entities = _test_entities(dataset)
        store = build_store(tmp_path / "s", fitted, entities)
        assert store.get(entities[0]) is not None
        stale_key = ("store", stable_record_key(entities[0]), params_version(),
                     instance_token(store))
        assert stale_key in store_cache()
        query = _absent(entities[0])
        live_scorer = StoreBackedScorer(fitted, store=store)
        query_pairs = [EntityPair(query, entities[0], 0)]
        before = live_scorer.scores(query_pairs)
        assert live_scorer.live_fallbacks == 1
        stale_live = ("live", stable_record_key(query), params_version(),
                      instance_token(live_scorer))
        assert stale_live in store_cache()

        bump_params_version()   # what any optimizer step / weight load does
        try:
            assert not store.valid()
            assert store.get(entities[0]) is None
            assert store.stats.stale_misses == 1
            # The fronting LRU keys on params_version too: the pre-bump
            # entry can never be returned for a post-bump key.
            fresh_key = ("store", stable_record_key(entities[0]),
                         params_version(), instance_token(store))
            assert fresh_key != stale_key
            assert fresh_key not in store_cache()
            # So does the live-encode cache: the pre-bump encode of the
            # absent record is unreachable and it is encoded again (the
            # stale store now sends its stored partner live too).
            fresh_live = ("live", stable_record_key(query), params_version(),
                          instance_token(live_scorer))
            assert fresh_live != stale_live
            assert fresh_live not in store_cache()
            after = live_scorer.scores(query_pairs)
            assert live_scorer.live_fallbacks == 3
            assert fresh_live in store_cache()
            assert np.array_equal(after, before)

            # Scoring still works — every record falls through live.
            scorer = StoreBackedScorer(fitted, store=store)
            scores = scorer.scores(list(dataset.split.test)[:3])
            assert scores.shape == (3,)
            assert scorer.live_fallbacks > 0

            # Same weights, re-bound: the store serves again (digest still
            # matches; rebinding just refreshes the pinned version).
            assert store.bind(fitted._network)
            assert store.get(entities[0]) is not None
        finally:
            # Leave the module-scoped matcher bound for later tests.
            store.bind(fitted._network)

    def test_digest_mismatch_refuses_to_bind(self, tmp_path, fitted, dataset):
        entities = _test_entities(dataset)
        store = build_store(tmp_path / "s", fitted, entities)
        store.manifest["weights_digest"] = "0" * 40   # a different network
        assert not store.bind(fitted._network)
        assert not store.valid()
        assert store.get(entities[0]) is None
        assert store.stats.stale_misses == 1

    def test_weights_digest_tracks_parameters(self, fitted):
        class _Stub:
            def __init__(self, state):
                self._state = state

            def state_dict(self):
                return self._state

        state = fitted._network.state_dict()
        base = weights_digest(_Stub(state))
        assert base == weights_digest(fitted._network)   # deterministic
        name = sorted(state)[0]
        perturbed = dict(state)
        perturbed[name] = np.asarray(state[name]) + 1e-3
        assert weights_digest(_Stub(perturbed)) != base


# ======================================================================
# Serving integration
# ======================================================================
class TestServingIntegration:
    def test_service_serves_tier1_from_store(self, tmp_path, fitted, dataset):
        from repro.serving import InferenceService, ServingConfig, build_cascade

        store = build_store(tmp_path / "s", fitted, _test_entities(dataset))
        cascade = build_cascade(fitted, dataset)
        pairs = list(dataset.split.test)[:6]
        config = ServingConfig(queue_capacity=8, num_workers=2)
        with InferenceService(cascade, config, store=store) as service:
            response = service.submit(pairs).result(60.0)
            stats = service.stats()
        assert response.tier_level == 1
        # The service wrapped tier 1 in place; parity is against the
        # wrapper (exactly what the soak harness asserts).
        assert isinstance(cascade.tier1.matcher, StoreBackedScorer)
        offline = cascade.tier1.matcher.scores(pairs)
        assert np.array_equal(response.scores, offline)
        assert stats["store"] is not None
        assert stats["store"]["store"]["hits"] > 0
        assert "store_corrupt_shards" in stats["recovery"]
        assert "store_build_discards" in stats["recovery"]

    def test_soak_with_store_keeps_parity(self, tmp_path, fitted, dataset):
        """The chaos soak's ``cache.entry`` poisonings land on the store
        LRU; each poisoned record is re-read, so parity still holds."""
        from repro.serving import (ServingConfig, build_cascade,
                                   default_chaos_plan, run_soak)

        store = build_store(tmp_path / "s", fitted, _test_entities(dataset))
        cascade = build_cascade(fitted, dataset)
        COUNTERS.reset()
        report = run_soak(cascade, dataset.split.test,
                          config=ServingConfig(queue_capacity=8, num_workers=2),
                          plan=default_chaos_plan(),
                          n_clients=2, requests_per_client=3,
                          pairs_per_request=4, seed=0, store=store)
        assert report.conserved, report.summary()
        assert report.tier1_parity, report.summary()
        assert report.parity_checked > 0, report.summary()
        assert report.faults_triggered.get("cache.entry:poison", 0) >= 1, \
            report.summary()
        assert COUNTERS.cache_degraded > 0
        assert report.service_stats["store"]["store"]["hits"] > 0


# ======================================================================
# Store gates at a scale where every gated dataset scores F1 > 0
# ======================================================================
#: The Table-4 quick jobs: ``QUICK_DATASETS`` plus their dirty variants.
_QUICK_JOBS = [(name, False) for name in QUICK_DATASETS] + [
    (name, True) for name in QUICK_DATASETS if name in DIRTY_DATASETS]

#: One warm-up serving pass, then this many timed passes averaged.
_SERVE_REPEATS = 5


def _timed_serving(scorer, pairs) -> float:
    scorer.scores(pairs)
    started = wall_clock()
    for _ in range(_SERVE_REPEATS):
        scorer.scores(pairs)
    return (wall_clock() - started) / _SERVE_REPEATS


@pytest.mark.slow
@pytest.mark.parametrize("name,dirty", _QUICK_JOBS,
                         ids=[n + (" (dirty)" if d else "")
                              for n, d in _QUICK_JOBS])
def test_store_gates_on_quick_jobs(tmp_path, name, dirty):
    """Live F1 > 0 (so the ΔF1 gate cannot compare two zeros), float32
    store serving bitwise equal to live, int8 ΔF1 <= 0.5, and training
    plus live test scoring >= 10x the int8 store serving time.  A job at
    >= 10x keeps the sum over jobs at >= 10x too."""
    scale = dataclasses.replace(Scale.ci(), max_pairs=300, epochs=3)
    set_scale(scale)
    dataset = load_dataset(name, scale=scale, dirty=dirty)
    pairs = list(dataset.split.test)

    started = wall_clock()
    matcher = HierGAT().fit(dataset)
    f1_live = matcher.test_f1(dataset)
    offline_seconds = wall_clock() - started
    assert f1_live > 0.0, f"{name}: live F1 is 0, the ΔF1 gate is vacuous"

    entities = [e for p in pairs for e in (p.left, p.right)]
    float32 = build_store(tmp_path / "f32", matcher, entities)
    int8 = build_store(tmp_path / "int8", matcher, entities, dtype="int8")
    parity = parity_report(matcher, float32, pairs, batch_size=len(pairs))
    assert parity["bitwise"], parity

    delta = abs(StoreBackedScorer(matcher, store=int8).test_f1(dataset)
                - f1_live)
    assert delta <= 0.5, f"{name}: int8 store ΔF1 {delta:.3f} exceeds 0.5"

    serve_seconds = _timed_serving(
        StoreBackedScorer(matcher, store=int8, batch_size=len(pairs)), pairs)
    ratio = offline_seconds / serve_seconds
    assert ratio >= 10.0, f"{name}: end-to-end {ratio:.1f}x < 10x"
