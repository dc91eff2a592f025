"""Property/fuzz tests for the ANN blocking layer (repro.blocking.ann).

Covers the three satellite guarantees: pair-completeness at or above the
configured LSH collision-probability bound on a ≥1k-record seeded table
with `guard.perturb` mangles; no crash on degenerate tables or mangled
queries; and the ``blocking.index`` fault contract — an injected corrupt
index is *detected* (checksum mismatch), *counted*
(``COUNTERS.blocking_index_rebuilds``) and *recovered* by rebuilding from
retained records.  Plus the pipeline / serving swap-point integration.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking import (MinHashLSHBlocker, collision_probability,
                            evaluate_blocker)
from repro.blocking.evaluation import corrupted_copy_tables
from repro.data.di2kg import di2kg_spec
from repro.data.generators import generate_source_tables
from repro.data.schema import Entity, EntityPair
from repro.guard.perturb import KINDS, perturb_entity
from repro.matchers.base import Matcher
from repro.perf.cache import bump_params_version
from repro.pipeline import ERPipeline
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import FaultPlan, inject
from repro.serving.service import InferenceService, ServingConfig
from repro.serving.tiers import DegradationCascade, ScoringTier
from repro.text.tokenizer import tokenize


def _record(uid, text):
    return Entity.from_dict(uid, {"title": text})


def _seeded_table(n, seed, vocab=400, tokens=8):
    rng = np.random.default_rng(seed)
    words = [f"tok{i}" for i in range(vocab)]
    return [
        _record(f"r{i}", " ".join(words[int(j)] for j in
                                  rng.choice(vocab, size=tokens,
                                             replace=False)))
        for i in range(n)
    ]


def _jaccard(a: Entity, b: Entity) -> float:
    sa, sb = set(tokenize(a.text())), set(tokenize(b.text()))
    union = sa | sb
    return len(sa & sb) / len(union) if union else 1.0


# ======================================================================
# Pair-completeness vs the configured collision-probability bound
# ======================================================================
class TestLSHRecallBound:
    def test_pc_meets_collision_probability_bound(self):
        # ≥1k records; every fourth gets a perturbed near-duplicate (the
        # guard.perturb mangles), which forms the ground truth.
        rng = np.random.default_rng(42)
        base = _seeded_table(1000, seed=42)
        table, truth = [], []
        for i, record in enumerate(base):
            table.append(record)
            if i % 4 == 0:
                kind = KINDS[int(rng.integers(0, len(KINDS)))]
                dup = perturb_entity(record, kind, rng)
                dup = Entity.from_dict(f"{record.uid}-dup",
                                       dict(dup.attributes))
                truth.append((record, len(table)))
                table.append(dup)

        blocker = MinHashLSHBlocker(seed=9, num_perm=32, bands=16)
        blocker.fit(table)
        hits, bounds, close_hits, close_total = 0, [], 0, 0
        for record, dup_index in truth:
            jaccard = _jaccard(record, table[dup_index])
            bounds.append(blocker.collision_probability(jaccard))
            hit = dup_index in blocker.candidates(record, k=32)
            hits += hit
            if jaccard >= 0.5:  # the regime LSH is configured to retrieve
                close_total += 1
                close_hits += hit
        pc = hits / len(truth)
        # The analytic curve is the *expected* retrieval rate over random
        # hash draws; 0.05 covers the finite-sample wobble of one seed
        # plus top-k ranking displacement.  (Some perturb kinds — e.g.
        # ``null`` on a one-attribute record — destroy the pair entirely;
        # the bound accounts for that via their near-zero jaccard.)
        assert pc >= float(np.mean(bounds)) - 0.05
        # Absolute floor where the S-curve promises retrieval: at s=0.5
        # this configuration collides with probability ≥ 0.98.
        assert close_total > 100
        assert close_hits / close_total >= 0.9

    def test_smoke_tier_reaches_pc_at_reduction(self):
        # The 1k-record blocking gate: on corrupted-copy queries, the
        # MinHash/LSH curve keeps pair completeness >= 0.9 at a >= 5x
        # reduction of the query x index cross product, at every k.
        table, queries, truth = corrupted_copy_tables(1000, 300, seed=1234)
        blocker = MinHashLSHBlocker(seed=1234, num_perm=32, bands=16)
        blocker.fit(table)
        for k in (4, 8, 16, 32):
            pairs = [(qi, j) for qi, record in enumerate(queries)
                     for j in blocker.candidates(record, k=k)]
            quality = evaluate_blocker(pairs, truth, (300, 1000))
            assert quality.num_true_matches == 300
            assert quality.pairs_completeness >= 0.9, (k, str(quality))
            assert 300 * 1000 / quality.num_candidates >= 5, (k, str(quality))
            assert quality.harmonic_mean >= 0.9

    @pytest.mark.slow
    def test_10k_tier_reaches_pc_at_reduction(self):
        # The 10k-record blocking gate: 2k corrupted-copy queries against
        # 10k indexed records keep pair completeness >= 0.95 at a >= 10x
        # reduction of the cross product, at every k.
        table, queries, truth = corrupted_copy_tables(10_000, 2_000, 1234)
        blocker = MinHashLSHBlocker(seed=1234, num_perm=32, bands=16)
        blocker.fit(table)
        for k in (4, 8, 16, 32):
            pairs = [(qi, j) for qi, record in enumerate(queries)
                     for j in blocker.candidates(record, k=k)]
            quality = evaluate_blocker(pairs, truth, (2_000, 10_000))
            assert quality.num_true_matches == 2_000
            assert quality.pairs_completeness >= 0.95, (k, str(quality))
            assert 2_000 * 10_000 / quality.num_candidates >= 10, \
                (k, str(quality))

    def test_collision_probability_curve(self):
        blocker = MinHashLSHBlocker(seed=0, num_perm=32, bands=16)
        assert blocker.collision_probability(0.0) == 0.0
        assert blocker.collision_probability(1.0) == 1.0
        grid = [blocker.collision_probability(s / 10) for s in range(11)]
        assert all(lo <= hi for lo, hi in zip(grid, grid[1:]))
        assert collision_probability(0.5, 2, 16) == \
            1.0 - (1.0 - 0.5 ** 2) ** 16


# ======================================================================
# Fuzz: degenerate tables and mangled queries never crash
# ======================================================================
class TestAnnFuzz:
    @pytest.mark.parametrize("factory", [
        lambda: MinHashLSHBlocker(seed=3),
    ], ids=["lsh"])
    def test_mangled_queries_keep_contracts(self, factory):
        rng = np.random.default_rng(7)
        table = _seeded_table(64, seed=7)
        blocker = factory().fit(table)
        for i in range(0, len(table), 4):
            for kind in KINDS:
                mangled = perturb_entity(table[i], kind, rng)
                got = blocker.candidates(mangled, k=8)
                assert got == sorted(set(got))
                assert all(0 <= j < len(table) for j in got)

    @pytest.mark.parametrize("factory", [
        lambda: MinHashLSHBlocker(seed=3),
    ], ids=["lsh"])
    def test_unicode_empty_duplicate_values(self, factory):
        table = [
            _record("u0", "café résumé 中文"),
            _record("u1", ""),
            _record("u2", ""),            # duplicate empty text
            _record("u3", "same same same"),
            _record("u4", "same same same"),  # duplicate values
        ]
        blocker = factory().fit(table)
        for record in table:
            got = blocker.candidates(record, k=8)
            assert got == sorted(set(got))

    @given(st.lists(st.text(min_size=0, max_size=12), min_size=0, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_text_never_crashes(self, words):
        blocker = MinHashLSHBlocker(seed=1).fit(_seeded_table(16, seed=1))
        got = blocker.candidates(_record("q", " ".join(words)), k=4)
        assert got == sorted(set(got))

    def test_empty_record_signature_is_sentinel(self):
        # Empty records collide with each other (shared sentinel band),
        # never with real records.
        blocker = MinHashLSHBlocker(seed=2).fit(
            [_record("e0", ""), _record("e1", ""), _record("r", "alpha")])
        assert blocker.candidates(_record("q", ""), k=4) == [0, 1]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MinHashLSHBlocker(num_perm=30, bands=16)  # not a multiple
        with pytest.raises(ValueError):
            MinHashLSHBlocker(char_ngrams=0)


# ======================================================================
# The query path: numpy self-exclusion, one signature per streamed record
# ======================================================================
ANN_FACTORIES = [
    lambda: MinHashLSHBlocker(seed=4, num_perm=32, bands=16),
    # A row width that is not a multiple of 8.
    lambda: MinHashLSHBlocker(seed=4, num_perm=12, bands=4),
]
ANN_IDS = ["lsh", "lsh-12x4"]


def _agreement(blocker, row, qrow):
    """Agreeing signature components, counted in plain Python: equal
    minhash values, or equal code bits of a projection code."""
    if isinstance(blocker, MinHashLSHBlocker):
        return sum(a == b for a, b in zip(row.tolist(), qrow.tolist()))
    words = zip(row[blocker.bands:].tolist(), qrow[blocker.bands:].tolist())
    return blocker.planes - sum(bin(a ^ b).count("1") for a, b in words)


def _brute_force_candidates(blocker, record, k):
    """Reference: every indexed row whose bands meet the query's, minus
    the query's uid by a per-id comparison, top-k by (agreement, id)."""
    qrow = blocker._row_batch([record])[0]
    qbands = blocker._band_values(qrow[None, :])[0]
    indexed = list(blocker.records)
    rows = blocker._row_batch(indexed)
    bands = blocker._band_values(rows)
    ids = [j for j in range(len(indexed))
           if (bands[j] == qbands).any() and indexed[j].uid != record.uid]
    ranked = sorted(ids, key=lambda j: (-_agreement(blocker, rows[j], qrow), j))
    return sorted(ranked[:k])


def _index_state(blocker):
    n = len(blocker)
    return (blocker._rows[:n].tobytes(), blocker._sums[:n].tobytes(),
            blocker._buckets)


@pytest.mark.parametrize("factory", ANN_FACTORIES, ids=ANN_IDS)
class TestAnnQueryPath:
    def test_candidates_match_brute_force_with_repeated_uids(self, factory):
        table = _seeded_table(60, seed=4, vocab=30, tokens=6)
        # One uid indexed twice with different text, one twice verbatim.
        table += [_record("r3", table[5].text()), table[7]]
        # Exact ties: five more copies of one text; and records with no
        # shingles.
        table += [_record(f"dup{i}", table[11].text()) for i in range(5)]
        table += [_record("e0", ""), _record("e1", "")]
        blocker = factory().fit(table)
        queries = table + [_record("r3", table[3].text()),
                           _record("fresh", table[9].text()),
                           _record("empty", "")]
        for record in queries:
            # k = len(table) is at least every collided set.
            for k in (1, 2, 8, len(table)):
                assert blocker.candidates(record, k=k) \
                    == _brute_force_candidates(blocker, record, k)

    def _count_row_batches(self, monkeypatch, blocker):
        calls = []
        original = blocker._row_batch

        def counting(entities):
            calls.append(len(entities))
            return original(entities)

        monkeypatch.setattr(blocker, "_row_batch", counting)
        return calls

    def test_group_query_equals_sequential_queries_and_adds(self, factory):
        """``candidates_many`` answers each member as if the members
        before it were added, with repeated uids and exact ties inside a
        group, and emits ids ``len + j`` for earlier members."""
        table = _seeded_table(40, seed=4, vocab=30, tokens=6)
        stream = _seeded_table(30, seed=5, vocab=30, tokens=6)
        # Inside one group: a uid repeated with new text and verbatim,
        # copies of one text, and records with no shingles.
        stream[3:3] = [_record("r3", stream[1].text()), stream[2],
                       _record("dupa", stream[0].text()),
                       _record("dupb", stream[0].text()),
                       _record("e0", ""), _record("e1", "")]
        for k in (1, 2, 8, 80):
            grouped = factory().fit(table)
            sequential = factory().fit(table)
            for start, size in ((0, 1), (1, 9), (10, 2), (12, 24)):
                group = stream[start:start + size]
                expected = []
                for record in group:
                    expected.append(sequential.candidates(record, k=k))
                    sequential.add(record)
                assert grouped.candidates_many(group, k=k) == expected
                grouped.add_many(group)
            assert _index_state(grouped) == _index_state(sequential)
        assert factory().candidates_many([], k=3) == []
        with pytest.raises(ValueError):
            factory().candidates_many(stream[:2], k=0)

    def test_group_query_then_add_many_computes_signatures_once(
            self, factory, monkeypatch):
        table = _seeded_table(40, seed=2)
        blocker = factory().fit(table[:-5])
        calls = self._count_row_batches(monkeypatch, blocker)
        blocker.candidates_many(table[-5:], k=4)
        blocker.add_many(table[-5:])
        assert calls == [5]
        assert _index_state(blocker) == _index_state(factory().fit(table))

    def test_candidates_then_add_computes_signature_once(self, factory,
                                                         monkeypatch):
        table = _seeded_table(40, seed=2)
        blocker = factory().fit(table[:-1])
        calls = self._count_row_batches(monkeypatch, blocker)
        blocker.candidates(table[-1], k=4)
        blocker.add(table[-1])
        assert calls == [1]
        assert _index_state(blocker) == _index_state(factory().fit(table))

    def test_add_of_another_record_computes_its_own(self, factory,
                                                    monkeypatch):
        table = _seeded_table(40, seed=2)
        blocker = factory().fit(table[:-1])
        calls = self._count_row_batches(monkeypatch, blocker)
        blocker.candidates(table[0], k=4)
        blocker.add(table[-1])
        assert calls == [1, 1]
        assert _index_state(blocker) == _index_state(factory().fit(table))

    def test_weight_reload_between_query_and_add_recomputes(self, factory,
                                                            monkeypatch):
        table = _seeded_table(10, seed=2)
        blocker = factory().fit(table[:-1])
        calls = self._count_row_batches(monkeypatch, blocker)
        blocker.candidates(table[-1], k=4)
        bump_params_version()
        blocker.add(table[-1])
        assert calls == [1, 1]

    def test_restore_from_checkpoint_state_computes_no_signature(self, factory,
                                                         monkeypatch):
        table = _seeded_table(50, seed=8)
        live = factory().fit(table[:30])
        records, rows = live.checkpoint_state()
        restored = factory()
        calls = self._count_row_batches(monkeypatch, restored)
        restored.restore(records, rows)
        assert calls == []
        assert restored.index_params() == live.index_params()
        assert _index_state(restored) == _index_state(live)
        assert [r.uid for r in restored.records] == [r.uid for r in records]
        restored.add_many(table[30:])
        live.add_many(table[30:])
        assert _index_state(restored) == _index_state(live)
        for record in table[::7]:
            assert restored.candidates(record, k=5) \
                == live.candidates(record, k=5)
        with pytest.raises(ValueError, match="signature rows"):
            factory().restore(records, rows[:-1])


#: sha256 of the candidate lists below: any change to which candidates a
#: query returns changes it.
GOLDEN_CANDIDATES_SHA256 = \
    "3006eea00acf527817b6012c884abd753f0f3e7e2d3b2957326acef554180807"


def test_golden_candidate_digest_on_di2kg_cameras():
    """2k DI2KG camera records from 24 sources, streamed through MinHash
    as ``candidates(k=8)`` then ``add`` (the streaming resolver's order)."""
    sources = tuple(f"site{i:02d}" for i in range(24))
    tables, _ = generate_source_tables(di2kg_spec("camera"), 300, seed=7,
                                       sources=sources, overlap=0.3)
    pool = [record for source in sorted(tables) for record in tables[source]]
    order = np.random.default_rng(7).permutation(len(pool))[:2000]
    blocker = MinHashLSHBlocker(seed=0)
    digest, total = hashlib.sha256(), 0
    for record in (pool[i] for i in order):
        found = blocker.candidates(record, k=8)
        total += len(found)
        digest.update(repr(found).encode())
        blocker.add(record)
    assert total == 15380  # nearly every query fills its k = 8
    assert digest.hexdigest() == GOLDEN_CANDIDATES_SHA256


#: sha256 of the candidate lists each blocker returns over the released
#: bursts below, pinned on per-record ``candidates`` + ``add``.
GOLDEN_BURST_CANDIDATES = {
    "lsh": (15371,
            "b4e6e4a3ce0a6d9b1fa343f2cd902cb93ecaddf58ef9a2358d6f69df0dbf9a18"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BURST_CANDIDATES))
def test_golden_group_candidate_digest_on_released_bursts(name,
                                                          camera_bursts):
    """The resolve-stream schedule: 2k DI2KG camera records shuffled in
    blocks of 8, released in bursts by ``ReorderBuffer(32)``, each burst
    queried with one ``candidates_many(k=8)`` and indexed with one
    ``add_many`` (the streaming resolver's order)."""
    blocker = MinHashLSHBlocker(seed=0)
    digest, total = hashlib.sha256(), 0
    for burst in camera_bursts:
        for found in blocker.candidates_many(burst, k=8):
            total += len(found)
            digest.update(repr(found).encode())
        blocker.add_many(burst)
    assert (total, digest.hexdigest()) == GOLDEN_BURST_CANDIDATES[name]


# ======================================================================
# The blocking.index fault site (R004): detected, counted, recovered
# ======================================================================
class TestBlockingIndexFault:
    def test_corrupt_index_detected_counted_recovered(self):
        table = _seeded_table(80, seed=5)
        blocker = MinHashLSHBlocker(seed=5).fit(table)
        clean = [blocker.candidates(r, k=8) for r in table[:10]]
        COUNTERS.reset()
        plan = FaultPlan.single("blocking.index", "corrupt")
        with inject(plan):
            answered = [blocker.candidates(r, k=8) for r in table[:10]]
        assert plan.fired("blocking.index", "corrupt") == 1
        # Detection + recovery: the corrupted query still answers, and all
        # answers equal the clean run (rebuild restored the signatures).
        assert answered == clean
        assert COUNTERS.as_dict()["blocking_index_rebuilds"] == 1

    def test_corrupt_index_inside_a_group_rebuilds_once(self):
        table = _seeded_table(80, seed=5)
        group = [_record(f"q{i}", record.text())
                 for i, record in enumerate(table[:6])]
        blocker = MinHashLSHBlocker(seed=5).fit(table)
        clean = blocker.candidates_many(group, k=8)
        COUNTERS.reset()
        plan = FaultPlan.single("blocking.index", "corrupt")
        with inject(plan):
            assert blocker.candidates_many(group, k=8) == clean
        assert plan.fired("blocking.index", "corrupt") == 1
        assert COUNTERS.as_dict()["blocking_index_rebuilds"] == 1
        blocker.add_many(group)
        assert _index_state(blocker) \
            == _index_state(MinHashLSHBlocker(seed=5).fit(table + group))

    def test_rebuilt_index_accepts_further_adds(self):
        # The duplicate guarantees bucket collisions, so the corrupted
        # rows are actually read (detection lives on the read path).
        table = _seeded_table(40, seed=6)
        table.append(_record("r0-dup", table[0].text()))
        blocker = MinHashLSHBlocker(seed=6).fit(table)
        COUNTERS.reset()
        with inject(FaultPlan.single("blocking.index", "corrupt")):
            blocker.candidates(table[0], k=4)
        assert COUNTERS.as_dict()["blocking_index_rebuilds"] == 1
        extra = _record("late", table[1].text())
        blocker.add(extra)
        rebuilt = MinHashLSHBlocker(seed=6).fit(table + [extra])
        for record in (table[0], table[1], extra):
            assert blocker.candidates(record, k=8) \
                == rebuilt.candidates(record, k=8)


# ======================================================================
# Swap-point integration: pipeline and serving accept any Blocker
# ======================================================================
class _ConstMatcher(Matcher):
    name = "const"

    def __init__(self, value: float):
        self.value = value
        self.threshold = 0.5

    def fit(self, dataset):
        return self

    def scores(self, pairs):
        return np.full(len(pairs), self.value)


class TestPipelineSwapPoint:
    def _tables(self):
        table_a = _seeded_table(30, seed=12)
        table_b = [_record(r.uid + "-b", r.text()) for r in table_a]
        return table_a, table_b

    def test_pipeline_uses_blocker(self):
        table_a, table_b = self._tables()
        pipeline = ERPipeline(matcher=_ConstMatcher(0.9),
                              blocker=MinHashLSHBlocker(seed=12),
                              candidates_per_record=4)
        pipeline._fitted = True
        result = pipeline.resolve(table_a, table_b)
        assert 0 < result.num_candidates <= 4 * len(table_a)
        # Exact-copy tables: blocking must keep every diagonal pair.
        kept = {(i, j) for i, j in result.matches}
        assert all((i, i) in kept for i in range(len(table_a)))

    def test_pipeline_legacy_path_unchanged(self):
        from repro.blocking.keyword import overlap_blocker

        table_a, table_b = self._tables()
        legacy = ERPipeline(matcher=_ConstMatcher(0.9))
        legacy._fitted = True
        assert legacy.resolve(table_a, table_b).num_candidates \
            == len(overlap_blocker(table_a, table_b, min_shared_tokens=2))


class TestServingSwapPoint:
    def _service(self, blocker):
        cascade = DegradationCascade(tiers=[
            ScoringTier(name="full", level=1, matcher=_ConstMatcher(0.9)),
            ScoringTier(name="features", level=2, matcher=_ConstMatcher(0.7)),
            ScoringTier(name="tfidf", level=3, matcher=_ConstMatcher(0.3)),
        ])
        return InferenceService(cascade, ServingConfig(num_workers=2),
                                blocker=blocker)

    def test_online_block_then_score(self):
        table = _seeded_table(40, seed=13)
        blocker = MinHashLSHBlocker(seed=13).fit(table)
        with self._service(blocker) as svc:
            added = svc.index_record(_record("online", table[0].text()))
            assert added == len(table)
            candidates, pending = svc.submit_query(table[0], k=8)
            assert added in candidates  # the online add is queryable
            response = pending.result(timeout=10)
            assert response.status == "ok"
            assert len(response.scores) == len(candidates)
            stats = svc.stats()
            assert stats["blocking"]["indexed_records"] == len(table) + 1
            assert stats["blocking"]["queries"] == 1
            assert "blocking_index_rebuilds" in stats["recovery"]

    def test_no_candidates_returns_empty_without_submit(self):
        blocker = MinHashLSHBlocker(seed=13).fit(_seeded_table(10, seed=13))
        with self._service(blocker) as svc:
            candidates, pending = svc.submit_query(
                _record("nohit", "zz yy xx"), k=8)
            assert candidates == [] and pending is None
            assert svc.counters.snapshot()["submitted"] == 0

    def test_service_without_blocker_rejects_blocking_calls(self):
        with self._service(None) as svc:
            assert svc.stats()["blocking"] is None
            with pytest.raises(RuntimeError):
                svc.index_record(_record("a", "x"))
            with pytest.raises(RuntimeError):
                svc.submit_query(_record("a", "x"))
