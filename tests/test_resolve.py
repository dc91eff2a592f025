"""Streaming collective resolution: unit, property, fault, and soak tests.

Covers the ``repro.resolve`` package end to end:

* the bounded :class:`ReorderBuffer` release contract;
* WAL framing, atomic segment publication, torn-tail truncation repair,
  and the ``resolve.wal`` fault site (transient / kill / corrupt);
* the incremental :class:`ClusterStore` — merges, transitivity-conflict
  repair, retraction un-merge, provenance retention — and the
  ``resolve.merge`` fault site;
* union-find determinism properties: the partition is invariant under
  seeded permutations of edge arrival order (bitwise-equal digests);
* the :class:`StreamingResolver` conservation invariant
  ``clustered + pending + retracted == ingested`` under in-order,
  out-of-order, retraction-heavy, and fuzzed op sequences;
* crash resume: ``kill`` mid-stream, rebuild from the WAL, re-offer the
  stream, and the final cluster state is *bitwise identical* to the
  uninterrupted run — including a chaos soak that kills at many points;
* the shutdown checkpoint: ``close()`` saves the state and compacts the
  WAL, ``resume()`` loads it and decodes only the tail, a checkpointed
  resume continues exactly like an uninterrupted run, and the
  ``resolve.checkpoint`` / ``resolve.compact`` fault sites;
* streaming == offline batch clustering on multi-source generated data,
  plus sanity of the exact-match partition metrics against truth;
* the typed quarantine → retraction wiring (``RetractionEvent``,
  ``FirewallStats.retracted``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.blocking.ann import MinHashLSHBlocker
from repro.data.generators import generate_source_tables
from repro.data.magellan import MAGELLAN_DATASETS
from repro.data.schema import Entity, EntityPair
from repro.guard import DataFirewall, QuarantineStore, RetractionEvent
from repro.reliability import (
    COUNTERS,
    CorruptDataFault,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TrainingKilled,
    inject,
)
from repro.resolve import (
    ClusterStore,
    JaccardScorer,
    MatcherScorer,
    ReorderBuffer,
    ResolveConfig,
    ScoredEdge,
    StreamingResolver,
    WriteAheadLog,
    decode_entry,
    encode_entry,
    generate_stream_edges,
    greedy_partition,
    offline_partition,
    partition_metrics,
    partitions_equal,
    truth_partition,
)
from repro.resolve import stream as stream_module
from repro.resolve import wal as wal_module
from repro.resolve.stream import ServiceScorer
from repro.text.tokenizer import tokenize

FAST_RETRY = RetryPolicy(retries=3, base_delay=0.0, max_delay=0.0)


@pytest.fixture(autouse=True)
def fresh_counters():
    COUNTERS.reset()
    yield
    COUNTERS.reset()


def _entity(uid: str, text: str, source: str = "s") -> Entity:
    return Entity.from_dict(uid, {"name": text}, source=source)


def _group_stream(groups: int, views: int) -> List[Entity]:
    """Records where same-group views share identical text (Jaccard 1.0)."""
    records = []
    for g in range(groups):
        text = f"entity{g} alpha{g} beta{g} gamma{g}"
        for v in range(views):
            records.append(_entity(f"g{g}v{v}", text))
    return records


def _match(u: str, v: str, score: float = 0.9) -> ScoredEdge:
    return ScoredEdge(u=u, v=v, score=score, kind="match")


def _nonmatch(u: str, v: str, score: float = 0.01) -> ScoredEdge:
    return ScoredEdge(u=u, v=v, score=score, kind="nonmatch")


# ======================================================================
# JaccardScorer
# ======================================================================
def _overlapping_records(count: int) -> List[Entity]:
    words = [f"w{i}" for i in range(9)]
    return [_entity(f"r{i}", " ".join(words[i % 6:i % 6 + 3 + i % 4]))
            for i in range(count)]


def _jaccard_reference(pairs) -> np.ndarray:
    """Token Jaccard of each pair, every record tokenized afresh."""
    out = np.zeros(len(pairs), dtype=np.float64)
    for i, pair in enumerate(pairs):
        left = set(tokenize(pair.left.text()))
        right = set(tokenize(pair.right.text()))
        union = len(left | right)
        out[i] = len(left & right) / union if union else 0.0
    return out


class TestJaccardScorer:
    def _calls(self, records, scorer, monkeypatch, chunk=5):
        """Score every earlier/later pair of ``records`` in ``chunk``-pair
        calls, as a resolver's groups would; return (scores, tokenize
        calls)."""
        pairs = [EntityPair(b, a, 0) for i, a in enumerate(records)
                 for b in records[i + 1:]]
        expected = _jaccard_reference(pairs)
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(stream_module, "tokenize", counting)
        got = np.concatenate([scorer.scores(pairs[i:i + chunk])
                              for i in range(0, len(pairs), chunk)])
        assert np.array_equal(got, expected)
        return len(calls)

    def test_each_record_tokenized_once_scores_bitwise(self, monkeypatch):
        records = _overlapping_records(12)
        scorer = JaccardScorer()
        assert self._calls(records, scorer, monkeypatch) == len(records)

    def test_token_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(stream_module, "JACCARD_TOKEN_MEMO", 4)
        records = _overlapping_records(12)
        scorer = JaccardScorer()
        assert self._calls(records, scorer, monkeypatch) > len(records)
        assert len(scorer._tokens) == 4


# ======================================================================
# ScoredEdge
# ======================================================================
class TestScoredEdge:
    def test_key_is_canonical(self):
        assert _match("b", "a").key == ("a", "b") == _match("a", "b").key

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown edge kind"):
            ScoredEdge(u="a", v="b", score=0.5, kind="maybe")

    def test_dict_roundtrip_keeps_provenance(self):
        edge = ScoredEdge(u="a", v="b", score=0.75, kind="match",
                          tier="tier1", params_version="pv-7")
        assert ScoredEdge.from_dict(edge.to_dict()) == edge


# ======================================================================
# ReorderBuffer
# ======================================================================
class TestReorderBuffer:
    def test_in_order_releases_immediately(self):
        buffer = ReorderBuffer(capacity=4)
        for seq in range(3):
            out = buffer.offer(seq, _entity(f"r{seq}", "x"))
            assert [a.seq for a in out] == [seq]
        assert len(buffer) == 0 and buffer.next_seq == 3

    def test_gap_holds_then_releases_run(self):
        buffer = ReorderBuffer(capacity=8)
        assert buffer.offer(1, _entity("r1", "x")) == []
        assert buffer.offer(2, _entity("r2", "x")) == []
        released = buffer.offer(0, _entity("r0", "x"))
        assert [a.seq for a in released] == [0, 1, 2]

    def test_overfull_buffer_force_skips_gap(self):
        buffer = ReorderBuffer(capacity=2)
        assert buffer.offer(5, _entity("r5", "x")) == []
        assert buffer.offer(6, _entity("r6", "x")) == []
        # Third held record exceeds capacity: skip the 0..4 gap.
        released = buffer.offer(8, _entity("r8", "x"))
        assert [a.seq for a in released] == [5, 6]
        assert buffer.next_seq == 7

    def test_late_arrival_after_skip_releases_alone(self):
        buffer = ReorderBuffer(capacity=1)
        buffer.offer(3, _entity("r3", "x"))
        buffer.offer(4, _entity("r4", "x"))  # forces the skip past 0..2
        late = buffer.offer(0, _entity("r0", "x"))
        assert [a.seq for a in late] == [0]

    def test_drain_releases_in_seq_order(self):
        buffer = ReorderBuffer(capacity=8)
        for seq in (7, 3, 5):
            buffer.offer(seq, _entity(f"r{seq}", "x"))
        drained = buffer.drain()
        assert [a.seq for a in drained] == [3, 5, 7]
        assert len(buffer) == 0 and buffer.next_seq == 8

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ReorderBuffer(capacity=0)

    def test_release_order_is_function_of_arrival_order(self):
        rng = np.random.default_rng(7)
        seqs = list(rng.permutation(20))
        orders = []
        for _ in range(2):
            buffer = ReorderBuffer(capacity=4)
            order = []
            for seq in seqs:
                order.extend(a.seq for a in
                             buffer.offer(int(seq), _entity(f"r{seq}", "x")))
            order.extend(a.seq for a in buffer.drain())
            orders.append(order)
        assert orders[0] == orders[1]
        assert sorted(orders[0]) == list(range(20))


# ======================================================================
# WAL framing + file lifecycle
# ======================================================================
class TestWalFraming:
    def test_roundtrip(self):
        entry = {"type": "arrive", "seq": 3, "record": {"uid": "a"}}
        assert decode_entry(encode_entry(entry)) == entry

    @pytest.mark.parametrize("line", [
        "", "short", "deadbeef", "zzzzzzzz {}",
        encode_entry({"k": 1})[:-1],             # torn tail
        "00000000 {\"k\": 1}",                   # wrong crc
        encode_entry({"k": 1})[:8] + "X{}",      # frame byte wrong
    ])
    def test_damaged_lines_rejected(self, line):
        assert decode_entry(line) is None

    def test_non_dict_payload_rejected(self):
        import json
        import zlib
        payload = json.dumps([1, 2])
        crc = zlib.crc32(payload.encode()) & 0xFFFFFFFF
        assert decode_entry(f"{crc:08x} {payload}") is None


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_entries=4)
        entries = [{"type": "arrive", "seq": i} for i in range(10)]
        for entry in entries:
            wal.commit(entry)
        assert wal.replay() == entries
        assert wal.entry_count() == 10

    def test_segments_publish_atomically(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_entries=3)
        for i in range(7):
            wal.commit({"seq": i})
        assert len(wal.segments) == 2          # two full published segments
        assert all(p.endswith(".seg") for p in wal.segments)
        wal.close()                            # publishes the partial third
        assert len(wal.segments) == 3

    def test_reopen_adopts_directory_state(self, tmp_path):
        first = WriteAheadLog(str(tmp_path), segment_entries=3)
        for i in range(5):
            first.commit({"seq": i})
        second = WriteAheadLog(str(tmp_path), segment_entries=3)
        second.commit({"seq": 5})
        assert [e["seq"] for e in second.replay()] == list(range(6))

    def test_torn_tail_truncates_once_and_repairs(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_entries=100)
        for i in range(4):
            wal.commit({"seq": i})
        open_files = [n for n in os.listdir(tmp_path) if n.endswith(".open")]
        with open(tmp_path / open_files[0], "a", encoding="utf-8") as fh:
            fh.write(encode_entry({"seq": 4})[:10] + "\n")   # torn write
        reader = WriteAheadLog(str(tmp_path))
        assert [e["seq"] for e in reader.replay()] == [0, 1, 2, 3]
        assert COUNTERS.as_dict()["wal_truncations"] == 1
        # The repair is durable: a second replay is clean.
        assert [e["seq"] for e in reader.replay()] == [0, 1, 2, 3]
        assert COUNTERS.as_dict()["wal_truncations"] == 1

    def test_corrupt_published_segment_drops_later_files(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_entries=2)
        for i in range(6):
            wal.commit({"seq": i})
        first_segment = wal.segments[0]
        with open(first_segment, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(first_segment, "w", encoding="utf-8") as fh:
            fh.write(lines[0] + "\n")
            fh.write("garbage\n")
        assert [e["seq"] for e in wal.replay()] == [0]
        assert COUNTERS.as_dict()["wal_truncations"] == 1
        assert wal.entry_count() == 1

    def test_abandoned_log_closes_its_handle(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.commit({"seq": 0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del wal
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_stray_tmp_files_removed_on_scan(self, tmp_path):
        (tmp_path / "wal-00000000.seg.tmp.999").write_text("junk")
        WriteAheadLog(str(tmp_path))
        assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]

    def test_segment_entries_validated(self, tmp_path):
        with pytest.raises(ValueError, match="segment_entries"):
            WriteAheadLog(str(tmp_path), segment_entries=0)

    def test_numbering_continues_after_deleted_prefix(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_entries=2)
        for i in range(7):
            wal.commit({"seq": i})
        wal.close()
        for path in wal.segments[:2]:      # a compacted-away prefix
            os.remove(path)
        reopened = WriteAheadLog(str(tmp_path), segment_entries=2)
        reopened.commit({"seq": 7})
        reopened.close()
        names = sorted(os.listdir(tmp_path))
        assert names[-1] == "wal-00000004.seg"   # sorts after the tail
        assert [e["seq"] for e in reopened.replay()] == [4, 5, 6, 7]

    def test_close_drops_an_empty_active_file(self, tmp_path):
        (tmp_path / "wal-00000003.open").write_text("")
        wal = WriteAheadLog(str(tmp_path))
        assert wal.close() == 3
        assert os.listdir(tmp_path) == []
        wal.commit({"seq": 0})
        assert wal.close() == 4
        assert os.listdir(tmp_path) == ["wal-00000004.seg"]


# ======================================================================
# Fault site: resolve.wal
# ======================================================================
class TestResolveWalFaultSite:
    def test_transient_fault_is_absorbed_by_retry(self, tmp_path):
        plan = FaultPlan((FaultSpec(site="resolve.wal", kind="transient",
                                    at=(0,)),))
        wal = WriteAheadLog(str(tmp_path), retry_policy=FAST_RETRY)
        with inject(plan):
            wal.commit({"seq": 0})
        assert plan.fired("resolve.wal", "transient")
        assert COUNTERS.as_dict()["transient_retries"] >= 1
        assert [e["seq"] for e in wal.replay()] == [0]

    def test_kill_fault_loses_entry_before_any_bytes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), retry_policy=FAST_RETRY)
        wal.commit({"seq": 0})
        plan = FaultPlan((FaultSpec(site="resolve.wal", kind="kill",
                                    at=(0,)),))
        with inject(plan):
            with pytest.raises(TrainingKilled):
                wal.commit({"seq": 1})
        # The killed append left no partial bytes behind.
        assert [e["seq"] for e in wal.replay()] == [0]

    def test_corrupt_fault_exercises_reader_truncation(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), retry_policy=FAST_RETRY)
        wal.commit({"seq": 0})
        plan = FaultPlan((FaultSpec(site="resolve.wal", kind="corrupt",
                                    at=(0,)),))
        with inject(plan):
            wal.commit({"seq": 1})               # lands as a torn line
        assert [e["seq"] for e in wal.replay()] == [0]
        assert COUNTERS.as_dict()["wal_truncations"] == 1


class TestWalGroupCommit:
    """``commit_many`` writes the bytes of one ``commit`` per entry, with
    the ``resolve.wal`` fault point fired once per entry, in order."""

    ENTRIES = [{"seq": i} for i in range(5)]

    @pytest.mark.parametrize("kind, survivors", [
        (None, [0, 1, 2, 3, 4]),
        ("kill", [0, 1]),          # the entries before the kill
        ("corrupt", [0, 1]),       # entry 2 torn: replay truncates there
        ("transient", [0, 1, 2, 3, 4]),
    ])
    def test_group_commit_equals_one_commit_per_entry(self, tmp_path, kind,
                                                      survivors):
        def run(name: str, group: bool
                ) -> Tuple[FaultPlan, List[Tuple[str, bytes]]]:
            directory = str(tmp_path / name)
            # Two entries a segment: the group crosses two publications.
            wal = WriteAheadLog(directory, segment_entries=2,
                                retry_policy=FAST_RETRY)
            plan = FaultPlan(() if kind is None else (
                FaultSpec(site="resolve.wal", kind=kind, at=(2,)),))
            with inject(plan):
                try:
                    if group:
                        wal.commit_many(self.ENTRIES)
                    else:
                        for entry in self.ENTRIES:
                            wal.commit(entry)
                except TrainingKilled:
                    assert kind == "kill"
            return plan, [(path.name, path.read_bytes())
                          for path in sorted((tmp_path / name).iterdir())]

        plan, grouped = run("group", group=True)
        single_plan, single = run("single", group=False)
        assert grouped == single
        if kind is not None:
            assert plan.fired("resolve.wal", kind) == 1
            assert single_plan.fired("resolve.wal", kind) == 1
        replayed = WriteAheadLog(str(tmp_path / "group")).replay()
        assert [entry["seq"] for entry in replayed] == survivors
        assert COUNTERS.as_dict()["wal_truncations"] \
            == (1 if kind == "corrupt" else 0)

    def test_empty_group_writes_nothing(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.commit_many([])
        assert os.listdir(tmp_path) == []


# ======================================================================
# ClusterStore
# ======================================================================
class TestClusterStore:
    def _store(self) -> ClusterStore:
        store = ClusterStore(seed=0, retry_policy=FAST_RETRY)
        for uid in ("a", "b", "c", "d"):
            store.add_record(uid)
        return store

    def test_add_record_registers_singleton(self):
        store = self._store()
        assert "a" in store and len(store) == 4
        assert store.assign("a") == "a"
        assert store.add_record("a") is False

    def test_match_edges_merge_clusters(self):
        store = self._store()
        store.apply_edge(_match("a", "b"))
        store.apply_edge(_match("b", "c"))
        assert store.assign("a") == store.assign("c") == "a"
        assert ("a", "b", "c") in store.clusters()

    def test_edge_provenance_retained_per_merge(self):
        store = self._store()
        edge = ScoredEdge(u="a", v="b", score=0.88, kind="match",
                          tier="tier2", params_version="pv-3")
        store.apply_edge(edge)
        retained = {e.key: e for e in store.edges()}
        assert retained[("a", "b")].tier == "tier2"
        assert retained[("a", "b")].params_version == "pv-3"
        assert retained[("a", "b")].score == pytest.approx(0.88)

    def test_unregistered_endpoint_rejected(self):
        store = self._store()
        with pytest.raises(KeyError, match="not registered"):
            store.apply_edge(_match("a", "zz"))

    def test_conflict_repair_splits_weakest_link(self):
        store = self._store()
        store.apply_edge(_match("a", "b", score=0.9))
        store.apply_edge(_match("b", "c", score=0.6))
        assert store.assign("a") == store.assign("c")
        # Strong non-match inside the cluster: transitivity conflict.
        store.apply_edge(_nonmatch("a", "c"))
        assert COUNTERS.as_dict()["resolve_conflict_repairs"] == 1
        assert store.assign("a") == store.assign("b")    # strong edge kept
        assert store.assign("c") != store.assign("a")    # weak link cut

    def test_constraint_before_merge_prevents_colocation(self):
        store = self._store()
        store.apply_edge(_nonmatch("a", "c"))            # components differ
        assert COUNTERS.as_dict()["resolve_conflict_repairs"] == 0
        store.apply_edge(_match("a", "b", score=0.9))
        store.apply_edge(_match("b", "c", score=0.6))    # binds the constraint
        assert store.assign("a") != store.assign("c")
        assert store.stats()["constrained_components"] == 1

    def test_retract_unmerges_and_splits_component(self):
        store = self._store()
        store.apply_edge(_match("a", "b"))
        store.apply_edge(_match("b", "c"))
        assert store.retract("b") is True
        assert COUNTERS.as_dict()["records_retracted"] == 1
        assert store.assign("b") is None and "b" not in store
        # a and c were only connected through b: now separate clusters.
        assert store.assign("a") == "a" and store.assign("c") == "c"
        assert all("b" not in edge.key for edge in store.edges())
        assert store.retract("b") is False

    def test_retract_reapplies_constraints_per_component(self):
        store = self._store()
        store.apply_edge(_match("a", "b", score=0.9))
        store.apply_edge(_match("b", "c", score=0.6))
        store.apply_edge(_match("c", "d", score=0.8))
        store.apply_edge(_nonmatch("b", "d"))
        clusters_before = store.clusters()
        store.retract("a")
        # Remaining component b-c-d still carries the b–d constraint.
        assert store.assign("b") != store.assign("d")
        assert store.clusters() != clusters_before

    def test_digest_tracks_state(self):
        store = self._store()
        digest_empty = store.digest()
        store.apply_edge(_match("a", "b"))
        assert store.digest() != digest_empty
        twin = self._store()
        twin.apply_edge(_match("a", "b"))
        assert twin.digest() == store.digest()
        assert store.state_size() > 0

    def test_rescore_overwrites_edge_decision(self):
        store = self._store()
        store.apply_edge(_match("a", "b", score=0.7))
        store.apply_edge(_match("a", "b", score=0.95))
        retained = {e.key: e for e in store.edges()}
        assert retained[("a", "b")].score == pytest.approx(0.95)

    def test_checkpoint_state_restore_continues_identically(self):
        rng = np.random.default_rng(3)
        live = ClusterStore(seed=4, retry_policy=FAST_RETRY)
        for uid in (f"u{i:03d}" for i in range(30)):
            live.add_record(uid)
        for edge in _random_edges(rng, 30, 60):
            live.apply_edge(edge)
        live.retract("u007")
        assert live.stats()["constrained_components"] > 0
        saved = live.checkpoint_state()
        restored = ClusterStore(seed=4, retry_policy=FAST_RETRY)
        restored.restore(saved["partition"], saved["edges"])
        assert restored.digest() == live.digest()
        assert restored.stats() == live.stats()
        assert restored._constraints == live._constraints
        # Both continue from the same state: more edges and retractions.
        for store in (live, restored):
            store.add_record("u999")
            store.apply_edge(_match("u999", "u001", score=0.99))
            store.apply_edge(_nonmatch("u999", "u002"))
            store.retract("u011")
        assert restored.digest() == live.digest()
        assert restored._constraints == live._constraints
        with pytest.raises(ValueError, match="empty"):
            restored.restore(saved["partition"], saved["edges"])


# ======================================================================
# Fault site: resolve.merge
# ======================================================================
class TestResolveMergeFaultSite:
    def test_transient_fault_is_absorbed(self):
        store = ClusterStore(retry_policy=FAST_RETRY)
        store.add_record("a")
        store.add_record("b")
        plan = FaultPlan((FaultSpec(site="resolve.merge", kind="transient",
                                    at=(0,)),))
        with inject(plan):
            store.apply_edge(_match("a", "b"))
        assert plan.fired("resolve.merge", "transient")
        assert store.assign("a") == store.assign("b")

    def test_kill_fault_propagates(self):
        store = ClusterStore(retry_policy=FAST_RETRY)
        store.add_record("a")
        store.add_record("b")
        plan = FaultPlan((FaultSpec(site="resolve.merge", kind="kill",
                                    at=(0,)),))
        with inject(plan):
            with pytest.raises(TrainingKilled):
                store.apply_edge(_match("a", "b"))
        # The kill fired before any state mutation: still singletons.
        assert store.assign("a") == "a" and store.assign("b") == "b"

    def test_corrupt_fault_detected_and_recomputed(self):
        store = ClusterStore(retry_policy=FAST_RETRY)
        for uid in ("a", "b", "c"):
            store.add_record(uid)
        store.apply_edge(_match("a", "b"))
        plan = FaultPlan((FaultSpec(site="resolve.merge", kind="corrupt",
                                    at=(0,)),))
        with inject(plan):
            store.apply_edge(_match("b", "c"))
        assert COUNTERS.as_dict()["resolve_merge_recomputes"] == 1
        # The self-check recomputed the damaged component from its edges.
        assert store.assign("a") == store.assign("c") == "a"


# ======================================================================
# Determinism properties (union-find / greedy partition)
# ======================================================================
def _random_edges(rng: np.random.Generator, n_uids: int,
                  n_edges: int) -> List[ScoredEdge]:
    uids = [f"u{i:03d}" for i in range(n_uids)]
    edges: List[ScoredEdge] = []
    seen = set()
    while len(edges) < n_edges:
        i, j = rng.integers(0, n_uids, size=2)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        if rng.random() < 0.75:
            edges.append(_match(uids[i], uids[j],
                                score=round(float(rng.random()), 3)))
        else:
            edges.append(_nonmatch(uids[i], uids[j]))
    return edges


class TestPartitionDeterminism:
    def test_partition_invariant_under_edge_permutation(self):
        """Seeded shuffles of the arrival order give bitwise-equal digests."""
        for case_seed in range(5):
            rng = np.random.default_rng(1000 + case_seed)
            edges = _random_edges(rng, n_uids=24, n_edges=40)
            uids = sorted({uid for e in edges for uid in (e.u, e.v)})
            digests = set()
            for shuffle_seed in range(4):
                order = list(edges)
                np.random.default_rng(shuffle_seed).shuffle(order)
                store = ClusterStore(seed=0)
                for uid in uids:
                    store.add_record(uid)
                for edge in order:
                    store.apply_edge(edge)
                digests.add(store.digest())
            assert len(digests) == 1, f"case {case_seed} diverged"

    def test_streaming_matches_one_shot_batch(self):
        rng = np.random.default_rng(42)
        edges = _random_edges(rng, n_uids=20, n_edges=30)
        uids = sorted({uid for e in edges for uid in (e.u, e.v)})
        store = ClusterStore(seed=3)
        for uid in uids:
            store.add_record(uid)
        for edge in edges:
            store.apply_edge(edge)
        assert partitions_equal(store.clusters(),
                                offline_partition(uids, edges, seed=3))

    def test_greedy_partition_pure_and_constraint_respecting(self):
        members = {"a", "b", "c", "d"}
        scores = {("a", "b"): 0.9, ("b", "c"): 0.8, ("c", "d"): 0.7}
        constraints = {("a", "c")}
        assignment = greedy_partition(members, scores, constraints, seed=0)
        assert assignment == greedy_partition(members, scores, constraints,
                                              seed=0)
        assert assignment["a"] != assignment["c"]
        assert assignment["a"] == assignment["b"]

    def test_equal_scores_break_ties_by_seeded_hash(self):
        members = {"a", "b", "c"}
        scores = {("a", "b"): 0.5, ("b", "c"): 0.5}
        constraints = {("a", "c")}
        results = {seed: greedy_partition(members, scores, constraints, seed)
                   for seed in range(8)}
        # Same seed → same outcome; across seeds both resolutions appear.
        for seed, assignment in results.items():
            assert assignment == greedy_partition(members, scores,
                                                  constraints, seed)
        outcomes = {tuple(sorted(a.items())) for a in results.values()}
        assert len(outcomes) >= 1  # deterministic even when unanimously tied


# ======================================================================
# StreamingResolver
# ======================================================================
def _resolver(wal: Optional[WriteAheadLog] = None,
              quarantine=None, **config) -> StreamingResolver:
    cfg = ResolveConfig(**{"match_threshold": 0.5, "nonmatch_threshold": 0.05,
                           **config})
    return StreamingResolver(JaccardScorer(), config=cfg, wal=wal,
                             quarantine=quarantine)


def _assert_conserved(resolver: StreamingResolver) -> Dict[str, object]:
    stats = resolver.stats()
    assert stats["conserved"], stats
    return stats


class TestStreamingResolver:
    def test_stream_clusters_duplicate_views(self):
        resolver = _resolver()
        for record in _group_stream(groups=3, views=3):
            assert resolver.offer(record)
        resolver.close()
        stats = _assert_conserved(resolver)
        assert stats["ingested"] == 9 and stats["clustered"] == 9
        clusters = resolver.store.clusters()
        assert ("g0v0", "g0v1", "g0v2") in clusters
        assert len(clusters) == 3

    def test_duplicate_uid_rejected(self):
        resolver = _resolver()
        record = _entity("dup", "alpha beta")
        assert resolver.offer(record) is True
        assert resolver.offer(record) is False
        _assert_conserved(resolver)
        assert resolver.stats()["ingested"] == 1

    def test_out_of_order_arrival_conserves_and_matches_in_order(self):
        records = _group_stream(groups=3, views=3)
        in_order = _resolver(reorder_capacity=4)
        for seq, record in enumerate(records):
            in_order.offer(record, seq=seq)
        in_order.close()

        shuffled = _resolver(reorder_capacity=4)
        order = list(enumerate(records))
        np.random.default_rng(11).shuffle(order)
        for seq, record in order:
            shuffled.offer(record, seq=seq)
        shuffled.close()

        _assert_conserved(shuffled)
        assert partitions_equal(shuffled.store.clusters(),
                                in_order.store.clusters())

    def test_retract_resolved_record_unmerges(self):
        resolver = _resolver()
        for record in _group_stream(groups=1, views=3):
            resolver.offer(record)
        resolver.close()
        assert resolver.retract("g0v1", reason="bad-source") is True
        stats = _assert_conserved(resolver)
        assert stats["retracted"] == 1 and stats["clustered"] == 2
        assert resolver.store.assign("g0v1") is None
        assert resolver.store.assign("g0v0") == resolver.store.assign("g0v2")
        assert resolver.retract("g0v1") is False
        assert resolver.retract("never-seen") is False

    def test_retract_pending_record_never_clusters(self):
        resolver = _resolver(reorder_capacity=64)
        resolver.offer(_entity("p1", "alpha beta"), seq=5)  # held behind gap
        assert resolver.retract("p1") is True
        stats = _assert_conserved(resolver)
        assert stats["retracted"] == 1 and stats["pending"] == 0
        resolver.close()
        assert resolver.store.assign("p1") is None
        _assert_conserved(resolver)

    def test_stats_snapshot_fields(self):
        resolver = _resolver()
        stats = resolver.stats()
        assert set(stats) == {"ingested", "pending", "clustered", "retracted",
                              "buffered", "queued", "conserved"}

    def test_matcher_scorer_adapter(self):
        class _Stub:
            name = "stub-matcher"

            def scores(self, pairs):
                return np.ones(len(pairs)) * 0.9

        scorer = MatcherScorer(_Stub(), params_version="pv-1")
        resolver = StreamingResolver(scorer)
        for record in _group_stream(groups=1, views=2):
            resolver.offer(record)
        resolver.close()
        edges = resolver.store.edges()
        assert edges and all(e.tier == "stub-matcher" for e in edges)
        assert all(e.params_version == "pv-1" for e in edges)

    def test_service_scorer_raises_on_failed_response(self):
        class _Response:
            status = "error"
            scores = None
            error = "boom"
            request_id = "r1"

        class _Future:
            def result(self, timeout=None):
                return _Response()

        class _Service:
            def submit(self, pairs):
                return _Future()

        with pytest.raises(RuntimeError, match="boom"):
            ServiceScorer(_Service()).scores([])

    def test_fuzzed_op_sequence_conserves(self):
        """500 seeded offer/retract/drain ops: conservation after each."""
        rng = np.random.default_rng(20260808)
        resolver = _resolver(reorder_capacity=8)
        texts = [f"entity{g} alpha{g} beta{g}" for g in range(10)]
        offered: List[str] = []
        next_uid = 0
        for step in range(500):
            op = rng.random()
            if op < 0.70 or not offered:
                uid = f"f{next_uid}"
                next_uid += 1
                text = texts[int(rng.integers(0, len(texts)))]
                # Out-of-order: jitter the sequence number.
                seq = resolver._auto_seq + int(rng.integers(0, 4))
                resolver.offer(_entity(uid, text), seq=seq)
                offered.append(uid)
            elif op < 0.95:
                resolver.retract(offered[int(rng.integers(0, len(offered)))])
            else:
                resolver.drain()
            if step % 50 == 0:
                _assert_conserved(resolver)
        resolver.close()
        stats = _assert_conserved(resolver)
        assert stats["ingested"] == next_uid


# ======================================================================
# Quarantine → typed retraction wiring (guard integration)
# ======================================================================
class TestQuarantineRetraction:
    def test_emit_retraction_reaches_subscribers(self):
        store = QuarantineStore()
        received: List[RetractionEvent] = []
        store.subscribe(received.append)
        event = RetractionEvent(uid="q1", source="s", row=3,
                                reason="bad_type", detail="int name")
        store.emit_retraction(event)
        assert received == [event]

    def test_firewall_replay_emits_and_counts_retractions(self):
        firewall = DataFirewall()
        received: List[RetractionEvent] = []
        firewall.store.subscribe(received.append)
        # Over-wide values stay invalid across a replay (stringifying a
        # quarantined payload can heal a type error, not an oversize one).
        assert firewall.admit("bad1", {"name": "x" * 9000}) is None
        accepted, still_held = firewall.replay()             # still invalid
        assert accepted == [] and still_held == 1
        assert [e.uid for e in received] == ["bad1"]
        assert received[0].reason
        snapshot = firewall.stats.snapshot()
        assert snapshot["retracted"] == 1
        assert firewall.stats.conserved

    def test_resolver_unmerges_on_quarantine_retraction(self):
        quarantine = QuarantineStore()
        resolver = _resolver(quarantine=quarantine)
        for record in _group_stream(groups=1, views=3):
            resolver.offer(record)
        resolver.close()
        quarantine.emit_retraction(RetractionEvent(
            uid="g0v2", source="s", row=0, reason="confirmed-bad"))
        stats = _assert_conserved(resolver)
        assert stats["retracted"] == 1
        assert resolver.store.assign("g0v2") is None


# ======================================================================
# Streaming == offline batch on multi-source generated data
# ======================================================================
class TestStreamingEqualsOffline:
    def _sample(self, entities: int = 40, seed: int = 9):
        spec = MAGELLAN_DATASETS["Amazon-Google"].spec
        tables, truth = generate_source_tables(
            spec, entities, seed=seed, sources=("s0", "s1", "s2"),
            overlap=0.7)
        records = [r for source in sorted(tables) for r in tables[source]]
        truth_pairs = [(anchor, uid) for anchor, views in truth.items()
                       for _, uid in views]
        return records, truth_pairs

    def _assert_equals_offline(self, records: List[Entity], seed: int,
                               wal: Optional[WriteAheadLog] = None) -> None:
        config = ResolveConfig(match_threshold=0.35, nonmatch_threshold=0.05,
                               seed=seed)
        resolver = StreamingResolver(JaccardScorer(), config=config, wal=wal)
        for record in records:
            resolver.offer(record)
        resolver.close()
        _assert_conserved(resolver)

        edges = generate_stream_edges(
            records, JaccardScorer(),
            MinHashLSHBlocker(seed=config.seed).fit([]), config)
        offline = offline_partition([r.uid for r in records], edges,
                                    seed=config.seed)
        assert partitions_equal(resolver.store.clusters(), offline)

    def test_streaming_partition_equals_offline_batch(self):
        records, _ = self._sample()
        self._assert_equals_offline(records, seed=9)

    def test_kill_drill_stream_equals_offline_batch(self, tmp_path):
        """The 450-record stream of ``TestKillDrill``, through a WAL."""
        records, _ = self._sample(185, seed=0)
        assert len(records) == 450
        self._assert_equals_offline(records, seed=0,
                                    wal=WriteAheadLog(str(tmp_path)))

    def test_partition_metrics_against_truth_are_sane(self):
        records, truth_pairs = self._sample()
        config = ResolveConfig(match_threshold=0.35, nonmatch_threshold=0.05,
                               seed=9)
        resolver = StreamingResolver(JaccardScorer(), config=config)
        for record in records:
            resolver.offer(record)
        resolver.close()
        truth = truth_partition([r.uid for r in records], truth_pairs)
        metrics = partition_metrics(resolver.store.clusters(), truth)
        assert 0.0 < metrics["pairwise_f1"] <= 1.0
        assert 0.0 <= metrics["exact_cluster_match_rate"] <= 1.0
        assert metrics["predicted_clusters"] > 1

    def test_metrics_perfect_on_identical_partitions(self):
        partition = (("a", "b"), ("c",))
        metrics = partition_metrics(partition, partition)
        assert metrics["pairwise_f1"] == 1.0
        assert metrics["exact_cluster_match_rate"] == 1.0


# ======================================================================
# Crash resume: kill mid-stream, bitwise-identical recovery
# ======================================================================
def _run_stream(records: List[Entity], wal: Optional[WriteAheadLog],
                kill_plan: Optional[FaultPlan] = None,
                arrivals: Optional[List[Tuple[int, Entity]]] = None
                ) -> Tuple[StreamingResolver, Optional[int]]:
    """Offer all records (in ``arrivals`` order if given, else in seq
    order); returns (resolver, seq of the offer a kill landed in)."""
    if arrivals is None:
        arrivals = list(enumerate(records))
    resolver = StreamingResolver(
        JaccardScorer(), config=ResolveConfig(seed=1), wal=wal)
    if kill_plan is None:
        for seq, record in arrivals:
            resolver.offer(record, seq=seq)
        resolver.close()
        return resolver, None
    with inject(kill_plan):
        for seq, record in arrivals:
            try:
                resolver.offer(record, seq=seq)
            except TrainingKilled:
                return resolver, seq
    resolver.close()
    return resolver, None


def _shuffled(records: List[Entity], block: int = 3,
              seed: int = 3) -> List[Tuple[int, Entity]]:
    """``(seq, record)`` arrivals shuffled within blocks of ``block``: the
    reorder buffer releases them in seq order, in bursts."""
    rng = np.random.default_rng(seed)
    arrivals: List[Tuple[int, Entity]] = []
    for start in range(0, len(records), block):
        indices = np.arange(start, min(start + block, len(records)))
        rng.shuffle(indices)
        arrivals.extend((int(i), records[int(i)]) for i in indices)
    return arrivals


class _SpyWal(WriteAheadLog):
    """A log that keeps the entries of each commit and of the one a
    kill interrupted."""

    def __init__(self, directory: str, **kwargs):
        super().__init__(directory, **kwargs)
        self.commits: List[List[Dict[str, object]]] = []
        self.killed: Optional[List[Dict[str, object]]] = None

    def commit_many(self, entries) -> None:
        entries = list(entries)
        self.commits.append(entries)
        try:
            super().commit_many(entries)
        except TrainingKilled:
            self.killed = entries
            raise


def _index_state(blocker) -> Tuple[List[str], bytes, bytes, Dict]:
    n = len(blocker)
    return ([r.uid for r in blocker.records], blocker._rows[:n].tobytes(),
            blocker._sums[:n].tobytes(), blocker._buckets)


class TestCrashResume:
    def test_resume_after_kill_is_bitwise_identical(self, tmp_path):
        records = _group_stream(groups=4, views=3)

        baseline, _ = _run_stream(
            records, WriteAheadLog(str(tmp_path / "clean")))
        expected = baseline.store.digest()

        # Kill the WAL append mid-stream (arrive + resolve entries share
        # the site counter, so invocation 9 lands mid-resolution work).
        wal_dir = str(tmp_path / "killed")
        plan = FaultPlan((FaultSpec(site="resolve.wal", kind="kill",
                                    at=(9,)),))
        crashed, killed_at = _run_stream(
            records, WriteAheadLog(wal_dir, retry_policy=FAST_RETRY),
            kill_plan=plan)
        assert killed_at is not None and killed_at < len(records)

        # Recover: replay the WAL, then re-offer the whole stream (the
        # already-ingested prefix is rejected as duplicates).
        resumed = StreamingResolver.resume(
            JaccardScorer(), WriteAheadLog(wal_dir),
            config=ResolveConfig(seed=1))
        _assert_conserved(resumed)
        for seq, record in enumerate(records):
            resumed.offer(record, seq=seq)
        resumed.close()
        stats = _assert_conserved(resumed)
        assert stats["ingested"] == len(records)
        assert resumed.store.digest() == expected          # bitwise
        assert partitions_equal(resumed.store.clusters(),
                                baseline.store.clusters())

    def test_resume_replays_retractions(self, tmp_path):
        records = _group_stream(groups=2, views=3)
        wal_dir = str(tmp_path / "wal")
        resolver, _ = _run_stream(records, WriteAheadLog(wal_dir))
        resolver.retract("g0v1", reason="late-quarantine")
        resolver.close()
        expected = resolver.store.digest()

        resumed = StreamingResolver.resume(
            JaccardScorer(), WriteAheadLog(wal_dir),
            config=ResolveConfig(seed=1))
        stats = _assert_conserved(resumed)
        assert stats["retracted"] == 1
        assert resumed.store.assign("g0v1") is None
        assert resumed.store.digest() == expected

    def test_resume_of_clean_log_is_identity(self, tmp_path):
        records = _group_stream(groups=2, views=2)
        wal_dir = str(tmp_path / "wal")
        resolver, _ = _run_stream(records, WriteAheadLog(wal_dir))
        resumed = StreamingResolver.resume(
            JaccardScorer(), WriteAheadLog(wal_dir),
            config=ResolveConfig(seed=1))
        assert resumed.store.digest() == resolver.store.digest()
        stats = _assert_conserved(resumed)
        assert stats["ingested"] == len(records)

    @pytest.mark.parametrize("kill_at", [None, 9])
    def test_resumed_blocker_equals_live_index(self, tmp_path, kill_at):
        """The batched replay index equals the live run's, and records
        left released-but-unresolved by a kill are re-scored against it."""
        records = _group_stream(groups=4, views=3)
        live, _ = _run_stream(records, WriteAheadLog(str(tmp_path / "live")))
        plan = None if kill_at is None else FaultPlan((FaultSpec(
            site="resolve.wal", kind="kill", at=(kill_at,)),))
        wal_dir = str(tmp_path / "wal")
        crashed, killed_at = _run_stream(
            records, WriteAheadLog(wal_dir, retry_policy=FAST_RETRY),
            kill_plan=plan)
        assert (killed_at is None) == (kill_at is None)
        resumed = StreamingResolver.resume(
            JaccardScorer(), WriteAheadLog(wal_dir),
            config=ResolveConfig(seed=1))
        if kill_at is None:
            assert _index_state(resumed.blocker) == _index_state(live.blocker)
        else:
            # The resolution the kill interrupted was re-scored and added.
            assert len(resumed.blocker) > len(crashed.blocker)
        n = len(resumed.blocker)
        assert [r.uid for r in resumed.blocker.records] \
            == [r.uid for r in live.blocker.records[:n]]
        assert resumed.blocker._rows[:n].tobytes() \
            == live.blocker._rows[:n].tobytes()
        for seq, record in enumerate(records):
            resumed.offer(record, seq=seq)
        resumed.close()
        assert _index_state(resumed.blocker) == _index_state(live.blocker)
        assert resumed.store.digest() == live.store.digest()

    def test_chaos_soak_kill_everywhere_conserves_and_converges(self,
                                                                tmp_path):
        """Kill the WAL at every invocation point of a stream released in
        bursts; each crash resumes to the uninterrupted digest with
        conservation intact throughout, including kills that land inside
        a multi-record group commit."""
        records = _group_stream(groups=3, views=3)
        arrivals = _shuffled(records)
        baseline, _ = _run_stream(
            records, WriteAheadLog(str(tmp_path / "clean")))
        expected = baseline.store.digest()

        inside_groups = []
        for kill_at in range(1, 2 * len(records)):
            wal_dir = str(tmp_path / f"soak-{kill_at}")
            plan = FaultPlan((FaultSpec(site="resolve.wal", kind="kill",
                                        at=(kill_at,)),))
            wal = _SpyWal(wal_dir, retry_policy=FAST_RETRY)
            _, killed_at = _run_stream(records, wal, kill_plan=plan,
                                       arrivals=arrivals)
            assert killed_at is not None, f"kill@{kill_at}"
            group = {entry["uid"] for entry in wal.killed
                     if entry["type"] == "resolve"}
            durable = [entry for entry in WriteAheadLog(wal_dir).replay()
                       if entry.get("uid") in group]
            if len(group) >= 2:
                inside_groups.append(len(durable))
            resumed = StreamingResolver.resume(
                JaccardScorer(), WriteAheadLog(wal_dir),
                config=ResolveConfig(seed=1))
            _assert_conserved(resumed)
            for seq, record in arrivals:
                resumed.offer(record, seq=seq)
            resumed.close()
            stats = _assert_conserved(resumed)
            assert stats["ingested"] == len(records), f"kill@{kill_at}"
            assert resumed.store.digest() == expected, f"kill@{kill_at}"
        # Some kills hit a group's first entry, some leave part of the
        # group durable.
        assert 0 in inside_groups
        assert any(inside_groups)

        # Kills inside the shutdown checkpoint and the compaction behind
        # it: a first close checkpoints half the stream, the second close
        # dies.
        half = len(records) // 2
        for site, at in (("resolve.checkpoint", 0), ("resolve.compact", 0),
                         ("resolve.compact", 1)):
            wal_dir = str(tmp_path / f"soak-{site}-{at}")
            resolver = _checkpointed(wal_dir, records[:half])
            for seq, record in enumerate(records[half:], start=half):
                resolver.offer(record, seq=seq)
            plan = FaultPlan((FaultSpec(site=site, kind="kill", at=(at,)),))
            with inject(plan), pytest.raises(TrainingKilled):
                resolver.close()
            resumed = _resume(wal_dir)
            _assert_conserved(resumed)
            assert resumed.store.digest() == expected, f"{site}@{at}"
            for seq, record in enumerate(records):
                resumed.offer(record, seq=seq)
            resumed.close()
            stats = _assert_conserved(resumed)
            assert stats["ingested"] == len(records), f"{site}@{at}"
            assert resumed.store.digest() == expected, f"{site}@{at}"


# ======================================================================
# The kill drill: a SIGKILLed `repro resolve` process resumes bitwise
# ======================================================================
REPO_ROOT = Path(__file__).resolve().parent.parent


def _resolve_cli(wal_dir: str, *extra: str) -> subprocess.CompletedProcess:
    """``repro resolve --fast`` over the 450-record, 3-source stream."""
    return subprocess.run(
        [sys.executable, "-m", "repro", "resolve", "--wal", wal_dir,
         "--records", "185", "--seed", "0", "--json", "--fast", *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": os.environ.get("PATH", "/usr/bin:/bin")})


class TestKillDrill:
    """``--kill-after`` SIGKILLs the process mid-stream; ``--resume`` must
    end at the digest of an uninterrupted control run."""

    def test_sigkilled_cli_resumes_to_the_control_digest(self, tmp_path):
        control = _resolve_cli(str(tmp_path / "control"))
        assert control.returncode == 0, control.stderr
        expected = json.loads(control.stdout)["digest"]
        crash_dir = str(tmp_path / "crash")
        killed = _resolve_cli(crash_dir, "--kill-after", "225")
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        resumed = _resolve_cli(crash_dir, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        report = json.loads(resumed.stdout)
        assert report["recovered"] == 225
        assert report["stats"]["conserved"]
        assert report["digest"] == expected


# ======================================================================
# Shutdown checkpoint: close() saves the state, resume() loads it and
# replays only the WAL written after it
# ======================================================================
def _wal(wal_dir: str) -> WriteAheadLog:
    return WriteAheadLog(wal_dir, segment_entries=4, retry_policy=FAST_RETRY)


def _checkpointed(wal_dir: str, records: List[Entity],
                  start: int = 0) -> StreamingResolver:
    """A resolver that offered ``records`` in order and closed once."""
    resolver = StreamingResolver(
        JaccardScorer(), config=ResolveConfig(seed=1), wal=_wal(wal_dir))
    for seq, record in enumerate(records, start=start):
        resolver.offer(record, seq=seq)
    resolver.close()
    return resolver


def _resume(wal_dir: str, **kwargs) -> StreamingResolver:
    kwargs.setdefault("config", ResolveConfig(seed=1))
    return StreamingResolver.resume(JaccardScorer(), _wal(wal_dir), **kwargs)


def _counting(monkeypatch, name: str) -> List[int]:
    """Count calls of ``repro.resolve.wal.<name>`` (encode/decode_entry)."""
    calls = [0]
    real = getattr(wal_module, name)

    def counted(arg):
        calls[0] += 1
        return real(arg)

    monkeypatch.setattr(wal_module, name, counted)
    return calls


def _watermark(wal_dir: str) -> int:
    return int(_wal(wal_dir).read_checkpoint()["meta"]["watermark"])


def _segment_files(wal_dir: str) -> List[str]:
    return sorted(name for name in os.listdir(wal_dir)
                  if name.startswith("wal-"))


def _assert_same_state(left: StreamingResolver,
                       right: StreamingResolver) -> None:
    assert left.store.digest() == right.store.digest()
    assert _index_state(left.blocker) == _index_state(right.blocker)
    assert left.stats() == right.stats()
    assert left.store.stats() == right.store.stats()
    assert left.store._constraints == right.store._constraints


class TestShutdownCheckpoint:
    @pytest.mark.parametrize("groups", [4, 8])
    def test_resume_after_clean_close_decodes_no_wal_entry(
            self, tmp_path, monkeypatch, groups):
        """close() checkpoints and compacts the whole log, so recovery
        does not grow with the history: the same zero entries decoded for
        a stream twice as long."""
        records = _group_stream(groups=groups, views=3)
        wal_dir = str(tmp_path / "wal")
        live = _checkpointed(wal_dir, records)
        assert _segment_files(wal_dir) == [] and live.wal.segments == ()
        assert wal_module.CHECKPOINT_NAME in os.listdir(wal_dir)
        decoded = _counting(monkeypatch, "decode_entry")
        resumed = _resume(wal_dir)
        assert decoded[0] == 0
        _assert_same_state(resumed, live)

    def test_resume_after_a_crash_decodes_only_the_tail(
            self, tmp_path, monkeypatch):
        records = _group_stream(groups=6, views=3)
        wal_dir = str(tmp_path / "wal")
        live = _checkpointed(wal_dir, records[:9])
        encoded = _counting(monkeypatch, "encode_entry")
        for seq, record in enumerate(records[9:], start=9):
            live.offer(record, seq=seq)
        # Crash: the resolver is abandoned without close().
        assert encoded[0] == 2 * len(records[9:])   # arrive + resolve
        decoded = _counting(monkeypatch, "decode_entry")
        resumed = _resume(wal_dir)
        assert decoded[0] == encoded[0]
        _assert_same_state(resumed, live)

    def test_torn_tail_after_checkpoint_numbers_above_watermark(
            self, tmp_path):
        records = _group_stream(groups=4, views=3)
        expected = _run_stream(
            records, WriteAheadLog(str(tmp_path / "clean")))[0].store.digest()
        wal_dir = str(tmp_path / "wal")
        crashed = _checkpointed(wal_dir, records[:6])
        watermark = _watermark(wal_dir)
        with inject(FaultPlan((FaultSpec(site="resolve.wal", kind="corrupt",
                                         at=(0,)),))):
            crashed.offer(records[6], seq=6)     # lands as a torn line
        # The repair deletes the whole tail file; the next segment must
        # still be numbered above the checkpoint's watermark.
        resumed = _resume(wal_dir)
        assert COUNTERS.as_dict()["wal_truncations"] == 1
        for seq, record in enumerate(records[6:], start=6):
            resumed.offer(record, seq=seq)
        assert min(map(wal_module._segment_index,
                       _segment_files(wal_dir))) > watermark
        again = _resume(wal_dir)                 # crash, no close
        assert again.store.digest() == expected
        _assert_conserved(again)

    def test_continuation_after_resume_matches_uninterrupted_run(
            self, tmp_path):
        spec = MAGELLAN_DATASETS["Amazon-Google"].spec
        tables, _ = generate_source_tables(
            spec, 30, seed=9, sources=("s0", "s1", "s2"), overlap=0.7)
        records = [r for source in sorted(tables) for r in tables[source]]
        config = ResolveConfig(match_threshold=0.35, nonmatch_threshold=0.05,
                               reorder_capacity=6, seed=9)
        half = len(records) // 2
        # The first half leaves every fifth seq unoffered, so the close
        # skips past those gaps; the second half offers them late, behind
        # the saved reorder cursor, interleaved with out-of-order seqs.
        first = [(seq, records[seq]) for seq in range(half) if seq % 5]
        late = [(seq, records[seq]) for seq in range(half) if not seq % 5]
        rng = np.random.default_rng(2)
        rest = [(int(seq), records[seq])
                for seq in rng.permutation(np.arange(half, len(records)))]
        second = [item for pair in zip(rest, late) for item in pair] \
            + rest[len(late):]
        held = [record.uid for _, record in first[::4]]

        def phase_one(resolver: StreamingResolver) -> None:
            for seq, record in first:
                resolver.offer(record, seq=seq)
            resolver.close()

        def phase_two(resolver: StreamingResolver) -> None:
            for seq, record in second:
                resolver.offer(record, seq=seq)
            for uid in held:                  # records the checkpoint holds
                assert resolver.retract(uid, reason="late-quarantine")
            assert resolver.offer(_entity("extra", "no seq given"))
            # The CLI's re-offer of the whole stream: all duplicates.
            assert not any(resolver.offer(record, seq=seq)
                           for seq, record in enumerate(records))
            resolver.close()

        def fresh(name: str) -> StreamingResolver:
            return StreamingResolver(JaccardScorer(), config=config,
                                     wal=_wal(str(tmp_path / name)))

        uninterrupted = fresh("live")
        phase_one(uninterrupted)
        phase_one(fresh("ckpt"))
        resumed = StreamingResolver.resume(
            JaccardScorer(), _wal(str(tmp_path / "ckpt")), config=config)
        assert resumed.stats() == uninterrupted.stats()
        phase_two(uninterrupted)
        phase_two(resumed)
        _assert_same_state(resumed, uninterrupted)
        assert resumed.stats()["retracted"] == len(held)
        # ...and the second checkpoint resumes to the same state again.
        again = StreamingResolver.resume(
            JaccardScorer(), _wal(str(tmp_path / "ckpt")), config=config)
        _assert_same_state(again, uninterrupted)

    def test_close_racing_a_retraction_skips_the_checkpoint(self, tmp_path):
        records = _group_stream(groups=3, views=2)
        wal_dir = str(tmp_path / "wal")
        resolver = StreamingResolver(
            JaccardScorer(), config=ResolveConfig(seed=1), wal=_wal(wal_dir))
        for seq, record in enumerate(records):
            resolver.offer(record, seq=seq)
        store_retract = resolver.store.retract

        def retract_during_close(uid: str) -> bool:
            # The retraction has logged its entry but not yet reached the
            # store: a checkpoint now would save a half-applied state.
            resolver.close()
            return store_retract(uid)

        resolver.store.retract = retract_during_close
        resolver.retract("g1v0")
        assert wal_module.CHECKPOINT_NAME not in os.listdir(wal_dir)
        resumed = _resume(wal_dir)               # full replay
        assert resumed.store.digest() == resolver.store.digest()
        assert resumed.stats() == resolver.stats()

    def test_closes_racing_retraction_threads_stay_consistent(self,
                                                              tmp_path):
        """Retraction threads run while the stream thread closes (and so
        checkpoints) again and again; every resume from what is on disk
        equals the live state."""
        records = _group_stream(groups=12, views=3)
        wal_dir = str(tmp_path / "wal")
        resolver = StreamingResolver(
            JaccardScorer(), config=ResolveConfig(seed=1), wal=_wal(wal_dir))
        for seq, record in enumerate(records):
            resolver.offer(record, seq=seq)
        victims = [record.uid for record in records[::2]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(
                target=lambda uids=victims[i::4]: [resolver.retract(uid)
                                                   for uid in uids])
                for i in range(4)]
            for worker in workers:
                worker.start()
            for _ in range(20):
                resolver.close()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert resolver.stats()["retracted"] == len(victims)
        resolver.close()
        _assert_same_state(_resume(wal_dir), resolver)

    def test_resolver_rejects_a_non_banded_blocker(self, tmp_path):
        """Group queries and checkpoints need a banded ANN index."""
        from repro.blocking.keyword import OverlapBlocker

        with pytest.raises(TypeError, match="banded ANN index.*Overlap"):
            StreamingResolver(JaccardScorer(),
                              blocker=OverlapBlocker().fit([]))
        wal_dir = str(tmp_path / "wal")
        _checkpointed(wal_dir, _group_stream(groups=2, views=2))
        with pytest.raises(TypeError, match="OverlapBlocker"):
            _resume(wal_dir, blocker=OverlapBlocker().fit([]))

    def test_resume_rejects_a_mismatched_binding(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        _checkpointed(wal_dir, _group_stream(groups=2, views=2))
        with pytest.raises(ValueError, match="seed=1.*seed=2"):
            _resume(wal_dir, config=ResolveConfig(seed=2))
        with pytest.raises(ValueError, match="blocker.bands=16.*bands=8"):
            _resume(wal_dir, blocker=MinHashLSHBlocker(seed=1, bands=8))
        with pytest.raises(ValueError, match="store_seed"):
            _resume(wal_dir, store=ClusterStore(seed=5))
        filled = MinHashLSHBlocker(seed=1).fit([_entity("x", "text")])
        with pytest.raises(ValueError, match="empty"):
            _resume(wal_dir, blocker=filled)


class _FlakyScorer(JaccardScorer):
    """Raises on its ``fail_on``-th ``scores`` call (after running
    ``during``), then scores like :class:`JaccardScorer`."""

    def __init__(self, fail_on: int = 1, during=None):
        super().__init__()
        self.calls = 0
        self.fail_on = fail_on
        self.during = during

    def scores(self, pairs):
        self.calls += 1
        if self.calls == self.fail_on:
            if self.during is not None:
                self.during()
            raise RuntimeError("scorer down")
        return super().scores(pairs)


class TestFailedScoring:
    """A group whose scoring raises goes back to the head of the queue:
    its records are never stranded ``pending`` nor checkpointed away."""

    def _offer_one_group(self, resolver: StreamingResolver,
                         records: List[Entity]) -> None:
        """Buffer records 1.. behind a gap, then release all of them as
        one group with record 0; that group's scoring raises."""
        for seq, record in list(enumerate(records))[1:]:
            resolver.offer(record, seq=seq)
        with pytest.raises(RuntimeError, match="scorer down"):
            resolver.offer(records[0], seq=0)

    def test_failed_group_is_retried_and_resumes_identically(self, tmp_path):
        records = _group_stream(groups=2, views=3)
        clean = _checkpointed(str(tmp_path / "clean"), records)
        wal_dir = str(tmp_path / "wal")
        scorer = _FlakyScorer()
        live = StreamingResolver(scorer, config=ResolveConfig(seed=1),
                                 wal=_wal(wal_dir))
        self._offer_one_group(live, records)
        stats = _assert_conserved(live)
        assert stats["pending"] == 6 and stats["queued"] == 6
        live.drain()  # the retry
        stats = _assert_conserved(live)
        assert stats["pending"] == 0 and stats["clustered"] == 6
        assert scorer.calls == 2
        assert live.store.digest() == clean.store.digest()
        _assert_same_state(_resume(wal_dir), live)   # crash resume
        live.close()
        _assert_same_state(_resume(wal_dir), live)   # checkpoint resume

    def test_failed_drain_in_close_writes_no_checkpoint(self, tmp_path):
        records = _group_stream(groups=2, views=3)
        wal_dir = str(tmp_path / "wal")
        live = StreamingResolver(_FlakyScorer(), config=ResolveConfig(seed=1),
                                 wal=_wal(wal_dir))
        for seq, record in list(enumerate(records))[1:]:
            live.offer(record, seq=seq)     # all held behind the seq-0 gap
        with pytest.raises(RuntimeError, match="scorer down"):
            live.close()
        assert wal_module.CHECKPOINT_NAME not in os.listdir(wal_dir)
        assert _assert_conserved(live)["pending"] == 5
        arrived = [entry["record"]["uid"] for entry in live.wal.replay()
                   if entry["type"] == "arrive"]
        assert arrived == [record.uid for record in records[1:]]
        live.close()                        # retries the stranded records
        stats = _assert_conserved(live)
        assert stats["pending"] == 0 and stats["clustered"] == 5
        assert wal_module.CHECKPOINT_NAME in os.listdir(wal_dir)
        _assert_same_state(_resume(wal_dir), live)

    def test_retraction_racing_a_failed_group_is_counted(self, tmp_path):
        records = _group_stream(groups=2, views=3)
        wal_dir = str(tmp_path / "wal")
        retracted: List[bool] = []

        def retract_from_another_thread():
            worker = threading.Thread(
                target=lambda: retracted.append(live.retract("g0v1")))
            worker.start()
            worker.join()

        live = StreamingResolver(
            _FlakyScorer(during=retract_from_another_thread),
            config=ResolveConfig(seed=1), wal=_wal(wal_dir))
        self._offer_one_group(live, records)
        assert retracted == [True]
        stats = _assert_conserved(live)
        assert stats["retracted"] == 1 and stats["pending"] == 5
        assert live.retract("g0v1") is False
        live.drain()
        stats = _assert_conserved(live)
        assert stats == {**stats, "pending": 0, "clustered": 5,
                         "retracted": 1}
        assert live.store.assign("g0v1") is None
        logged = [entry["uid"] for entry in live.wal.replay()
                  if entry["type"] == "retract"]
        assert logged == ["g0v1"]
        _assert_same_state(_resume(wal_dir), live)   # crash resume
        live.close()
        _assert_same_state(_resume(wal_dir), live)   # checkpoint resume

    def test_retraction_at_the_head_of_the_replay_queue_restarts_it(
            self, tmp_path):
        """A logged retraction that drops the pending record blocking the
        replay FIFO lets the logged resolutions behind it replay: resume
        scores nothing and logs no resolution twice."""
        records = _group_stream(groups=2, views=3)
        wal_dir = str(tmp_path / "wal")
        live = StreamingResolver(_FlakyScorer(), config=ResolveConfig(seed=1),
                                 wal=_wal(wal_dir))
        self._offer_one_group(live, records)
        assert live.retract("g0v1") is True   # pending: logged before the
        live.drain()                          # group's resolve entries
        scored: List[int] = []

        class _CountingScorer(JaccardScorer):
            def scores(self, pairs):
                scored.append(len(pairs))
                return super().scores(pairs)

        resumed = StreamingResolver.resume(           # crash resume
            _CountingScorer(), _wal(wal_dir), config=ResolveConfig(seed=1))
        assert sum(scored) == 0
        logged = [entry["uid"] for entry in resumed.wal.replay()
                  if entry["type"] == "resolve"]
        assert logged == [record.uid for record in records
                          if record.uid != "g0v1"]
        _assert_same_state(resumed, live)


class TestCheckpointFaultSites:
    """``resolve.checkpoint`` and ``resolve.compact``: every fault
    resumes to the uninterrupted digest with conservation intact."""

    @pytest.fixture
    def stream(self, tmp_path):
        records = _group_stream(groups=4, views=3)
        expected = _run_stream(
            records, WriteAheadLog(str(tmp_path / "clean")))[0]
        return records, expected.store.digest()

    def _second_close(self, wal_dir: str, records: List[Entity],
                      plan: FaultPlan) -> StreamingResolver:
        """Checkpoint the first half, offer the rest, close under ``plan``."""
        half = len(records) // 2
        resolver = _checkpointed(wal_dir, records[:half])
        for seq, record in enumerate(records[half:], start=half):
            resolver.offer(record, seq=seq)
        with inject(plan):
            resolver.close()
        return resolver

    def _assert_recovers(self, wal_dir: str, records: List[Entity],
                         expected: str) -> StreamingResolver:
        resumed = _resume(wal_dir)
        _assert_conserved(resumed)
        assert resumed.store.digest() == expected
        for seq, record in enumerate(records):
            resumed.offer(record, seq=seq)
        resumed.close()
        stats = _assert_conserved(resumed)
        assert stats["ingested"] == len(records)
        assert resumed.store.digest() == expected
        return resumed

    def test_kill_during_write_keeps_previous_checkpoint_and_tail(
            self, tmp_path, stream, monkeypatch):
        records, expected = stream
        wal_dir = str(tmp_path / "wal")
        plan = FaultPlan((FaultSpec(site="resolve.checkpoint", kind="kill",
                                    at=(0,)),))
        with pytest.raises(TrainingKilled):
            self._second_close(wal_dir, records, plan)
        assert plan.fired("resolve.checkpoint", "kill")
        first = _watermark(wal_dir)
        # The whole tail behind the first checkpoint is still on disk.
        tail = _wal(wal_dir).replay(after=first)
        assert len(tail) == 2 * (len(records) - len(records) // 2)
        decoded = _counting(monkeypatch, "decode_entry")
        self._assert_recovers(wal_dir, records, expected)
        assert decoded[0] == len(tail)

    def test_kill_before_compaction_reapplies_no_covered_entry(
            self, tmp_path, stream, monkeypatch):
        records, expected = stream
        wal_dir = str(tmp_path / "wal")
        plan = FaultPlan((FaultSpec(site="resolve.compact", kind="kill",
                                    at=(0,)),))
        with pytest.raises(TrainingKilled):
            self._second_close(wal_dir, records, plan)
        covered = _segment_files(wal_dir)
        assert covered       # published, but nothing deleted yet
        assert max(map(wal_module._segment_index, covered)) \
            == _watermark(wal_dir)
        decoded = _counting(monkeypatch, "decode_entry")
        resumed = _resume(wal_dir)
        assert decoded[0] == 0
        assert resumed.store.digest() == expected
        assert _segment_files(wal_dir) == []    # resume finished the job
        _assert_conserved(resumed)

    def test_corrupt_write_leaves_an_unpublished_torn_tmp(self, tmp_path,
                                                          stream):
        records, expected = stream
        wal_dir = str(tmp_path / "wal")
        plan = FaultPlan((FaultSpec(site="resolve.checkpoint", kind="corrupt",
                                    at=(0,)),))
        resolver = self._second_close(wal_dir, records, plan)
        assert plan.fired("resolve.checkpoint", "corrupt")
        tmp = [n for n in os.listdir(wal_dir) if ".tmp." in n]
        assert tmp == [f"{wal_module.CHECKPOINT_NAME}.tmp.{os.getpid()}"]
        published = os.path.join(wal_dir, wal_module.CHECKPOINT_NAME)
        assert os.path.getsize(os.path.join(wal_dir, tmp[0])) \
            < os.path.getsize(published)
        # The first checkpoint stays; nothing it does not cover was deleted.
        assert _watermark(wal_dir) < resolver.wal.close()
        assert len(_wal(wal_dir).replay(after=_watermark(wal_dir))) > 0
        self._assert_recovers(wal_dir, records, expected)
        assert not [n for n in os.listdir(wal_dir) if ".tmp." in n]

    def test_corrupt_compaction_tears_a_covered_segment_never_read(
            self, tmp_path, stream):
        records, expected = stream
        wal_dir = str(tmp_path / "wal")
        plan = FaultPlan((FaultSpec(site="resolve.compact", kind="corrupt",
                                    at=(0,)),))
        self._second_close(wal_dir, records, plan)
        assert len(_segment_files(wal_dir)) == 1          # the torn one
        # The resume's own compaction tears it again instead of deleting
        # it; replay still skips it.
        again = FaultPlan((FaultSpec(site="resolve.compact", kind="corrupt",
                                     at=(0,)),))
        with inject(again):
            resumed = _resume(wal_dir)
        assert again.fired("resolve.compact", "corrupt")
        assert len(_segment_files(wal_dir)) == 1
        assert resumed.store.digest() == expected
        self._assert_recovers(wal_dir, records, expected)
        assert _segment_files(wal_dir) == []
        assert COUNTERS.as_dict()["wal_truncations"] == 0

    def test_transient_faults_are_absorbed(self, tmp_path, stream):
        records, expected = stream
        wal_dir = str(tmp_path / "wal")
        plan = FaultPlan((
            FaultSpec(site="resolve.checkpoint", kind="transient", at=(0,)),
            FaultSpec(site="resolve.compact", kind="transient", at=(0,))))
        self._second_close(wal_dir, records, plan)
        assert plan.fired("resolve.checkpoint", "transient")
        assert plan.fired("resolve.compact", "transient")
        assert COUNTERS.as_dict()["transient_retries"] >= 2
        assert _segment_files(wal_dir) == []
        self._assert_recovers(wal_dir, records, expected)

    def test_checkpoint_failing_its_crc_is_never_loaded(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        _checkpointed(wal_dir, _group_stream(groups=3, views=2))
        path = os.path.join(wal_dir, wal_module.CHECKPOINT_NAME)
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        blocker = MinHashLSHBlocker(seed=1)
        store = ClusterStore(seed=1)
        with pytest.raises(CorruptDataFault, match=path):
            _resume(wal_dir, blocker=blocker, store=store)
        assert len(blocker) == 0 and len(store) == 0
        with open(path, "r+b") as fh:
            fh.truncate(4)
        with pytest.raises(CorruptDataFault, match="CRC"):
            _resume(wal_dir)


# ======================================================================
# Group resolution: each burst the reorder buffer releases at once is
# signed, queried, scored, logged and flushed as one group
# ======================================================================
#: sha256 of every WAL segment's bytes (after the drain, before the
#: close), of the shutdown checkpoint's bytes, and the store digest of the
#: run below.  Pinned on per-record resolution; group resolution must
#: reproduce them byte for byte.
GOLDEN_WAL_SHA256 = \
    "43484eea52b4684f050df6a4ea3755b561be9003454ec45cd3f2d228e3fcf3c8"
GOLDEN_CHECKPOINT_SHA256 = \
    "933723809c532a1bc82261533090d9dc009602fbc07d328211fcc3c9f7ce4e26"
GOLDEN_STORE_DIGEST = "40f00cf32a74674e485843db7ec1b361"


def _dir_sha256(directory: str, names: List[str]) -> str:
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_golden_wal_bytes_and_digest_on_released_bursts(tmp_path,
                                                        camera_stream):
    """2k DI2KG camera records, shuffled in blocks of 8 and released in
    bursts by a 32-record reorder buffer (the resolve-stream schedule),
    with a retraction every 50 offers of the record offered 3 before
    (some still pending, some resolved)."""
    wal_dir = str(tmp_path / "wal")
    config = ResolveConfig(match_threshold=0.6, nonmatch_threshold=0.15,
                           reorder_capacity=32, seed=7)
    resolver = StreamingResolver(JaccardScorer(), config=config,
                                 wal=WriteAheadLog(wal_dir))
    for step, (seq, record) in enumerate(camera_stream):
        resolver.offer(record, seq=seq)
        if step % 50 == 49:
            assert resolver.retract(camera_stream[step - 3][1].uid)
    resolver.drain()
    stats = _assert_conserved(resolver)
    assert stats["retracted"] == len(camera_stream) // 50
    wal_sha = _dir_sha256(wal_dir, _segment_files(wal_dir))
    resolver.close()
    checkpoint_sha = _dir_sha256(wal_dir, [wal_module.CHECKPOINT_NAME])
    assert (wal_sha, checkpoint_sha, resolver.store.digest()) == (
        GOLDEN_WAL_SHA256, GOLDEN_CHECKPOINT_SHA256, GOLDEN_STORE_DIGEST)
    resumed = StreamingResolver.resume(JaccardScorer(),
                                       WriteAheadLog(wal_dir), config=config)
    assert resumed.store.digest() == GOLDEN_STORE_DIGEST


def _second_entry_of_a_group(records: List[Entity],
                             arrivals: List[Tuple[int, Entity]],
                             tmp_path) -> int:
    """The ``resolve.wal`` invocation of the second entry of the first
    multi-record ``resolve`` group commit of a clean run."""
    wal = _SpyWal(str(tmp_path / "spy"))
    _run_stream(records, wal, arrivals=arrivals)
    at = 0
    for entries in wal.commits:
        if len(entries) >= 2 and entries[0]["type"] == "resolve":
            return at + 1
        at += len(entries)
    raise AssertionError("no multi-record group")


@pytest.mark.parametrize("kind", ["kill", "corrupt"])
def test_fault_inside_a_group_resumes_to_the_live_digest(tmp_path, kind):
    """A kill inside a group loses the group's unwritten ``resolve``
    entries and resume re-scores those records; a torn entry inside a
    group truncates the log there.  Both resume to the live digest."""
    records = _group_stream(groups=4, views=3)
    arrivals = _shuffled(records)
    expected = _run_stream(
        records, WriteAheadLog(str(tmp_path / "clean")))[0].store.digest()
    at = _second_entry_of_a_group(records, arrivals, tmp_path)
    wal_dir = str(tmp_path / "wal")
    resolver = StreamingResolver(
        JaccardScorer(), config=ResolveConfig(seed=1),
        wal=WriteAheadLog(wal_dir, retry_policy=FAST_RETRY))
    plan = FaultPlan((FaultSpec(site="resolve.wal", kind=kind, at=(at,)),))
    with inject(plan):
        for seq, record in arrivals:
            try:
                resolver.offer(record, seq=seq)
            except TrainingKilled:
                break                   # the process died here
    assert plan.fired("resolve.wal", kind) == 1
    # Crash without close: the log is read back as the crash left it.
    resumed = StreamingResolver.resume(JaccardScorer(),
                                       WriteAheadLog(wal_dir),
                                       config=ResolveConfig(seed=1))
    assert COUNTERS.as_dict()["wal_truncations"] \
        == (1 if kind == "corrupt" else 0)
    _assert_conserved(resumed)
    for seq, record in arrivals:
        resumed.offer(record, seq=seq)
    resumed.close()
    assert _assert_conserved(resumed)["ingested"] == len(records)
    assert resumed.store.digest() == expected


def test_retraction_racing_a_group_lands_after_its_resolve_entries(
        tmp_path):
    """A group member retracted from another thread while the group is
    being scored: its ``retract`` entry follows the group's ``resolve``
    entries, the tallies conserve, and resume reaches the live digest."""
    entered, release = threading.Event(), threading.Event()

    class _GatedScorer(JaccardScorer):
        def scores(self, pairs):
            if len({pair.left.uid for pair in pairs}) >= 2:
                entered.set()
                assert release.wait(timeout=30)
            return super().scores(pairs)

    records = _group_stream(groups=2, views=3)
    # seq 2 arrives after 3 and 4, so its offer releases [2, 3, 4]:
    # g0v2 (pairs with g0v0, g0v1), g1v0, g1v1 (pairs with g1v0).
    arrivals = [(seq, records[seq]) for seq in (0, 1, 3, 4, 2, 5)]
    wal_dir = str(tmp_path / "wal")
    resolver = StreamingResolver(_GatedScorer(),
                                 config=ResolveConfig(seed=1),
                                 wal=WriteAheadLog(wal_dir))
    for seq, record in arrivals[:4]:
        resolver.offer(record, seq=seq)
    stream = threading.Thread(target=resolver.offer,
                              args=(arrivals[4][1], arrivals[4][0]))
    stream.start()
    assert entered.wait(timeout=30)
    assert resolver.retract("g1v0")          # mid-resolution
    _assert_conserved(resolver)
    release.set()
    stream.join(timeout=30)
    assert not stream.is_alive()
    resolver.offer(*reversed(arrivals[5]))
    stats = _assert_conserved(resolver)
    assert stats["retracted"] == 1 and stats["clustered"] == 5
    assert resolver.store.assign("g1v0") is None
    logged = [(entry["type"], entry.get("uid"))
              for entry in resolver.wal.replay()
              if entry["type"] != "arrive"]
    assert logged == [("resolve", "g0v0"), ("resolve", "g0v1"),
                      ("resolve", "g0v2"), ("resolve", "g1v0"),
                      ("resolve", "g1v1"), ("retract", "g1v0"),
                      ("resolve", "g1v2")]
    # g1v1 was scored against its earlier group member g1v0.
    (g1v1,) = [entry for entry in resolver.wal.replay()
               if entry.get("uid") == "g1v1"]
    assert [edge["v"] for edge in g1v1["edges"]] == ["g1v0"]
    live = resolver.store.digest()
    resumed = StreamingResolver.resume(JaccardScorer(),
                                       WriteAheadLog(wal_dir),
                                       config=ResolveConfig(seed=1))
    assert resumed.store.digest() == live
    assert resumed.stats() == resolver.stats()
