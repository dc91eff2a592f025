"""The streaming resolver: blocker + scorer + WAL + cluster store.

:class:`StreamingResolver` answers the production question "which
resolved entity does this record join?" under a continuous, out-of-order,
sometimes-retracted record stream.  Each offered record is write-ahead
logged and reordered (:class:`~repro.resolve.events.ReorderBuffer`).  The
records released together then resolve as one group: blocked against the
records indexed so far and the group members before them (one
``candidates_many`` query), scored in one scorer call, thresholded into
match / non-match edges, logged as one atomic ``resolve`` entry each in
one group commit, and folded into the
:class:`~repro.resolve.store.ClusterStore` in release order.  The result
is the one per-record resolution in release order would give, byte for
byte in the WAL.

Conservation invariant, enforced by :meth:`StreamingResolver.stats` and
asserted by the unit, fuzz, and chaos-soak suites::

    clustered + pending + retracted == ingested

Crash safety: :meth:`StreamingResolver.close` ends with a *shutdown
checkpoint* — the blocker's records and signature rows, the cluster
store's edges and partition, and the resolver's sets, tallies and reorder
cursor in one CRC-checked file — and then deletes the WAL segments it
covers.  :meth:`StreamingResolver.resume` loads that checkpoint (if any)
and replays only the WAL written after it: ``arrive`` entries re-feed the
reorder buffer, released records re-apply their logged edges (bitwise
provenance, no re-scoring), ``retract`` entries apply at their log
position, and records released but never resolved before the crash are
re-scored live (the scorer is deterministic, so the continuation matches
the uninterrupted run).  Recovery after a clean close therefore reads no
WAL entry; after a crash it still replays everything logged since the
last clean close.  The ``repro resolve`` CLI layers stream regeneration
on top so a ``kill -9`` mid-stream resumes to a bitwise-identical cluster
state.

Retractions arrive either directly (:meth:`StreamingResolver.retract`) or
as typed :class:`~repro.guard.quarantine.RetractionEvent`\\ s from a
subscribed quarantine store — a record the firewall confirms bad *after*
admission is un-merged with its edges removed.

Ingestion is single-writer: ``offer`` must be driven by one stream
thread (WAL arrival order defines replay order), while ``retract`` and
all read surfaces are safe from any thread.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.blocking.ann import MinHashLSHBlocker, _BandedNNIndex
from repro.data.schema import Entity, EntityPair
from repro.reliability.locks import named_lock
from repro.resolve.events import RecordArrival, ReorderBuffer, ScoredEdge
from repro.resolve.store import ClusterStore
from repro.resolve.wal import WriteAheadLog
from repro.text.tokenizer import tokenize


@dataclasses.dataclass(frozen=True)
class ResolveConfig:
    """Streaming-resolution knobs (all deterministic given the seed)."""

    #: Scores at or above this become ``match`` edges.
    match_threshold: float = 0.5
    #: Scores at or below this become ``nonmatch`` constraint edges.
    nonmatch_threshold: float = 0.05
    #: Reorder-buffer capacity before gaps are force-skipped.
    reorder_capacity: int = 64
    #: Blocker candidates scored per record.
    candidates_k: int = 8
    #: Seed for the blocker and the partition tie-break.
    seed: int = 0

    def __post_init__(self):
        if self.nonmatch_threshold >= self.match_threshold:
            raise ValueError("nonmatch_threshold must be below "
                             "match_threshold")


# ----------------------------------------------------------------------
# Scorers: anything with .scores(pairs) plus tier/params_version attrs
# ----------------------------------------------------------------------
#: Records whose token sets one :class:`JaccardScorer` keeps, oldest out
#: first.  A streamed record is scored again in every later group it pairs
#: with; the bound keeps an unbounded stream's memory flat.
JACCARD_TOKEN_MEMO = 1 << 14


class JaccardScorer:
    """Fit-free deterministic token-Jaccard scorer (the CLI floor).

    Each record is tokenized once per scorer (up to
    :data:`JACCARD_TOKEN_MEMO` records held at a time).
    """

    tier = "jaccard"
    params_version = "jaccard-v1"

    def __init__(self) -> None:
        self._tokens: Dict[Entity, Set[str]] = {}

    def _token_set(self, record: Entity) -> Set[str]:
        found = self._tokens.get(record)
        if found is None:
            if len(self._tokens) >= JACCARD_TOKEN_MEMO:
                del self._tokens[next(iter(self._tokens))]
            found = self._tokens[record] = set(tokenize(record.text()))
        return found

    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        out = np.zeros(len(pairs), dtype=np.float64)
        for i, pair in enumerate(pairs):
            left = self._token_set(pair.left)
            right = self._token_set(pair.right)
            union = len(left | right)
            out[i] = len(left & right) / union if union else 0.0
        return out


class MatcherScorer:
    """Adapter over any serving-tier matcher (``.scores(pairs)``)."""

    def __init__(self, matcher, tier: str = "matcher",
                 params_version: str = "v0"):
        self.matcher = matcher
        self.tier = str(getattr(matcher, "name", tier))
        self.params_version = params_version

    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return np.asarray(self.matcher.scores(pairs), dtype=np.float64)


class ServiceScorer:
    """Adapter over an inference service (``submit`` → ``MatchResponse``).

    After each call, :attr:`tier` / :attr:`params_version` reflect the
    tier that actually answered, so degraded answers carry honest
    provenance into the cluster store.
    """

    def __init__(self, service, timeout: float = 30.0):
        self.service = service
        self.timeout = timeout
        self.tier = "service"
        self.params_version = "v0"

    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        response = self.service.submit(pairs).result(timeout=self.timeout)
        if response.status != "ok" or response.scores is None:
            raise RuntimeError(
                f"scoring request {response.request_id} failed: "
                f"{response.error or response.status}")
        self.tier = str(response.tier)
        self.params_version = f"tier{response.tier_level}"
        return np.asarray(response.scores, dtype=np.float64)


def _record_dict(record: Entity) -> Dict[str, object]:
    return {"uid": record.uid, "values": dict(record.attributes),
            "source": record.source}


def _record_from(raw: Dict[str, object]) -> Entity:
    return Entity.from_dict(str(raw["uid"]), dict(raw["values"]),
                            source=str(raw.get("source", "")))


# ----------------------------------------------------------------------
class StreamingResolver:
    """Incremental collective resolution over a record stream."""

    def __init__(self, scorer, blocker=None,
                 config: ResolveConfig = ResolveConfig(),
                 wal: Optional[WriteAheadLog] = None,
                 store: Optional[ClusterStore] = None,
                 quarantine=None):
        if blocker is None:
            blocker = MinHashLSHBlocker(seed=config.seed).fit([])
        elif not isinstance(blocker, _BandedNNIndex):
            raise TypeError(
                f"StreamingResolver needs a banded ANN index "
                f"(MinHashLSHBlocker) for its group queries and "
                f"checkpoints, got {type(blocker).__name__}")
        self.scorer = scorer
        self.config = config
        self.blocker = blocker
        self.wal = wal
        self.store = store if store is not None \
            else ClusterStore(seed=config.seed)
        self._lock = named_lock("resolve.stream")
        self._buffer = ReorderBuffer(config.reorder_capacity)
        self._queue: List[RecordArrival] = []
        self._resolving = False
        #: uids of the group being resolved (retractions of these land
        #: right after the group's ``resolve`` entries).
        self._inflight: Set[str] = set()
        self._seen: Set[str] = set()
        self._resolved: Set[str] = set()
        self._retracted: Set[str] = set()
        self._dropped: Set[str] = set()
        self._ingested = 0
        self._pending = 0
        self._clustered = 0
        self._retracted_n = 0
        self._auto_seq = 0
        #: Retractions between their tally update and their store
        #: update; a checkpoint is only taken when there are none.
        self._retracting = 0
        if quarantine is not None:
            quarantine.subscribe(self._on_retraction)

    # -- ingestion -------------------------------------------------------
    def offer(self, record: Entity, seq: Optional[int] = None) -> bool:
        """Offer one stream arrival; False for a duplicate uid.

        Single-writer: drive this from one ingestion thread.
        """
        with self._lock:
            if record.uid in self._seen:
                return False
            if seq is None:
                seq = self._auto_seq
            self._auto_seq = max(self._auto_seq, int(seq) + 1)
        if self.wal is not None:
            self.wal.commit({"type": "arrive", "seq": int(seq),
                             "record": _record_dict(record)})
        with self._lock:
            self._seen.add(record.uid)
            self._ingested += 1
            self._pending += 1
            self._queue.extend(self._buffer.offer(int(seq), record))
        self._pump()
        return True

    def drain(self) -> None:
        """Force-release everything still buffered and resolve it."""
        with self._lock:
            self._queue.extend(self._buffer.drain())
        self._pump()

    def close(self) -> None:
        """Drain, publish the WAL's active segment, then write the
        shutdown checkpoint and delete the segments it covers.

        The checkpoint is published before any segment is deleted, so a
        crash at any point leaves a consistent (checkpoint, tail) pair.
        A close that races a retraction from another thread skips the
        checkpoint; the WAL then keeps its segments.  A drain whose
        scoring raises propagates before any of this: no checkpoint is
        written, the WAL keeps every ``arrive`` entry, and a later
        ``close`` retries the unresolved records.
        """
        self.drain()
        if self.wal is None:
            return
        watermark = self.wal.close()
        parts = self._checkpoint_parts(watermark)
        if parts is not None and self.wal.write_checkpoint(parts):
            self.wal.compact(watermark)

    # -- retraction ------------------------------------------------------
    def retract(self, uid: str, reason: str = "retracted") -> bool:
        """Un-merge ``uid`` (typed retraction); False if unknown/repeated.

        A pending record is dropped at release; a clustered record is
        removed from the store with its edges.  A record mid-resolution
        is retracted by the resolution worker as soon as its group lands.
        """
        with self._lock:
            if uid not in self._seen or uid in self._retracted \
                    or uid in self._dropped:
                return False
            if uid in self._inflight:
                # Mid-resolution: the pump applies the retraction (and
                # writes the WAL entry) right after the group's resolve
                # entries.
                self._dropped.add(uid)
                return True
            if uid in self._resolved:
                pending_drop = False
                self._resolved.discard(uid)
                self._retracted.add(uid)
                self._clustered -= 1
                self._retracted_n += 1
            else:
                pending_drop = True
                self._dropped.add(uid)
                self._retracted.add(uid)
                self._pending -= 1
                self._retracted_n += 1
            self._retracting += 1
        try:
            if self.wal is not None:
                self.wal.commit({"type": "retract", "uid": uid,
                                 "reason": reason})
            if not pending_drop:
                self.store.retract(uid)
        finally:
            with self._lock:
                self._retracting -= 1
        return True

    def _on_retraction(self, event) -> None:
        """Quarantine-store listener: typed post-admission retraction."""
        self.retract(event.uid, reason=event.reason)

    # -- resolution pipeline ---------------------------------------------
    def _pump(self) -> None:
        """Resolve released records in release order, everything released
        since the last group as one group; one worker at a time, no lock
        held across scoring, WAL, or store work."""
        while True:
            with self._lock:
                if self._resolving:
                    return
                group: List[RecordArrival] = []
                for arrival in self._queue:
                    uid = arrival.record.uid
                    if uid in self._dropped:
                        # Retracted while pending: counted at retract time.
                        self._dropped.discard(uid)
                    else:
                        group.append(arrival)
                self._queue.clear()
                if not group:
                    return
                self._resolving = True
                self._inflight = {arrival.record.uid for arrival in group}
            try:
                self._resolve_group(group)
            finally:
                with self._lock:
                    self._resolving = False
                    self._inflight = set()

    def _score_group(self, group: List[Entity]) -> List[List[ScoredEdge]]:
        """Block + score + threshold each group member against the index
        and the members before it."""
        indexed = self.blocker.records
        n = len(indexed)
        found = self.blocker.candidates_many(group,
                                             k=self.config.candidates_k)
        with self._lock:
            gone = self._retracted | self._dropped
        partners = [[partner for partner in (
            indexed[j] if j < n else group[j - n] for j in ids)
            if partner.uid not in gone] for ids in found]
        pairs = [EntityPair(left=record, right=partner, label=0)
                 for record, mine in zip(group, partners)
                 for partner in mine]
        if not pairs:
            return [[] for _ in group]
        scores = np.asarray(self.scorer.scores(pairs),
                            dtype=np.float64).tolist()
        tier = str(getattr(self.scorer, "tier", "scorer"))
        params_version = str(getattr(self.scorer, "params_version", "v0"))
        match, nonmatch = (self.config.match_threshold,
                           self.config.nonmatch_threshold)
        edges: List[List[ScoredEdge]] = []
        at = 0
        for record, mine in zip(group, partners):
            kept: List[ScoredEdge] = []
            for partner, score in zip(mine, scores[at:at + len(mine)]):
                if score >= match:
                    kind = "match"
                elif score <= nonmatch:
                    kind = "nonmatch"
                else:
                    continue
                kept.append(ScoredEdge(
                    u=record.uid, v=partner.uid, score=score, kind=kind,
                    tier=tier, params_version=params_version))
            edges.append(kept)
            at += len(mine)
        return edges

    def _requeue(self, arrivals: List[RecordArrival]) -> None:
        """Put a group whose scoring raised back at the head of the queue
        for the next ``offer``/``drain``/``close`` to retry.

        Nothing of the group is logged yet, so its records are pending
        again.  A retraction that raced the failed group took the
        in-flight branch of :meth:`retract` and counted nothing; it is
        counted and logged here as the pending retraction it now is, and
        the retry drops its record.
        """
        with self._lock:
            raced = [arrival.record.uid for arrival in arrivals
                     if arrival.record.uid in self._dropped]
            self._retracted.update(raced)
            self._pending -= len(raced)
            self._retracted_n += len(raced)
            self._retracting += len(raced)
            self._queue[:0] = arrivals
            self._inflight = set()
        if not raced:
            return
        try:
            if self.wal is not None:
                self.wal.commit_many(
                    {"type": "retract", "uid": uid, "reason": "retracted"}
                    for uid in raced)
        finally:
            with self._lock:
                self._retracting -= len(raced)

    def _resolve_group(self, arrivals: List[RecordArrival]) -> None:
        group = [arrival.record for arrival in arrivals]
        try:
            edges = self._score_group(group)
        except BaseException:
            self._requeue(arrivals)
            raise
        if self.wal is not None:
            self.wal.commit_many(
                {"type": "resolve", "uid": record.uid,
                 "edges": [edge.to_dict() for edge in record_edges]}
                for record, record_edges in zip(group, edges))
        self.blocker.add_many(group)  # repro: noqa[R007] -- index add serialized by the single resolution worker (_pump)
        for record, record_edges in zip(group, edges):
            self._apply_edges(record, record_edges)
        with self._lock:
            self._resolved.update(record.uid for record in group)
            self._pending -= len(group)
            self._clustered += len(group)
            raced = [record.uid for record in group
                     if record.uid in self._dropped]
            for uid in raced:
                self._dropped.discard(uid)
                self._resolved.discard(uid)
                self._retracted.add(uid)
            self._clustered -= len(raced)
            self._retracted_n += len(raced)
        if raced:
            # Retractions raced the resolution: land them right behind.
            if self.wal is not None:
                self.wal.commit_many(
                    {"type": "retract", "uid": uid, "reason": "retracted"}
                    for uid in raced)
            for uid in raced:
                self.store.retract(uid)

    def _apply_edges(self, record: Entity,
                     edges: List[ScoredEdge]) -> None:
        self.store.add_record(record.uid)
        for edge in edges:
            self.store.apply_edge(edge)

    # -- inspection ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """One-lock snapshot of the conservation tallies.

        ``conserved`` is computed from the same read as the numbers it
        describes (the :class:`~repro.guard.firewall.FirewallStats`
        discipline).
        """
        with self._lock:
            ingested = self._ingested
            pending = self._pending
            clustered = self._clustered
            retracted = self._retracted_n
            buffered = len(self._buffer)
            queued = len(self._queue)
        return {
            "ingested": ingested,
            "pending": pending,
            "clustered": clustered,
            "retracted": retracted,
            "buffered": buffered,
            "queued": queued,
            "conserved": clustered + pending + retracted == ingested,
        }

    # -- shutdown checkpoint ---------------------------------------------
    def _binding(self) -> Dict[str, object]:
        """What a checkpoint is only valid for: seeds and blocker setup."""
        binding: Dict[str, object] = {
            "seed": self.config.seed, "store_seed": self.store.seed,
            "blocker": type(self.blocker).__name__}
        for name, value in self.blocker.index_params().items():
            binding[f"blocker.{name}"] = value
        return binding

    def _checkpoint_parts(self, watermark: int
                          ) -> Optional[List[Tuple[str, object]]]:
        """Everything :meth:`resume` rebuilds, read under the resolver
        lock (file IO happens later, outside it); None unless the
        resolver is quiescent."""
        with self._lock:
            if (self._buffer or self._queue or self._resolving
                    or self._retracting or self._dropped):
                return None
            meta = {
                "binding": self._binding(), "watermark": watermark,
                "ingested": self._ingested, "pending": self._pending,
                "clustered": self._clustered,
                "retracted": self._retracted_n,
                "auto_seq": self._auto_seq,
                "next_seq": self._buffer.next_seq,
            }
            seen = list(self._seen)
            resolved = list(self._resolved)
            retracted = list(self._retracted)
            store = self.store.checkpoint_state()
            records, rows = self.blocker.checkpoint_state()
        return [
            ("meta", meta),
            ("seen", lambda: sorted(seen)),
            ("resolved", lambda: sorted(resolved)),
            ("retracted", lambda: sorted(retracted)),
            ("records", lambda: map(_record_dict, records)),
            ("rows", rows),
            ("partition", lambda: store["partition"]),
            ("edges", lambda: ([edge.u, edge.v, edge.score, edge.kind,
                                edge.tier, edge.params_version]
                               for edge in store["edges"])),
        ]

    def _restore(self, parts: Dict[str, object]) -> int:
        """Load checkpoint ``parts`` into this fresh resolver; returns
        the checkpoint's watermark."""
        meta = parts["meta"]
        for key, value in self._binding().items():
            saved = meta["binding"].get(key)
            if saved != value:
                raise ValueError(
                    f"the checkpoint was written with {key}={saved!r}; "
                    f"this resolver has {key}={value!r}")
        if len(self.blocker) or len(self.store):
            raise ValueError("resuming from a checkpoint needs an empty "
                             "blocker and cluster store")
        self.store.restore(parts["partition"],
                           [ScoredEdge(*row) for row in parts["edges"]])
        self.blocker.restore([_record_from(raw) for raw in parts["records"]],
                             parts["rows"])
        with self._lock:
            self._seen = set(parts["seen"])
            self._resolved = set(parts["resolved"])
            self._retracted = set(parts["retracted"])
            self._ingested = meta["ingested"]
            self._pending = meta["pending"]
            self._clustered = meta["clustered"]
            self._retracted_n = meta["retracted"]
            self._auto_seq = meta["auto_seq"]
            self._buffer = ReorderBuffer(self.config.reorder_capacity,
                                         next_seq=meta["next_seq"])
        return int(meta["watermark"])

    # -- crash resume ----------------------------------------------------
    @classmethod
    def resume(cls, scorer, wal: WriteAheadLog, blocker=None,
               config: ResolveConfig = ResolveConfig(),
               store: Optional[ClusterStore] = None,
               quarantine=None) -> "StreamingResolver":
        """Rebuild the exact pre-crash state from ``wal`` and continue.

        The state starts from the WAL directory's shutdown checkpoint
        when there is one (``blocker`` and ``store`` must then be empty,
        and the config seed and blocker parameters must match the
        checkpoint's, else ``ValueError``); a crash that interrupted the
        compaction behind it is finished here.  Only the WAL after the
        checkpoint's watermark is then replayed: logged resolutions
        re-apply their edges verbatim (bitwise provenance); the replayed
        records are indexed with one ``blocker.add_many`` in log order
        (no query runs during replay, and ``add`` == rebuild parity makes
        this the index the live run built); records released but
        unresolved at the crash are re-scored live after that, in
        release order.
        """
        resolver = cls(scorer, blocker=blocker, config=config, wal=None,
                       store=store)
        watermark = -1
        checkpoint = wal.read_checkpoint()
        if checkpoint is not None:
            watermark = resolver._restore(checkpoint)
            wal.compact(watermark)
        entries = wal.replay(after=watermark)
        logged: Dict[str, Dict[str, object]] = {}
        for entry in entries:
            if entry.get("type") == "resolve":
                logged[str(entry["uid"])] = entry
        replayed: List[Entity] = []
        for entry in entries:
            kind = entry.get("type")
            if kind == "arrive":
                replayed.extend(resolver._replay_arrive(entry, logged))
            elif kind == "retract":
                replayed.extend(resolver._replay_retract(entry, logged))
        resolver.blocker.add_many(replayed)
        with resolver._lock:
            resolver.wal = wal
        resolver._pump()  # re-score released-but-unresolved records live
        if quarantine is not None:
            quarantine.subscribe(resolver._on_retraction)
        return resolver

    def _replay_arrive(self, entry: Dict[str, object],
                       logged: Dict[str, Dict[str, object]]
                       ) -> List[Entity]:
        """Re-feed one logged arrival; returns the records whose logged
        resolution it applied (for the caller to index)."""
        record = _record_from(entry["record"])
        seq = int(entry["seq"])
        with self._lock:
            if record.uid in self._seen:
                return []
            self._seen.add(record.uid)
            self._ingested += 1
            self._pending += 1
            self._auto_seq = max(self._auto_seq, seq + 1)
            self._queue.extend(self._buffer.offer(seq, record))
            to_apply = self._consume_logged(logged)
        return self._apply_logged(to_apply)

    def _replay_retract(self, entry: Dict[str, object],
                        logged: Dict[str, Dict[str, object]]
                        ) -> List[Entity]:
        """Re-apply one logged retraction; a pending record it drops from
        the head of the queue lets the logged releases behind it go, and
        those are returned like :meth:`_replay_arrive`'s."""
        uid = str(entry["uid"])
        with self._lock:
            if uid not in self._seen or uid in self._retracted:
                return []
            resolved = uid in self._resolved
            if resolved:
                self._resolved.discard(uid)
                self._clustered -= 1
            else:
                self._dropped.add(uid)
                self._pending -= 1
            self._retracted.add(uid)
            self._retracted_n += 1
            to_apply = self._consume_logged(logged)
        if resolved:
            self.store.retract(uid)
        return self._apply_logged(to_apply)

    def _consume_logged(self, logged: Dict[str, Dict[str, object]]
                        ) -> List[Tuple[Entity, List[ScoredEdge]]]:
        """Take the queued releases whose resolution was logged before
        the crash, in release order, with their logged edges; the first
        unlogged release stops the FIFO (live re-scoring happens once the
        whole log is applied).  Caller holds the lock."""
        to_apply: List[Tuple[Entity, List[ScoredEdge]]] = []
        while self._queue:
            uid = self._queue[0].record.uid
            if uid in self._dropped:
                self._queue.pop(0)
                self._dropped.discard(uid)
                continue
            if uid not in logged:
                break
            arrival = self._queue.pop(0)
            replayed = logged.pop(uid)
            to_apply.append((arrival.record,
                             [ScoredEdge.from_dict(raw)
                              for raw in replayed.get("edges", [])]))
            self._pending -= 1
            self._clustered += 1
            self._resolved.add(uid)
        return to_apply

    def _apply_logged(self, to_apply: List[Tuple[Entity, List[ScoredEdge]]]
                      ) -> List[Entity]:
        for record, edges in to_apply:
            self._apply_edges(record, edges)
        return [record for record, _ in to_apply]
