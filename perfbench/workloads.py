"""The three benchmark workloads: set-up, one measured phase, and gates.

* ``resolve-stream`` — collective ER over 24 DI2KG-camera sources: a
  block-shuffled out-of-order stream through ``StreamingResolver`` with a
  WAL, a few retractions, then crash recovery (``StreamingResolver.resume``)
  over the finished WAL.  Model-free: blocker, WAL, scorer, cluster store.
* ``serve-query`` — "which indexed records match this new record?": one
  client sends unseen third-source records through
  ``InferenceService.submit_query`` (firewall, MinHash blocker, float32
  embedding store, tier-1 HierGAT) in a closed loop, each after the last is
  answered, interleaved with ``index_record`` writes.  Dominated by the
  model.
* ``train`` — ``HierGAT.fit`` on DBLP-ACM at a fixed scale (the paper's
  training-time claim, Fig. 11).  Autograd forward, backward and Adam.

Every workload reports the same end-to-end metrics, each on its own unit of
work: ``throughput`` (records resolved, queries answered, training pairs per
second), per-unit latency (record arrival to assignable, query sent to
answered, one optimizer step), ``recovery_s`` (rebuilding the workload's
state from what it left on disk: WAL resume, store reopen plus index
rebuild, training-checkpoint resume), ``peak_rss_mb`` and ``setup_s``.

End-to-end times are CPU time of the workload process, all its threads
(:data:`clock`): on a shared 2-vCPU host the same work takes up to 1.6x
more wall time for minutes at a time, as the hypervisor steals the vCPUs,
and CPU time leaves the stolen time out.  The workloads keep their work on
the CPU (the WAL is flushed, not fsynced; the serve loop never sleeps), so
CPU time is the time a user waits on an unshared host.  CPU time still
varies with the speed of the vCPU, so it is scaled to a reference host
speed measured by slices taken between operations (``reference.py``).
The unscaled wall and CPU times stay in the run's details; per-layer spans
are wall time.

Inputs are a pure function of ``(seed, seconds)``: ``seconds`` sizes the
work.  The program's own seeds (blocker hash functions, model
initialisation) are fixed: a new seed changes the data, not the program.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import shutil
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from reference import INTERPRETER, TABLE, HostSpeed, Reference
from tracing import Span, Tracer, percentile, tail_percentile

#: The clock of every end-to-end time: CPU seconds of this process.
clock = time.process_time
wall_clock = time.perf_counter

#: Seed of the program's own randomness (blocker hashes, model init).
PROGRAM_SEED = 0

#: End-to-end metrics, reported by every workload (``--trace 0``).
END_TO_END = (
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Per-layer metrics (``--trace 1``).  ``<layer>_ms`` is the median self
#: time of one call, ``<layer>_share`` the layer's total self time over the
#: busy wall time.  A layer a workload never calls reports 0.
SPAN_LAYERS = (
    "blocking.candidates", "blocking.add", "resolve.offer",
    "resolve.wal_commit", "resolve.scorer", "resolve.apply_edge",
    "guard.admit", "model.encode", "model.head", "serving.tier1",
    "model.forward", "autograd.backward", "optim.step",
)
PER_LAYER = tuple(
    [(f"{layer}_ms", "ms") for layer in SPAN_LAYERS]
    + [(f"{layer}_share", "ratio") for layer in SPAN_LAYERS]
    + [
        ("blocking.candidates_per_call", "count"),
        ("resolve.wal_commits", "count"),
        ("resolve.wal_bytes", "bytes"),
        ("resolve.replay_ms", "ms"),
        ("resolve.resume_apply_ms", "ms"),
        ("resolve.match_edge_ratio", "ratio"),
        ("resolve.retract_ms", "ms"),
        ("resolve.edges_applied", "count"),
        ("resolve.largest_cluster", "count"),
        ("resolve.conflict_repairs", "count"),
        ("guard.quarantined", "count"),
        ("store.live_fallbacks_per_query", "count"),
        ("store.hit_ratio", "ratio"),
        ("serving.wait_ms", "ms"),
        ("serving.model_busy_share", "ratio"),
        ("serving.shed", "count"),
        ("serving.degraded", "count"),
        ("train.steps", "count"),
        ("cache.lm_hit_ratio", "ratio"),
        ("cache.lm_evictions", "count"),
        ("cache.token_hit_ratio", "ratio"),
        ("setup.fit_ms", "ms"),
        ("setup.store_build_ms", "ms"),
        ("setup.generate_ms", "ms"),
        ("other_ms", "ms"),
        ("trace_overhead", "ratio"),
    ])


def _train_scale():
    from repro.config import Scale

    # ci dims, 200 pairs, 3 epochs: ~3 s per fit and a non-zero held-out
    # F1 on DBLP-ACM (Amazon-Google scores F1 0.0 at this scale).
    return dataclasses.replace(Scale.ci(), max_pairs=200, epochs=3)


def lm_checkpoint_path():
    """The LM checkpoint file the model workloads load."""
    from repro.lm import checkpoint

    scale = _train_scale()
    key = checkpoint._cache_key("roberta", scale,
                                checkpoint.default_pretrain_steps(scale))
    return checkpoint.cache_dir() / f"{key}.npz"


def warm_lm_checkpoint() -> None:
    """Pretrain and cache the LM checkpoint (one-off, never timed)."""
    from repro.lm.checkpoint import load_checkpoint

    load_checkpoint("roberta", _train_scale())


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _cache_ratios() -> Dict[str, float]:
    from repro import perf

    stats = perf.cache_stats()

    def ratio(name: str) -> float:
        row = stats.get(name, {})
        total = row.get("hits", 0) + row.get("misses", 0)
        return row.get("hits", 0) / total if total else 0.0

    return {
        "cache.lm_hit_ratio": ratio("lm"),
        "cache.lm_evictions": float(stats.get("lm", {}).get("evictions", 0)),
        "cache.token_hit_ratio": ratio("tokens"),
    }


def _fresh_caches() -> None:
    """Start a phase from cold program caches, so repeated phases over the
    same inputs in one process do the same work."""
    from repro import perf

    perf.clear_caches()
    perf.reset_stats()


#: Reference slices taken before each timed call and after the last.
BRACKET_SLICES = 5


def timed_calls(call, count: int, slice_on=None,
                reference: Reference = INTERPRETER) -> List[float]:
    """Time ``count`` calls of ``call()`` at the reference host speed of
    the slices just before, after and (with ``slice_on``) inside each.

    ``slice_on = (owner, attr, every)`` takes a slice after every
    ``every``-th call of ``owner.attr``, for a call too long for the slices
    around it to give its host speed.  Each call starts from a collected
    heap, as in a restarted process, so one call's garbage is not collected
    inside the next.
    """
    speed = HostSpeed(clock, reference)
    hooks = Tracer(clock=clock)
    if slice_on is not None:
        owner, attr, every = slice_on
        seen = [0]

        def maybe_slice(args, result):
            seen[0] += 1
            if seen[0] % every == 0:
                speed.slice()

        hooks.instrument(owner, attr, attr, maybe_slice)
    calls = []
    try:
        for _ in range(count):
            gc.collect()
            speed.slice(BRACKET_SLICES)
            sliced = speed.total
            began = clock()
            call()
            calls.append((began, clock(), speed.total - sliced))
        speed.slice(BRACKET_SLICES)
    finally:
        hooks.restore()
    return [(ended - began - inside)
            / speed.local((began + ended) / 2, (ended - began) / 2 + 0.05)
            for began, ended, inside in calls]


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


# ======================================================================
# resolve-stream
# ======================================================================
RESOLVE_SOURCES = 24
RESOLVE_OVERLAP = 0.3
#: Stream length per second of run: 10 s gives 9.4k records (~1.2k
#: entities seen by 1 + 23 x 0.3 sources each), about 15 s of resolution.
RESOLVE_RECORDS_PER_SECOND = 940
#: Jaccard thresholds: pairwise F1 ~0.95 against truth.  The CLI default
#: of 0.35 over-merges (one giant cluster), which would time a degenerate
#: partition.
RESOLVE_MATCH = 0.6
RESOLVE_NONMATCH = 0.15
RESOLVE_REORDER = 32
RESOLVE_BLOCK = 8
RESOLVE_RETRACT_RATE = 0.03
#: Offers between a record's arrival and its retraction.
RESOLVE_RETRACT_LAG = 64
RESOLVE_F1_FLOOR = 0.9
RESOLVE_RESUMES = 2
#: Offers between two reference slices.  The p99 latency falls in the
#: stream's last second, where offers cost most, so slices are dense enough
#: to give that second its own host speed.
RESOLVE_SLICE_EVERY = 20
#: Records a resume re-adds to the blocker between two reference slices.
RESUME_SLICE_EVERY = 50


def resolve_setup(seed: int, seconds: float) -> Dict[str, object]:
    from repro.data.di2kg import di2kg_spec
    from repro.data.generators import generate_source_tables
    from repro.resolve import ResolveConfig

    started = clock()
    sources = tuple(f"site{i:02d}" for i in range(RESOLVE_SOURCES))
    count = max(RESOLVE_BLOCK, round(RESOLVE_RECORDS_PER_SECOND * seconds))
    # Which later sources list an entity is random; generate a margin of
    # entities and cut the stream at a fixed length so sizes never vary.
    per_entity = 1 + (RESOLVE_SOURCES - 1) * RESOLVE_OVERLAP
    entities = math.ceil(count / per_entity * 1.05) + 10
    tables, truth = generate_source_tables(
        di2kg_spec("camera"), entities, seed=seed, sources=sources,
        overlap=RESOLVE_OVERLAP)
    records = [r for source in sorted(tables) for r in tables[source]]
    if len(records) < count:
        raise ValueError(f"{len(records)} records generated, {count} asked")
    records = records[:count]
    kept = {record.uid for record in records}
    # `repro resolve`'s schedule: shuffle within consecutive blocks.
    rng = np.random.default_rng(seed)
    schedule: List[int] = []
    for start in range(0, len(records), RESOLVE_BLOCK):
        block = np.arange(start, min(start + RESOLVE_BLOCK, len(records)))
        rng.shuffle(block)
        schedule.extend(int(i) for i in block)
    retract_at: Dict[int, List[str]] = {}
    for step, index in enumerate(schedule):
        uid = records[index].uid
        digest = hashlib.blake2b(f"{seed}:{uid}".encode(), digest_size=4)
        if int(digest.hexdigest(), 16) / 0xFFFFFFFF < RESOLVE_RETRACT_RATE:
            at = min(step + RESOLVE_RETRACT_LAG, len(schedule) - 1)
            retract_at.setdefault(at, []).append(uid)
    truth_pairs = [(anchor, view) for anchor, views in truth.items()
                   for _, view in views if anchor in kept and view in kept]
    config = ResolveConfig(
        match_threshold=RESOLVE_MATCH, nonmatch_threshold=RESOLVE_NONMATCH,
        reorder_capacity=RESOLVE_REORDER, seed=PROGRAM_SEED)
    return {
        "records": records, "schedule": schedule, "retract_at": retract_at,
        "truth_pairs": truth_pairs, "config": config,
        "sizes": {"records": len(records), "sources": RESOLVE_SOURCES},
        "timings": {"setup.generate_ms": _ms(clock() - started)},
    }


def resolve_gates(clusters, edges, seed: int, stats: Dict[str, object],
                  ingested: int, live_digest: str,
                  resumed_digests: Sequence[str], f1: float
                  ) -> Dict[str, bool]:
    """The resolve-stream correctness gates (each can fail)."""
    from repro.resolve import offline_partition, partitions_equal

    uids = [uid for cluster in clusters for uid in cluster]
    return {
        "streaming_equals_offline": partitions_equal(
            clusters, offline_partition(uids, edges, seed=seed)),
        "conserved": (stats["clustered"] + stats["pending"]
                      + stats["retracted"] == stats["ingested"] == ingested),
        "resume_digest_equal": bool(resumed_digests) and all(
            digest == live_digest for digest in resumed_digests),
        "f1_above_floor": f1 >= RESOLVE_F1_FLOOR,
    }


def resolve_phase(state, workdir: str, tracer: Optional[Tracer],
                  traced_run: bool) -> Dict[str, object]:
    from repro.blocking.ann import MinHashLSHBlocker
    from repro.reliability.counters import COUNTERS
    from repro.resolve import (
        JaccardScorer, StreamingResolver, WriteAheadLog, partition_metrics,
        truth_partition,
    )

    _fresh_caches()
    records, config = state["records"], state["config"]
    wal_dir = os.path.join(workdir, "wal")
    shutil.rmtree(wal_dir, ignore_errors=True)
    repairs_before = COUNTERS.as_dict()["resolve_conflict_repairs"]
    resolver = StreamingResolver(JaccardScorer(), config=config,
                                 wal=WriteAheadLog(wal_dir))
    store = resolver.store
    pending: Dict[str, float] = {}
    latencies: List[Tuple[float, float]] = []  # (arrived, latency)
    dropped = failed = 0
    speed = HostSpeed(clock, TABLE)
    started, wall_started = clock(), wall_clock()
    for step, index in enumerate(state["schedule"]):
        record = records[index]
        offered_at = clock()
        try:
            resolver.offer(record, seq=index)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            failed += 1
            continue
        returned_at = clock()
        pending[record.uid] = offered_at
        for uid in [uid for uid in pending if uid in store]:
            arrived = pending.pop(uid)
            latencies.append((arrived, returned_at - arrived))
        for uid in state["retract_at"].get(step, ()):
            if pending.pop(uid, None) is not None:
                dropped += 1
            resolver.retract(uid, reason="benchmark-retraction")
        if step % RESOLVE_SLICE_EVERY == 0:
            took = speed.slice()
            for uid in pending:  # the slice is not part of any latency
                pending[uid] += took
    resolver.close()
    closed_at = clock()
    for uid, offered_at in pending.items():
        if uid in store:
            latencies.append((offered_at, closed_at - offered_at))
    cpu = closed_at - started - speed.total
    wall = wall_clock() - wall_started - speed.total
    spans, span_counts = _snapshot(tracer)

    stats = resolver.stats()
    clusters = store.clusters()
    edges = store.edges()
    live_digest = store.digest()
    counts = {
        "resolve.wal_commits": resolver.wal.entry_count(),
        "resolve.largest_cluster": max(map(len, clusters)),
        "resolve.conflict_repairs": (
            COUNTERS.as_dict()["resolve_conflict_repairs"] - repairs_before),
    }
    # Recover as a restarted process does: without the live stream's state
    # in memory, whose heap would lengthen each resume's garbage
    # collections.
    del resolver, store
    retracted = {uid for uids in state["retract_at"].values() for uid in uids}
    truth = truth_partition(
        [r.uid for r in records if r.uid not in retracted],
        [(a, b) for a, b in state["truth_pairs"]
         if a not in retracted and b not in retracted])
    quality = partition_metrics(clusters, truth)

    digests: List[str] = []

    def resume() -> None:
        resumed = StreamingResolver.resume(
            JaccardScorer(), WriteAheadLog(wal_dir), config=config)
        digests.append(resumed.store.digest())

    # A resume re-adds every record to the blocker.
    recovery = timed_calls(
        resume, 1 if traced_run else RESOLVE_RESUMES,
        slice_on=(MinHashLSHBlocker, "add", RESUME_SLICE_EVERY),
        reference=TABLE)

    gates = resolve_gates(clusters, edges, config.seed, stats,
                          len(records) - failed, live_digest, digests,
                          quality["pairwise_f1"])
    scaled = [latency / speed.local(arrived)
              for arrived, latency in latencies]
    q, tail = tail_percentile(scaled)
    return {
        "busy_wall": wall,
        "spans": spans,
        "span_counts": span_counts,
        "metrics": {
            "throughput": len(latencies) / cpu * speed.slowdown,
            "latency_p50_ms": _ms(percentile(scaled, 50)),
            "latency_tail_ms": _ms(tail),
            "recovery_s": _median(recovery),
        },
        "details": {
            "stream_cpu_s": cpu, "stream_wall_s": wall,
            "slowdown": speed.slowdown,
            "latency_samples": len(latencies), "latency_tail_percentile": q,
            "dropped_before_resolution": dropped,
            "pairwise_f1": quality["pairwise_f1"],
            "pairwise_precision": quality["pairwise_precision"],
            "clusters": len(clusters), "recovery_samples_s": recovery,
        },
        "gates": gates,
        "attempted": len(records),
        "failed": failed,
        "counts": counts,
        "wal_bytes": _dir_bytes(wal_dir),
    }


def resolve_instrument(tracer: Tracer) -> None:
    from repro.blocking.ann import MinHashLSHBlocker
    from repro.resolve import (
        ClusterStore, JaccardScorer, StreamingResolver, WriteAheadLog,
    )

    def count_candidates(args, result):
        tracer.count("blocking.candidates_emitted", len(result))

    def count_scored(args, result):
        tracer.count("resolve.pairs_scored", len(result))

    def count_edge(args, result):
        if args[1].kind == "match":
            tracer.count("resolve.match_edges")

    tracer.instrument(StreamingResolver, "offer", "resolve.offer")
    tracer.instrument(StreamingResolver, "resume", "resolve.resume")
    tracer.instrument(MinHashLSHBlocker, "candidates", "blocking.candidates",
                      count_candidates)
    tracer.instrument(MinHashLSHBlocker, "add", "blocking.add")
    tracer.instrument(WriteAheadLog, "commit", "resolve.wal_commit")
    tracer.instrument(WriteAheadLog, "replay", "resolve.replay")
    tracer.instrument(JaccardScorer, "scores", "resolve.scorer", count_scored)
    tracer.instrument(ClusterStore, "apply_edge", "resolve.apply_edge",
                      count_edge)
    tracer.instrument(ClusterStore, "retract", "resolve.retract")


def resolve_layers(phase, tracer: Tracer) -> Dict[str, float]:
    spans, counts = phase["spans"], phase["span_counts"]
    resumes = tracer.durations("resolve.resume")
    replays = tracer.durations("resolve.replay")
    scored = counts.get("resolve.pairs_scored", 0)
    out = _span_layers(phase)
    out.update({
        "resolve.wal_commits": float(_calls(spans, "resolve.wal_commit")),
        "resolve.wal_bytes": float(phase["wal_bytes"]),
        "resolve.replay_ms": _ms(_median(replays)),
        "resolve.resume_apply_ms": _ms(_median(
            [total - replay for total, replay in zip(resumes, replays)])),
        "resolve.match_edge_ratio": (counts.get("resolve.match_edges", 0)
                                     / scored if scored else 0.0),
        "resolve.retract_ms": _ms(_median(
            [span.own for span in spans if span.name == "resolve.retract"])),
        "resolve.edges_applied": float(_calls(spans, "resolve.apply_edge")),
        "resolve.largest_cluster": float(
            phase["counts"]["resolve.largest_cluster"]),
        "resolve.conflict_repairs": float(
            phase["counts"]["resolve.conflict_repairs"]),
    })
    return out


# ======================================================================
# serve-query
# ======================================================================
#: Queries per second of run: 10 s gives 240 queries (~8 s of serving), a
#: p90 with 24 samples beyond it.  The loop is closed (one client): an open
#: loop's latency is set by when arrivals meet slow spells of a shared host,
#: which moved its median by a third between runs.
SERVE_QUERIES_PER_SECOND = 24
#: One index_record write after every this many queries.
SERVE_QUERIES_PER_WRITE = 10
SERVE_INDEX_ENTITIES = 400
SERVE_INDEX_RECORDS = 600
SERVE_K = 16
#: Tier-1 answers re-scored live for the bitwise parity gate.
SERVE_PARITY_SAMPLES = 8
#: Restarts timed per process (recovery_s pools all set-up processes).
SERVE_RESTARTS = 8
#: Reference slices before each query or write, while the service is idle.
SERVE_SLICES = 3


def serve_inputs(seed: int, seconds: float) -> Dict[str, object]:
    """The index, the query/write sequence and the training pairs."""
    from repro.data.generators import generate_source_tables
    from repro.data.magellan import MAGELLAN_DATASETS, load_dataset

    dataset = load_dataset("DBLP-ACM", scale=_train_scale(), seed=seed)
    tables, _ = generate_source_tables(
        MAGELLAN_DATASETS["DBLP-ACM"].spec, SERVE_INDEX_ENTITIES,
        seed=seed + 1, sources=("tableA", "tableB", "tableC", "tableD"),
        overlap=0.9)
    index = (tables["tableA"] + tables["tableB"])[:SERVE_INDEX_RECORDS]
    queries, writes = tables["tableC"], tables["tableD"]
    total = round(SERVE_QUERIES_PER_SECOND * seconds)
    if len(index) < SERVE_INDEX_RECORDS or total > len(queries) \
            or total // SERVE_QUERIES_PER_WRITE > len(writes):
        raise ValueError("generated tables are too small for the schedule")
    events: List[Tuple[str, object]] = []
    for n in range(total):
        events.append(("query", queries[n]))
        if (n + 1) % SERVE_QUERIES_PER_WRITE == 0:
            events.append(("write", writes[n // SERVE_QUERIES_PER_WRITE]))
    return {
        "dataset": dataset, "index": index, "events": events,
        "sizes": {"index_records": len(index), "queries": total,
                  "writes": total // SERVE_QUERIES_PER_WRITE,
                  "train_pairs": len(dataset.split.train)},
    }


def serve_setup(seed: int, seconds: float, workdir: str) -> Dict[str, object]:
    from repro.blocking.ann import MinHashLSHBlocker
    from repro.core.hiergat import HierGAT
    from repro.serving import build_cascade
    from repro.store import build_store

    started = clock()
    state = serve_inputs(seed, seconds)
    generated = clock()
    # One epoch: the served model's cost per query does not depend on how
    # long it trained, and set-up runs three times per benchmark run.
    scale = dataclasses.replace(_train_scale(), epochs=1)
    matcher = HierGAT(scale=scale, seed=PROGRAM_SEED).fit(state["dataset"])
    fitted = clock()
    cascade = build_cascade(matcher, state["dataset"], seed=PROGRAM_SEED)
    store_dir = os.path.join(workdir, "store")
    shutil.rmtree(store_dir, ignore_errors=True)
    store = build_store(store_dir, matcher, state["index"])
    built = clock()
    state.update(
        matcher=matcher, cascade=cascade, store=store, store_dir=store_dir,
        blocker=MinHashLSHBlocker(seed=PROGRAM_SEED).fit(state["index"]),
        timings={"setup.generate_ms": _ms(generated - started),
                 "setup.fit_ms": _ms(fitted - generated),
                 "setup.store_build_ms": _ms(built - fitted)})
    return state


def serve_gates(submitted: int, answered: int, shed: int,
                service_conserved: bool,
                parity: Sequence[Tuple[np.ndarray, np.ndarray]]
                ) -> Dict[str, bool]:
    """The serve-query correctness gates (each can fail)."""
    return {
        "conserved": answered + shed == submitted and service_conserved,
        "tier1_bitwise_parity": bool(parity) and all(
            np.array_equal(served, reference)
            for served, reference in parity),
    }


def serve_recovery(state, count: int) -> List[float]:
    """Time ``count`` restarts: reopen the store and rebuild the blocking
    index, as a restarted server does before it can answer."""
    from repro.blocking.ann import MinHashLSHBlocker
    from repro.store import EmbeddingStore

    records = state["index"]

    def restart() -> None:
        store = EmbeddingStore.open(state["store_dir"])
        ok = store.bind(state["matcher"]._network)
        blocker = MinHashLSHBlocker(seed=PROGRAM_SEED).fit(records)
        if not (ok and store.get(records[0]) is not None and len(blocker)):
            raise RuntimeError("restarted store is not valid")

    return timed_calls(restart, count)


def serve_phase(state, workdir: str, tracer: Optional[Tracer],
                traced_run: bool) -> Dict[str, object]:
    from repro.blocking.ann import MinHashLSHBlocker
    from repro.data.schema import EntityPair
    from repro.guard.firewall import DataFirewall
    from repro.serving import InferenceService, ServingConfig
    from repro.serving.service import ServiceOverloaded
    from repro.store.scorer import StoreBackedScorer

    blocker = state.pop("blocker", None)
    if blocker is None:  # an earlier phase's writes grew the first index
        blocker = MinHashLSHBlocker(seed=PROGRAM_SEED).fit(state["index"])
    _fresh_caches()
    matcher, store = state["matcher"], state["store"]
    scorer = StoreBackedScorer(matcher, store=store)
    state["cascade"].tier1.matcher = scorer
    hits_before = store.stats.hits
    misses_before = store.stats.misses
    firewall = DataFirewall()
    service = InferenceService(
        state["cascade"],
        ServingConfig(num_workers=os.cpu_count() or 1),
        firewall=firewall, store=store, blocker=blocker).start()

    #: (cpu latency, wall latency, response, candidates, record, sent)
    answers: List[tuple] = []
    submitted = shed = 0
    speed = HostSpeed(clock)
    started, wall_started = clock(), wall_clock()
    for kind, record in state["events"]:
        speed.slice(SERVE_SLICES)
        if kind == "write":
            service.index_record(record)
            continue
        submitted += 1
        sent, wall_sent = clock(), wall_clock()
        try:
            candidates, pending = service.submit_query(record, k=SERVE_K)
        except ServiceOverloaded:
            shed += 1
            continue
        response = None if pending is None else pending.result(timeout=120)
        answers.append((clock() - sent, wall_clock() - wall_sent, response,
                        candidates, record, sent))
    cpu = clock() - started - speed.total
    wall = wall_clock() - wall_started - speed.total
    spans, span_counts = _snapshot(tracer)
    service.close()
    requests = service.stats()["requests"]
    recovery = serve_recovery(state, 4 if traced_run else SERVE_RESTARTS)

    latencies = [latency / speed.local(sent)
                 for latency, *_, sent in answers]
    tier1 = [(response, candidates, record)
             for _, _, response, candidates, record, _ in answers
             if response is not None and response.tier_level == 1
             and response.status == "ok" and not response.quarantined]
    reference = StoreBackedScorer(matcher, store=None)
    step = max(1, len(tier1) // SERVE_PARITY_SAMPLES)
    parity = []
    for response, candidates, record in tier1[::step][:SERVE_PARITY_SAMPLES]:
        pairs = [EntityPair(record, service.blocker.records[j], 0)
                 for j in candidates]
        parity.append((response.scores, reference.scores(pairs)))
    gates = serve_gates(submitted, len(answers), shed,
                        bool(requests["conserved"]), parity)
    responses = [response for _, _, response, *_ in answers
                 if response is not None]
    errors = sum(1 for response in responses if response.status == "error")
    degraded = sum(1 for response in responses if response.degraded)
    q, tail = tail_percentile(latencies)
    hits = store.stats.hits - hits_before
    misses = store.stats.misses - misses_before
    wall_latency = sum(latency for _, latency, *_ in answers)
    tier1_wall = sum(span.duration for span in spans
                     if span.name == "serving.tier1")
    return {
        "busy_wall": wall_latency,
        "spans": spans,
        "span_counts": span_counts,
        "metrics": {
            "throughput": len(answers) / cpu * speed.slowdown,
            "latency_p50_ms": _ms(percentile(latencies, 50)),
            "latency_tail_ms": _ms(tail),
            "recovery_s": _median(recovery),
        },
        "details": {
            "loop_cpu_s": cpu, "loop_wall_s": wall,
            "slowdown": speed.slowdown,
            "latency_samples": len(latencies), "latency_tail_percentile": q,
            "tier1_answers": len(tier1), "parity_samples": len(parity),
            "recovery_samples_s": recovery,
        },
        "gates": gates,
        "attempted": submitted,
        "failed": shed + errors,
        "counts": {
            "store.live_fallbacks_per_query": (
                scorer.live_fallbacks / max(1, len(tier1))),
            "blocking.candidates_per_call": (
                service.stats()["blocking"]["candidates_emitted"]
                / max(1, submitted - shed)),
            "guard.quarantined": float(firewall.stats.quarantined),
        },
        "layers": {
            "store.hit_ratio": hits / max(1, hits + misses),
            "serving.wait_ms": _ms((wall_latency - tier1_wall)
                                   / max(1, len(answers))),
            "serving.model_busy_share": tier1_wall / wall,
            "serving.shed": float(shed),
            "serving.degraded": float(degraded),
            **_cache_ratios(),
        },
    }


def serve_instrument(tracer: Tracer) -> None:
    from repro.blocking.ann import MinHashLSHBlocker
    from repro.core.hiergat import HierGATNetwork
    from repro.guard.firewall import DataFirewall
    from repro.serving.tiers import ScoringTier
    from repro.store import embedstore, scorer

    def count_candidates(args, result):
        tracer.count("blocking.candidates_emitted", len(result))

    tracer.instrument(MinHashLSHBlocker, "candidates", "blocking.candidates",
                      count_candidates)
    tracer.instrument(MinHashLSHBlocker, "add", "blocking.add")
    tracer.instrument(DataFirewall, "admit_pairs", "guard.admit")
    tracer.instrument(ScoringTier, "score",
                      lambda tier, *_: f"serving.tier{tier.level}")
    # The scorer module imported encode_record by name: wrap both.
    tracer.instrument(scorer, "encode_record", "model.encode")
    tracer.instrument(embedstore, "encode_record", "model.encode")
    tracer.instrument(HierGATNetwork, "head_from_wpc", "model.head")


def serve_layers(phase, tracer: Tracer) -> Dict[str, float]:
    out = _span_layers(phase)
    out.update(phase["counts"])
    out.update(phase["layers"])
    return out


# ======================================================================
# train
# ======================================================================
#: Fits per second of run: 10 s gives 4 fits, 180 optimizer steps, so the
#: p90 step latency has 18 samples beyond it.
TRAIN_FITS_PER_SECOND = 0.4
#: Held-out F1 floor, in percent like ``f1_score``.  It is taken on 200
#: fresh pairs: the 40-pair test split holds ~7 matches, so one unlucky draw
#: (seed 12) reads F1 0.0 for a model that scores 74.6 on 200 fresh pairs.
TRAIN_F1_FLOOR = 30.0
#: Seed offset of the held-out pairs, far from any workload seed.
TRAIN_HOLDOUT_SEED = 100_000
#: Checkpoint resumes timed after the fits.
TRAIN_RESUMES = 20


def train_inputs(seed: int) -> Dict[str, object]:
    from repro.data.magellan import load_dataset

    scale = _train_scale()
    dataset = load_dataset("DBLP-ACM", scale=scale, seed=seed)
    holdout = load_dataset("DBLP-ACM", scale=scale,
                           seed=seed + TRAIN_HOLDOUT_SEED).pairs
    return {
        "scale": scale, "dataset": dataset, "holdout": holdout,
        "sizes": {"train_pairs": len(dataset.split.train),
                  "valid_pairs": len(dataset.split.valid),
                  "holdout_pairs": len(holdout), "epochs": scale.epochs},
    }


def train_setup(seed: int, seconds: float) -> Dict[str, object]:
    from repro.lm.checkpoint import load_checkpoint

    started = clock()
    state = train_inputs(seed)
    generated = clock()
    load_checkpoint("roberta", state["scale"])
    state["fits"] = max(1, round(seconds * TRAIN_FITS_PER_SECOND))
    state["sizes"]["fits"] = state["fits"]
    state["timings"] = {"setup.generate_ms": _ms(generated - started)}
    return state


def train_recovery(state, workdir: str, count: int
                   ) -> Tuple[List[float], bool]:
    """Time ``count`` resumes of a finished one-epoch fit's checkpoint; also
    whether the resumed model is bitwise the fitted one."""
    from repro.core.hiergat import HierGAT

    dataset = state["dataset"]
    scale = dataclasses.replace(state["scale"], epochs=1)
    checkpoint = os.path.join(workdir, "train-ckpt")
    shutil.rmtree(checkpoint, ignore_errors=True)
    _fresh_caches()
    fitted = HierGAT(scale=scale, seed=PROGRAM_SEED).fit(
        dataset, checkpoint_dir=checkpoint)
    resumed = []

    def resume() -> None:
        resumed[:] = [HierGAT(scale=scale, seed=PROGRAM_SEED).fit(
            dataset, checkpoint_dir=checkpoint, resume=True)]

    samples = timed_calls(resume, count)
    resumed = resumed[0]
    live = fitted._network.state_dict()
    restored = resumed._network.state_dict()
    equal = (live.keys() == restored.keys()
             and all(np.array_equal(live[key], restored[key])
                     for key in live)
             and resumed.threshold == fitted.threshold)
    return samples, equal


def train_gates(losses: Sequence[float], f1: float,
                resumed_equal: bool) -> Dict[str, bool]:
    """The train correctness gates (each can fail)."""
    return {
        "loss_finite": bool(losses) and bool(np.all(np.isfinite(losses))),
        "holdout_f1_above_floor": f1 >= TRAIN_F1_FLOOR,
        "resume_bitwise_equal": resumed_equal,
    }


def instrument_steps(tracer: Tracer, on_step=None) -> None:
    """Spans :func:`training_steps` reads: training-mode forwards (eval
    forwards get a name of their own) and optimizer updates, after each of
    which ``on_step(args, result)`` runs."""
    from repro.autograd.optim import Adam
    from repro.core.hiergat import HierGATNetwork

    tracer.instrument(
        HierGATNetwork, "forward",
        lambda network, *_: ("model.forward" if network.training
                             else "model.eval_forward"))
    tracer.instrument(Adam, "step", "optim.step", on_step)


def training_steps(spans: Sequence[Span]) -> List[Tuple[float, float]]:
    """``(start, latency)`` of every optimizer step: the first training
    forward after an update opens a step, the next update closes it."""
    steps: List[Tuple[float, float]] = []
    opened: Optional[float] = None
    for span in spans:
        if span.name == "model.forward" and opened is None:
            opened = span.start
        elif span.name == "optim.step" and opened is not None:
            steps.append((opened, span.start + span.duration - opened))
            opened = None
    return steps


def train_phase(state, workdir: str, tracer: Optional[Tracer],
                traced_run: bool) -> Dict[str, object]:
    from repro.core.hiergat import HierGAT
    from repro.core.metrics import f1_score

    dataset, scale = state["dataset"], state["scale"]
    # Step boundaries, on the CPU clock, with a reference slice after each
    # update.
    speed = HostSpeed(clock)
    timer = Tracer(clock=clock)
    instrument_steps(timer, lambda args, result: speed.slice())
    fit_cpu: List[float] = []
    fit_wall: List[float] = []
    losses: List[float] = []
    failed = 0
    model = None
    try:
        for _ in range(state["fits"]):
            _fresh_caches()
            sliced = speed.total
            began, wall_began = clock(), wall_clock()
            try:
                model = HierGAT(scale=scale, seed=PROGRAM_SEED).fit(dataset)
            except RuntimeError:  # diverged after every NaN rollback
                failed += 1
                continue
            fit_cpu.append(clock() - began - (speed.total - sliced))
            fit_wall.append(wall_clock() - wall_began
                            - (speed.total - sliced))
            losses.extend(model.train_result.losses)
    finally:
        timer.restore()
    if model is None:
        raise RuntimeError("every fit diverged")
    spans, span_counts = _snapshot(tracer)
    caches = _cache_ratios()
    recovery, resumed_equal = train_recovery(
        state, workdir, 2 if traced_run else TRAIN_RESUMES)

    holdout = state["holdout"]
    f1 = f1_score(model.predict(holdout), [p.label for p in holdout])
    gates = train_gates(losses, f1, resumed_equal)
    pairs = len(dataset.split.train) * scale.epochs * len(fit_cpu)
    steps = [latency / speed.local(opened)
             for opened, latency in training_steps(timer.spans)]
    q, tail = tail_percentile(steps)
    return {
        "busy_wall": sum(fit_wall),
        "spans": spans,
        "span_counts": span_counts,
        "metrics": {
            "throughput": pairs / sum(fit_cpu) * speed.slowdown,
            "latency_p50_ms": _ms(percentile(steps, 50)),
            "latency_tail_ms": _ms(tail),
            "recovery_s": _median(recovery),
        },
        "details": {
            "fit_cpu_s": fit_cpu, "fit_wall_s": fit_wall,
            "slowdown": speed.slowdown,
            "latency_samples": len(steps),
            "latency_tail_percentile": q, "holdout_f1": f1,
            "final_losses": losses[-scale.epochs:],
            "recovery_samples_s": recovery,
        },
        "gates": gates,
        "attempted": state["fits"],
        "failed": failed,
        "counts": {"train.steps": float(len(steps))},
        "layers": caches,
    }


def train_instrument(tracer: Tracer) -> None:
    from repro.autograd.tensor import Tensor

    instrument_steps(tracer)
    tracer.instrument(Tensor, "backward", "autograd.backward")


def train_layers(phase, tracer: Tracer) -> Dict[str, float]:
    out = _span_layers(phase)
    out.update(phase["counts"])
    out.update(phase["layers"])
    return out


# ======================================================================
def _snapshot(tracer: Optional[Tracer]):
    """The spans and counts recorded so far: a phase's measured part, before
    its recovery calls add more."""
    if tracer is None:
        return [], {}
    return list(tracer.spans), dict(tracer.counts)


def _calls(spans: Sequence[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def _span_layers(phase) -> Dict[str, float]:
    """Self time per layer (median of one call, and share of the busy wall
    time), candidate yield and the time no span covers."""
    spans, busy = phase["spans"], phase["busy_wall"]
    out: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        own = [span.own for span in spans if span.name == layer]
        out[f"{layer}_ms"] = _ms(_median(own))
        out[f"{layer}_share"] = sum(own) / busy if busy else 0.0
    out["blocking.candidates_per_call"] = (
        phase["span_counts"].get("blocking.candidates_emitted", 0)
        / max(1, _calls(spans, "blocking.candidates")))
    out["other_ms"] = _ms(busy - sum(span.own for span in spans))
    return out


@dataclasses.dataclass(frozen=True)
class Workload:
    """Everything ``run.py`` and ``worker.py`` know of a workload."""

    #: ``(seed, seconds, workdir) -> state``: inputs and the program's
    #: state up to the first timed operation.
    setup: Callable[[int, float, str], Dict[str, object]]
    #: ``(state, workdir, tracer, traced_run) -> measured``: one measured
    #: phase.  A traced run measures twice (untraced, then traced), so it
    #: repeats the recovery work fewer times.
    phase: Callable[..., Dict[str, object]]
    #: Wraps the calls into each layer for the traced phase.
    instrument: Callable[[Tracer], None]
    #: ``(measured, tracer) -> per-layer metrics``.
    layers: Callable[..., Dict[str, float]]
    #: ``state -> recovery samples`` a set-up-only process adds to the
    #: run's pool.  Cheap restarts are thus sampled at several moments of
    #: the run; a WAL resume needs the measured stream, a checkpoint resume
    #: a fit.
    setup_recovery: Callable[[Dict[str, object]], List[float]] = (
        lambda state: [])
    #: The reference slice whose speed tracks the workload's work.
    reference: Reference = INTERPRETER


WORKLOADS = {
    "resolve-stream": Workload(
        lambda seed, seconds, workdir: resolve_setup(seed, seconds),
        resolve_phase, resolve_instrument, resolve_layers,
        reference=TABLE),
    "serve-query": Workload(
        serve_setup, serve_phase, serve_instrument, serve_layers,
        lambda state: serve_recovery(state, SERVE_RESTARTS)),
    "train": Workload(
        lambda seed, seconds, workdir: train_setup(seed, seconds),
        train_phase, train_instrument, train_layers),
}


def phase(workload: str, state, workdir: str, tracer: Optional[Tracer],
          traced_run: bool) -> Dict[str, object]:
    """One measured phase, traced when ``tracer`` is given."""
    entry = WORKLOADS[workload]
    if tracer is not None:
        entry.instrument(tracer)
    try:
        return entry.phase(state, workdir, tracer, traced_run)
    finally:
        if tracer is not None:
            tracer.restore()
