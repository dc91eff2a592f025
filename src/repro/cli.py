"""Command-line interface: ``python -m repro <command>``.

Commands:
    datasets                      list the available benchmarks
    train --dataset NAME          train a matcher, report test F1, optionally save
    resume --dataset NAME         continue a killed training run from its checkpoint
    bench EXPERIMENT [...]        regenerate one or more paper tables/figures
    inspect --dataset NAME        print sample pairs and dataset statistics
    profile --dataset NAME        train under the op-level profiler, print hot ops
    embed --dataset NAME          build/refresh embedding-store shards for serving
    serve --dataset NAME          drive traffic through the online serving layer
    resolve --wal DIR             stream records through the crash-safe incremental cluster store
    quarantine --store PATH       inspect or replay a JSONL quarantine store
    lint [PATHS...]               check the determinism/gradient/concurrency invariants (R001-R010)
    lockgraph [--soak]            emit the static ∪ dynamic lock acquisition graph
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import Scale, set_scale

MATCHER_CHOICES = ("hiergat", "hiergat+", "ditto", "deepmatcher", "magellan",
                   "dmplus", "gcn", "gat", "hgat")


def _make_matcher(name: str):
    from repro.core import HierGAT, HierGATPlus
    from repro.matchers import (
        DeepMatcherModel, DittoModel, DMPlusMatcher, GATMatcher, GCNMatcher,
        HGATMatcher, MagellanMatcher,
    )

    factories = {
        "hiergat": HierGAT, "hiergat+": HierGATPlus, "ditto": DittoModel,
        "deepmatcher": DeepMatcherModel, "magellan": MagellanMatcher,
        "dmplus": DMPlusMatcher, "gcn": GCNMatcher, "gat": GATMatcher,
        "hgat": HGATMatcher,
    }
    return factories[name]()


def _apply_scale(args) -> None:
    scale = Scale.ci() if getattr(args, "fast", False) else Scale.bench()
    set_scale(scale)


def cmd_datasets(_args) -> int:
    from repro.data.magellan import DIRTY_DATASETS, MAGELLAN_DATASETS
    from repro.data.wdc import WDC_DOMAINS, WDC_SIZES

    print("Magellan benchmarks (Table 1):")
    for name, info in MAGELLAN_DATASETS.items():
        dirty = " [+dirty]" if name in DIRTY_DATASETS else ""
        print(f"  {name:16s} {info.domain:12s} paper size {info.size:7d} "
              f"pos {info.positives:6d}{dirty}")
    print(f"WDC domains: {', '.join(WDC_DOMAINS)} + all; sizes: {', '.join(WDC_SIZES)}")
    print("DI2KG (collective): camera, monitor")
    return 0


def cmd_train(args, resume: bool = False) -> int:
    _apply_scale(args)
    from repro.data import load_dataset
    from repro.reliability import COUNTERS, TrainingKilled

    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if resume and not checkpoint_dir:
        print("resume requires --checkpoint-dir", file=sys.stderr)
        return 2

    dataset = load_dataset(args.dataset, dirty=args.dirty)
    print(dataset.summary())
    matcher = _make_matcher(args.matcher)
    if args.matcher == "hiergat+":
        print("hiergat+ is collective; use --dataset with a raw-table benchmark",
              file=sys.stderr)
        from repro.harness.collective import load_collective_dataset
        from repro.config import get_scale

        collective = load_collective_dataset(args.dataset, get_scale())
        matcher.fit(collective)
        print(f"test F1 = {matcher.test_f1_collective(collective):.1f}")
        return 0

    fit_kwargs = {}
    if checkpoint_dir:
        import inspect

        if "checkpoint_dir" not in inspect.signature(matcher.fit).parameters:
            print(f"matcher {args.matcher!r} does not support checkpointed "
                  f"training", file=sys.stderr)
            return 2
        fit_kwargs = {"checkpoint_dir": checkpoint_dir, "resume": resume}
    try:
        matcher.fit(dataset, **fit_kwargs)
    except TrainingKilled as exc:
        print(f"training killed: {exc}", file=sys.stderr)
        print(f"restart with: repro resume --dataset {args.dataset} "
              f"--checkpoint-dir {checkpoint_dir}", file=sys.stderr)
        return 3
    result = getattr(matcher, "train_result", None)
    if resume and result is not None and result.resumed_from is not None:
        print(f"resumed from epoch {result.resumed_from} "
              f"(checkpoint: {checkpoint_dir})")
    elif resume:
        print("no usable checkpoint found; trained from scratch")
    print(f"test F1 = {matcher.test_f1(dataset):.1f}")
    recovered = {k: v for k, v in COUNTERS.as_dict().items() if v}
    if recovered:
        print("recovery counters: "
              + ", ".join(f"{k}={v}" for k, v in sorted(recovered.items())))
    if args.save:
        from repro.persistence import save_matcher

        print(f"saved to {save_matcher(matcher, args.save)}")
    return 0


def cmd_resume(args) -> int:
    """Continue a killed ``train --checkpoint-dir`` run bitwise-identically."""
    return cmd_train(args, resume=True)


def cmd_bench(args) -> int:
    _apply_scale(args)
    from repro.harness import EXPERIMENTS

    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments {unknown}; available: {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    for experiment in args.experiments:
        print(EXPERIMENTS[experiment]().render())
        print()
    return 0


def cmd_inspect(args) -> int:
    _apply_scale(args)
    from repro.data import load_dataset

    dataset = load_dataset(args.dataset, dirty=args.dirty)
    print(dataset.summary())
    shown = 0
    for pair in dataset.pairs:
        if shown >= args.num:
            break
        tag = "MATCH    " if pair.label else "NON-MATCH"
        print(f"\n[{tag}]")
        print("  A:", dict(pair.left.attributes))
        print("  B:", dict(pair.right.attributes))
        shown += 1
    return 0


def cmd_profile(args) -> int:
    _apply_scale(args)
    from repro import perf
    from repro.perf.profiler import wall_clock
    from repro.data import load_dataset

    use_store = args.store != "off"
    if use_store and args.matcher != "hiergat":
        print("--store requires the hiergat matcher (the encoder/GAT split)",
              file=sys.stderr)
        return 2

    dataset = load_dataset(args.dataset, dirty=args.dirty)
    matcher = _make_matcher(args.matcher)
    perf.reset_stats()
    store_scorer = None
    start = wall_clock()
    with perf.profile() as prof:
        matcher.fit(dataset)
        f1 = matcher.test_f1(dataset)
        if use_store:
            from repro.store import StoreBackedScorer, build_store

            store_dir = args.store_dir or f".repro-store/{args.dataset}-{args.store}"
            entities = [entity for pair in dataset.split.test
                        for entity in (pair.left, pair.right)]
            store = build_store(store_dir, matcher, entities, dtype=args.store)
            store_scorer = StoreBackedScorer(matcher, store=store)
            store_scorer.scores(dataset.split.test)
    wall = wall_clock() - start

    print(prof.report(args.top))
    print()
    print(f"wall time      {wall:.2f}s  (fit + test predict, {args.dataset})")
    print(f"test F1        {f1:.1f}")
    for name, stats in perf.cache_stats().items():
        print(f"cache[{name}]   hits={stats['hits']} misses={stats['misses']} "
              f"evictions={stats['evictions']} hit_rate={stats['hit_rate']:.0%}")
    if store_scorer is not None:
        stats = store_scorer.stats()
        store_counts = stats["store"]
        print(f"store[{stats['dtype']}] hits={store_counts['hits']} "
              f"misses={store_counts['misses']} "
              f"stale={store_counts['stale_misses']} "
              f"corrupt_shards={store_counts['corrupt_shards']} "
              f"live_fallbacks={stats['live_fallbacks']}")
    return 0


def cmd_embed(args) -> int:
    """Build or refresh embedding-store shards for a dataset.

    Trains the (deterministic, seeded) HierGAT matcher, materializes the
    frozen-encoder embeddings of every record in the dataset into the store
    directory, and optionally verifies store-vs-live parity on the test
    split.  Re-running after an interrupted build discards partial writes
    and completes the store; the training seed makes the rebuilt weights —
    and therefore the store's weights digest — identical.
    """
    _apply_scale(args)
    from repro.data import load_dataset
    from repro.store import build_store, parity_report

    if args.matcher != "hiergat":
        print("embed requires the hiergat matcher (the encoder/GAT split)",
              file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset, dirty=args.dirty)
    matcher = _make_matcher(args.matcher)
    print(f"fitting {args.matcher} on {args.dataset} ...", file=sys.stderr)
    matcher.fit(dataset)
    entities = []
    for split in (dataset.split.train, dataset.split.valid, dataset.split.test):
        for pair in split:
            entities.append(pair.left)
            entities.append(pair.right)
    store = build_store(args.store, matcher, entities, dtype=args.dtype,
                        shard_size=args.shard_size)
    print(f"built store at {args.store}: {len(store)} records, "
          f"dtype={store.dtype}, "
          f"shards={len(store.manifest['checksums']) // 2}")
    if args.verify:
        report = parity_report(matcher, store, dataset.split.test)
        print(f"verify: pairs={report['pairs']} bitwise={report['bitwise']} "
              f"max_abs_diff={report['max_abs_diff']:.3e} "
              f"store_hits={report['store_hits']} "
              f"live_fallbacks={report['live_fallbacks']}")
        if store.dtype == "float32" and not report["bitwise"]:
            print("VERIFY FAILED: float32 store mode must match the live "
                  "encoder path bitwise", file=sys.stderr)
            return 1
        if report["live_fallbacks"]:
            print("VERIFY FAILED: a freshly built store must cover every "
                  "test record (live fallbacks observed)", file=sys.stderr)
            return 1
    return 0


def cmd_serve(args) -> int:
    """Stand up the online serving layer and drive concurrent traffic.

    Without ``--soak`` this is a clean-traffic run (the latency baseline);
    with ``--soak`` the standard chaos plan injects transient faults, cache
    poisonings, and stalls while the harness asserts conservation and
    tier-1 bitwise parity.  ``--replicas N`` swaps the single-process
    service for the multi-process cluster router (N replica processes,
    cross-request batch coalescing, sharded blocking); ``--soak`` then
    also injects replica-side faults, and ``--kill-replica`` SIGKILLs a
    replica mid-soak to exercise failover + respawn.  Exit status 1 if
    any invariant fails.
    """
    _apply_scale(args)
    import json as _json

    from repro.data import load_dataset
    from repro.serving import (
        ServingConfig, build_cascade, default_chaos_plan, run_soak,
    )

    dataset = load_dataset(args.dataset, dirty=args.dirty)
    matcher = _make_matcher(args.matcher)
    print(f"fitting tier-1 matcher ({args.matcher}) on {args.dataset} ...",
          file=sys.stderr)
    matcher.fit(dataset)
    print("fitting fallback tiers (magellan features, tfidf floor) ...",
          file=sys.stderr)
    cascade = build_cascade(matcher, dataset)

    store = None
    if args.store is not None:
        if args.matcher != "hiergat":
            print("--store requires the hiergat matcher "
                  "(the encoder/GAT split)", file=sys.stderr)
            return 2
        from repro.store import EmbeddingStore, build_store

        try:
            store = EmbeddingStore.open(args.store)
            store.bind(matcher._network)
        except FileNotFoundError:
            store = None
        if store is None or not store.valid():
            print(f"building embedding store at {args.store} "
                  f"(dtype={args.store_dtype}) ...", file=sys.stderr)
            entities = [entity for pair in dataset.split.test
                        for entity in (pair.left, pair.right)]
            store = build_store(args.store, matcher, entities,
                                dtype=args.store_dtype)

    if args.replicas:
        from repro.serving import (
            ClusterConfig, ReplicaKill, default_cluster_chaos_plan,
            default_replica_fault_specs, run_cluster_soak,
        )

        cluster_config = ClusterConfig(
            replicas=args.replicas,
            queue_capacity=args.capacity,
            default_deadline=args.deadline,
            replica_faults=(default_replica_fault_specs()
                            if args.soak else ()))
        report = run_cluster_soak(
            cascade, dataset.split.test, config=cluster_config,
            plan=default_cluster_chaos_plan() if args.soak else None,
            n_clients=args.clients, requests_per_client=args.requests,
            pairs_per_request=args.pairs, deadline_s=args.deadline,
            seed=args.seed, store_path=args.store,
            kill=ReplicaKill() if args.kill_replica else None,
            lockcheck=True if args.lockcheck else None)
    else:
        config = ServingConfig(queue_capacity=args.capacity,
                               num_workers=args.workers,
                               default_deadline=args.deadline)
        plan = default_chaos_plan() if args.soak else None
        report = run_soak(
            cascade, dataset.split.test, config=config, plan=plan,
            n_clients=args.clients, requests_per_client=args.requests,
            pairs_per_request=args.pairs, deadline_s=args.deadline,
            seed=args.seed, store=store,
            lockcheck=True if args.lockcheck else None)

    if args.json:
        print(_json.dumps(report.as_dict(), indent=2, default=str))
    else:
        print(report.summary())
        breaker = report.service_stats.get("breaker")
        if breaker is not None:
            print(f"breaker: state={breaker['state']} "
                  f"opened={breaker['opened']} "
                  f"short_circuits={breaker['short_circuits']}")
        store_stats = report.service_stats.get("store")
        if store_stats:
            counts = store_stats["store"]
            print(f"store[{store_stats['dtype']}]: hits={counts['hits']} "
                  f"misses={counts['misses']} "
                  f"live_fallbacks={store_stats['live_fallbacks']}")
    if not report.ok:
        print("SOAK FAILED: "
              + ("requests lost; " if not report.conserved else "")
              + ("tier-1 parity broken; " if not report.tier1_parity else "")
              + ("lock-order/guarded-write violations"
                 if not report.locks_clean else ""),
              file=sys.stderr)
        return 1
    return 0


def cmd_resolve(args) -> int:
    """Stream multi-source records through the incremental cluster store.

    Generates a deterministic multi-source record stream (same generator
    as the collective-ER pipeline), offers it to a WAL-backed
    :class:`~repro.resolve.stream.StreamingResolver` with a seeded
    out-of-order schedule and scheduled retractions, and prints the
    conservation stats plus the cluster-state digest.

    The stream parameters are persisted to ``<wal>/stream.json``
    (atomically, tmp + ``os.replace``) so ``--resume`` after a crash —
    including a ``kill -9``, which ``--kill-after`` self-inflicts —
    regenerates the identical stream, loads the last shutdown checkpoint
    and replays the WAL after it, re-offers the records
    (already-ingested uids are rejected as duplicates), and ends in a
    bitwise-identical cluster state: equal digests.
    """
    import hashlib as _hashlib
    import json as _json
    import os as _os
    import signal as _signal

    import numpy as _np

    from repro.data.generators import generate_source_tables
    from repro.data.magellan import MAGELLAN_DATASETS
    from repro.resolve import (
        JaccardScorer, ResolveConfig, StreamingResolver, WriteAheadLog,
    )

    if args.fast:
        set_scale(Scale.ci())
    params_path = _os.path.join(args.wal, "stream.json")
    if args.resume:
        if not _os.path.exists(params_path):
            print(f"no stream parameters at {params_path}; was this WAL "
                  f"written by `repro resolve`?", file=sys.stderr)
            return 1
        with open(params_path, encoding="utf-8") as fh:
            params = _json.load(fh)
    else:
        params = {
            "dataset": args.dataset,
            "records": args.records,
            "sources": args.sources,
            "overlap": args.overlap,
            "seed": args.seed,
            "retract_rate": args.retract_rate,
            "match_threshold": args.match_threshold,
            "nonmatch_threshold": args.nonmatch_threshold,
            "reorder_window": args.reorder_window,
        }
        _os.makedirs(args.wal, exist_ok=True)
        tmp = f"{params_path}.tmp.{_os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            _json.dump(params, fh, sort_keys=True, indent=2)
        _os.replace(tmp, params_path)

    # The stream is a pure function of the persisted parameters: same
    # records, same sequence numbers, same out-of-order offer schedule.
    spec = MAGELLAN_DATASETS[params["dataset"]].spec
    sources = tuple(f"s{i}" for i in range(params["sources"]))
    tables, _truth = generate_source_tables(
        spec, params["records"], seed=params["seed"], sources=sources,
        overlap=params["overlap"])
    records = [r for source in sorted(tables) for r in tables[source]]
    rng = _np.random.default_rng(params["seed"])
    block = max(2, min(8, params["reorder_window"] // 2))
    schedule: List[int] = []
    for start in range(0, len(records), block):
        indices = _np.arange(start, min(start + block, len(records)))
        rng.shuffle(indices)
        schedule.extend(int(i) for i in indices)
    retract_uids = [
        record.uid for record in records
        if int(_hashlib.blake2b(f"{params['seed']}:{record.uid}".encode(),
                                digest_size=4).hexdigest(), 16) / 0xFFFFFFFF
        < params["retract_rate"]]

    config = ResolveConfig(
        match_threshold=params["match_threshold"],
        nonmatch_threshold=params["nonmatch_threshold"],
        reorder_capacity=params["reorder_window"],
        seed=params["seed"])
    scorer = JaccardScorer()
    recovered = 0
    if args.resume:
        resolver = StreamingResolver.resume(
            scorer, WriteAheadLog(args.wal), config=config)
        recovered = int(resolver.stats()["ingested"])
    else:
        resolver = StreamingResolver(
            scorer, config=config, wal=WriteAheadLog(args.wal))

    offered = 0
    for index in schedule:
        resolver.offer(records[index], seq=index)
        offered += 1
        if args.kill_after is not None and offered >= args.kill_after:
            _os.kill(_os.getpid(), _signal.SIGKILL)
    for uid in retract_uids:
        resolver.retract(uid, reason="scheduled-retraction")
    resolver.close()

    stats = resolver.stats()
    report = {
        "stats": stats,
        "store": resolver.store.stats(),
        "digest": resolver.store.digest(),
        "recovered": recovered,
        "retractions_scheduled": len(retract_uids),
        "wal_segments": len(resolver.wal.segments),
    }
    if args.json:
        print(_json.dumps(report, sort_keys=True, indent=2))
    else:
        mode = f"resumed ({recovered} records recovered)" \
            if args.resume else "fresh"
        print(f"resolve: {mode}")
        print(f"  ingested  {stats['ingested']}")
        print(f"  clustered {stats['clustered']}")
        print(f"  retracted {stats['retracted']}  "
              f"({len(retract_uids)} scheduled)")
        print(f"  conserved {stats['conserved']}")
        store_stats = report["store"]
        print(f"  clusters  {store_stats['clusters']} over "
              f"{store_stats['records']} records "
              f"({store_stats['match_edges']} match / "
              f"{store_stats['nonmatch_edges']} non-match edges)")
        print(f"  digest    {report['digest']}")
    return 0 if stats["conserved"] else 1


def cmd_quarantine(args) -> int:
    """Inspect a quarantine store; with ``--replay``, re-offer every record.

    Replay builds a fresh :class:`~repro.guard.firewall.DataFirewall` with
    the (possibly relaxed) schema from the flags and offers each held
    record again: records that now validate are removed from the store
    (and written to ``--out`` if given), the rest stay quarantined and the
    JSONL file is rewritten atomically.
    """
    import json as _json

    from repro.guard import DataFirewall, QuarantineStore, RecordSchema

    store = QuarantineStore.load(args.store)
    if not len(store):
        print(f"{args.store}: quarantine empty")
        return 0
    print(f"{args.store}: {len(store)} quarantined record(s)")
    for reason, count in sorted(store.by_reason().items()):
        print(f"  {reason:20s} {count}")
    for record in store.records[:args.num]:
        print(f"  [{record.reason}] {record.source}:row {record.row} "
              f"uid={record.uid!r}  {record.detail}")
    if len(store) > args.num:
        print(f"  ... ({len(store) - args.num} more; raise --num to see them)")
    if not args.replay:
        return 0

    schema = RecordSchema(max_value_chars=args.max_value_chars,
                          max_null_fraction=args.max_null_fraction)
    firewall = DataFirewall(schema=schema, store=store)
    accepted, remaining = firewall.replay()
    print(f"replay: {len(accepted)} accepted, {remaining} still quarantined "
          f"({args.store} rewritten)")
    if args.out and accepted:
        with open(args.out, "w", encoding="utf-8") as fh:
            for entity in accepted:
                fh.write(_json.dumps({"uid": entity.uid,
                                      "values": dict(entity.attributes)},
                                     sort_keys=True) + "\n")
        print(f"wrote {len(accepted)} replayed record(s) to {args.out}")
    return 0


def cmd_lockgraph(args) -> int:
    """Emit the merged static ∪ dynamic lock acquisition graph.

    The static half is the R008 collection (every nested ``with`` plus
    one level of interprocedural resolution) annotated with
    ``LOCK_HIERARCHY`` ranks; ``--soak`` additionally runs a small
    lock-checked chaos soak and merges the dynamically observed edges
    and per-lock hold-time percentiles.  Exit 1 if the merged graph has
    a cycle or the dynamic run reported violations.
    """
    import json as _json

    from repro.analysis.concurrency import build_static_graph, find_cycles

    graph = build_static_graph(args.root, tuple(args.paths))
    edges: dict = {(e["src"], e["dst"]): dict(e, origin="static")
                   for e in graph["edges"]}
    dynamic = None
    if args.soak:
        _apply_scale(args)
        from repro.data import load_dataset
        from repro.serving import build_cascade, default_chaos_plan, run_soak

        dataset = load_dataset(args.dataset, dirty=args.dirty)
        matcher = _make_matcher("hiergat")
        print(f"fitting tier-1 matcher on {args.dataset} for the dynamic "
              f"half ...", file=sys.stderr)
        matcher.fit(dataset)
        report = run_soak(
            build_cascade(matcher, dataset), dataset.split.test,
            plan=default_chaos_plan(), n_clients=2, requests_per_client=4,
            pairs_per_request=4, seed=0, lockcheck=True)
        dynamic = report.lockcheck
        for edge in dynamic["edges"]:
            key = (edge["src"], edge["dst"])
            if key in edges:
                edges[key]["origin"] = "both"
                edges[key]["dynamic_count"] = edge["count"]
            else:
                edges[key] = {"src": edge["src"], "dst": edge["dst"],
                              "count": edge["count"], "origin": "dynamic"}
    cycles = find_cycles(edges)
    violations = []
    if dynamic is not None:
        violations = (list(dynamic["order_violations"])
                      + list(dynamic["unguarded_writes"]))
    merged = {
        "hierarchy": graph["hierarchy"],
        "nodes": sorted(set(graph["nodes"])
                        | {name for key in edges for name in key}),
        "edges": [edges[key] for key in sorted(edges)],
        "cycles": cycles,
        "acyclic": not cycles,
        "violations": violations,
        "hold_ms": dynamic["hold_ms"] if dynamic else {},
        "acquisitions": dynamic["acquisitions"] if dynamic else {},
    }
    if args.dot:
        print(_dot_graph(merged))
    else:
        print(_json.dumps(merged, indent=2))
    if cycles or violations:
        print("LOCKGRAPH FAILED: "
              + (f"{len(cycles)} cycle(s); " if cycles else "")
              + (f"{len(violations)} dynamic violation(s)"
                 if violations else ""),
              file=sys.stderr)
        return 1
    return 0


def _dot_graph(merged) -> str:
    """Graphviz DOT for the merged acquisition graph."""
    lines = ["digraph lockorder {", "  rankdir=LR;",
             '  node [shape=box, fontname="monospace"];']
    hierarchy = merged["hierarchy"]
    for name in merged["nodes"]:
        rank = hierarchy.get(name)
        label = name if rank is None else f"{name}\\nrank {rank}"
        shape = ' style=dashed' if rank is None else ""
        lines.append(f'  "{name}" [label="{label}"{shape}];')
    styles = {"static": "solid", "dynamic": "dashed", "both": "bold"}
    for edge in merged["edges"]:
        hold = merged["hold_ms"].get(edge["dst"])
        label = edge["origin"]
        if hold is not None:
            label += f"\\np99 {hold['p99_ms']:.2f}ms"
        lines.append(
            f'  "{edge["src"]}" -> "{edge["dst"]}" '
            f'[label="{label}", style={styles[edge["origin"]]}];')
    lines.append("}")
    return "\n".join(lines)


def cmd_lint(args) -> int:
    """Run the static invariant rules; exit 0 iff the tree is clean."""
    from repro.analysis import Analyzer

    if args.sanitize:
        from repro.analysis import sanitizer

        sanitizer.enable()
        print("write-sanitizer enabled for this process "
              "(graph-visible arrays frozen)", file=sys.stderr)

    analyzer = Analyzer(root=args.root)
    report = analyzer.run(args.paths)
    print(report.to_json() if args.json else report.human())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available benchmarks")

    train = sub.add_parser("train", help="train a matcher on a benchmark")
    train.add_argument("--dataset", required=True)
    train.add_argument("--matcher", choices=MATCHER_CHOICES, default="hiergat")
    train.add_argument("--dirty", action="store_true")
    train.add_argument("--save", default=None, help="save fitted model to .npz")
    train.add_argument("--fast", action="store_true", help="tiny CI scale")
    train.add_argument("--checkpoint-dir", default=None,
                       help="write atomic epoch checkpoints here (crash-safe)")

    resume = sub.add_parser(
        "resume", help="continue a killed training run from its checkpoint")
    resume.add_argument("--dataset", required=True)
    resume.add_argument("--matcher", choices=MATCHER_CHOICES, default="hiergat")
    resume.add_argument("--dirty", action="store_true")
    resume.add_argument("--save", default=None, help="save fitted model to .npz")
    resume.add_argument("--fast", action="store_true", help="tiny CI scale")
    resume.add_argument("--checkpoint-dir", required=True,
                        help="checkpoint directory of the killed run")

    bench = sub.add_parser("bench", help="regenerate paper tables/figures")
    bench.add_argument("experiments", nargs="+")
    bench.add_argument("--fast", action="store_true")

    inspect = sub.add_parser("inspect", help="print sample pairs")
    inspect.add_argument("--dataset", required=True)
    inspect.add_argument("--dirty", action="store_true")
    inspect.add_argument("--num", type=int, default=3)
    inspect.add_argument("--fast", action="store_true")

    profile = sub.add_parser("profile", help="train under the op-level profiler")
    profile.add_argument("--dataset", required=True)
    profile.add_argument("--matcher", choices=MATCHER_CHOICES, default="hiergat")
    profile.add_argument("--dirty", action="store_true")
    profile.add_argument("--top", type=int, default=10, help="ops to show")
    profile.add_argument("--fast", action="store_true", help="tiny CI scale")
    profile.add_argument("--store", choices=("off", "float32", "float16", "int8"),
                         default="off",
                         help="also build an embedding store and profile "
                              "store-backed scoring (prints store hits)")
    profile.add_argument("--store-dir", default=None,
                         help="store directory for --store (default: "
                              ".repro-store/<dataset>-<dtype>)")

    embed = sub.add_parser(
        "embed", help="build/refresh embedding-store shards for serving")
    embed.add_argument("--dataset", required=True)
    embed.add_argument("--matcher", choices=MATCHER_CHOICES, default="hiergat")
    embed.add_argument("--dirty", action="store_true")
    embed.add_argument("--store", required=True,
                       help="store directory to build/refresh")
    embed.add_argument("--dtype", choices=("float32", "float16", "int8"),
                       default="float32",
                       help="stored embedding format (quantized modes "
                            "persist per-slot scale factors)")
    embed.add_argument("--shard-size", type=int, default=256,
                       help="records per shard file")
    embed.add_argument("--verify", action="store_true",
                       help="score the test split store-backed vs live and "
                            "assert parity/coverage")
    embed.add_argument("--fast", action="store_true", help="tiny CI scale")

    serve = sub.add_parser(
        "serve", help="drive concurrent traffic through the serving layer")
    serve.add_argument("--dataset", required=True)
    serve.add_argument("--matcher", choices=MATCHER_CHOICES, default="hiergat")
    serve.add_argument("--dirty", action="store_true")
    serve.add_argument("--fast", action="store_true", help="tiny CI scale")
    serve.add_argument("--soak", action="store_true",
                       help="inject the standard chaos plan and assert "
                            "conservation + tier-1 parity")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--replicas", type=int, default=0,
                       help="run the multi-process cluster router with N "
                            "replica processes (0 = single-process service)")
    serve.add_argument("--kill-replica", action="store_true",
                       help="SIGKILL one replica mid-soak (cluster mode) to "
                            "exercise failover, redispatch, and respawn")
    serve.add_argument("--capacity", type=int, default=32,
                       help="bounded request-queue size (admission control)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds")
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent client threads")
    serve.add_argument("--requests", type=int, default=8,
                       help="requests per client")
    serve.add_argument("--pairs", type=int, default=8,
                       help="entity pairs per request")
    serve.add_argument("--seed", type=int, default=0,
                       help="workload-composition seed")
    serve.add_argument("--lockcheck", action="store_true",
                       help="run the lock-order sanitizer for the soak "
                            "(also honoured via REPRO_LOCKCHECK=1)")
    serve.add_argument("--json", action="store_true",
                       help="print the full report as JSON")
    serve.add_argument("--store", default=None,
                       help="serve tier 1 from an embedding store: open the "
                            "manifest at this directory (building it first "
                            "if absent); requires --matcher hiergat")
    serve.add_argument("--store-dtype", choices=("float32", "float16", "int8"),
                       default="float32",
                       help="stored embedding format when --store builds")

    resolve = sub.add_parser(
        "resolve",
        help="stream records through the crash-safe incremental cluster "
             "store")
    resolve.add_argument("--wal", required=True,
                         help="write-ahead-log directory (created if absent; "
                              "also holds the stream.json parameters)")
    resolve.add_argument("--resume", action="store_true",
                         help="replay the WAL and continue the persisted "
                              "stream instead of starting fresh")
    resolve.add_argument("--records", type=int, default=200,
                         help="entities in the generated universe")
    resolve.add_argument("--sources", type=int, default=3,
                         help="number of source tables in the stream")
    resolve.add_argument("--overlap", type=float, default=0.7,
                         help="fraction of entities present per extra source")
    resolve.add_argument("--seed", type=int, default=0)
    resolve.add_argument("--retract-rate", type=float, default=0.05,
                         help="fraction of records retracted after the "
                              "stream (seeded, deterministic)")
    resolve.add_argument("--match-threshold", type=float, default=0.35)
    resolve.add_argument("--nonmatch-threshold", type=float, default=0.05)
    resolve.add_argument("--reorder-window", type=int, default=32,
                         help="reorder-buffer capacity (out-of-order bound)")
    resolve.add_argument("--kill-after", type=int, default=None,
                         help="SIGKILL this process after N offers "
                              "(crash-recovery drills; resume with --resume)")
    resolve.add_argument("--dataset", default="Amazon-Google",
                         help="domain spec for the generated records")
    resolve.add_argument("--json", action="store_true",
                         help="machine-readable report")
    resolve.add_argument("--fast", action="store_true",
                         help="tiny CI scale")

    quarantine = sub.add_parser(
        "quarantine", help="inspect or replay a JSONL quarantine store")
    quarantine.add_argument("--store", required=True,
                            help="JSONL file written by a firewall's "
                                 "QuarantineStore")
    quarantine.add_argument("--replay", action="store_true",
                            help="re-validate every held record; records "
                                 "that now pass leave the store")
    quarantine.add_argument("--num", type=int, default=5,
                            help="sample records to print")
    quarantine.add_argument("--max-value-chars", type=int, default=4096,
                            help="schema bound used for replay validation")
    quarantine.add_argument("--max-null-fraction", type=float, default=1.0,
                            help="schema bound used for replay validation")
    quarantine.add_argument("--out", default=None,
                            help="write successfully replayed records here "
                                 "(JSONL)")

    lint = sub.add_parser(
        "lint", help="statically check the determinism/gradient invariants")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report instead of path:line rows")
    lint.add_argument("--sanitize", action="store_true",
                      help="also enable the runtime write-sanitizer hooks")
    lint.add_argument("--root", default=".",
                      help="repo root for cross-file rules (default: cwd)")

    lockgraph = sub.add_parser(
        "lockgraph",
        help="emit the static ∪ dynamic lock acquisition graph")
    lockgraph.add_argument("--root", default=".",
                           help="repo root (default: cwd)")
    lockgraph.add_argument("--paths", nargs="*", default=["src/repro"],
                           help="paths for the static half")
    lockgraph.add_argument("--dot", action="store_true",
                           help="emit Graphviz DOT instead of JSON")
    lockgraph.add_argument("--soak", action="store_true",
                           help="run a small lock-checked chaos soak and "
                                "merge its dynamic edges + hold times")
    lockgraph.add_argument("--dataset", default="Beer",
                           help="dataset for the --soak run")
    lockgraph.add_argument("--dirty", action="store_true")
    lockgraph.add_argument("--fast", action="store_true",
                           help="tiny CI scale for the --soak run")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "train": cmd_train,
        "resume": cmd_resume,
        "bench": cmd_bench,
        "inspect": cmd_inspect,
        "profile": cmd_profile,
        "embed": cmd_embed,
        "serve": cmd_serve,
        "resolve": cmd_resolve,
        "quarantine": cmd_quarantine,
        "lint": cmd_lint,
        "lockgraph": cmd_lockgraph,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
