#!/usr/bin/env python3
"""Benchmark the blocking layer and write ``BENCH_block.json``.

Two tiers over synthetic multi-attribute records (queries are corrupted
copies — ``data/dirty.py`` attribute injection plus ``guard.perturb``
typos — so ground truth is known):

* **10k** — pair-completeness / reduction-ratio curves for all four
  blockers (overlap, TF-IDF, MinHash/LSH, random projection) at
  k ∈ {4, 8, 16, 32}, plus the incremental-``add`` throughput figure.
  Gate: at least one ANN blocker reaches PC ≥ 0.95 at a reduction
  factor ≥ 10x.
* **1m** — a streaming 1M-record MinHash/LSH index build
  (``keep_records=False``, chunked ``add_many`` — no all-pairs structure
  is ever materialized) with build throughput and sampled query latency.

Usage:
    python benchmarks/run_block.py             # both tiers, writes JSON
    python benchmarks/run_block.py --tier 10k  # one tier

The 1k-record CI gate (an ANN blocker reaches PC >= 0.9 at >= 5x) is
``TestLSHRecallBound::test_smoke_tier_reaches_pc_at_reduction`` in
``tests/test_blocking_ann.py``.
"""

import argparse
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_block.json"

KS = (4, 8, 16, 32)


def _blockers(seed):
    from repro.blocking import (MinHashLSHBlocker, OverlapBlocker,
                                RandomProjectionBlocker, TfidfBlocker)

    return {
        "overlap": (OverlapBlocker(min_shared_tokens=2), False),
        "tfidf": (TfidfBlocker(), False),
        "lsh": (MinHashLSHBlocker(seed=seed, num_perm=32, bands=16), True),
        "rp": (RandomProjectionBlocker(seed=seed, planes=64, bands=8), True),
    }


def _curve(blocker, table, queries, truth, ks, query_cap):
    """PC/RR per k; queries beyond ``query_cap`` are skipped (noted)."""
    from repro.blocking.evaluation import evaluate_blocker
    from repro.perf.profiler import wall_clock

    start = wall_clock()
    blocker.fit(table)
    build_s = wall_clock() - start
    used = queries[:query_cap]
    truth_used = [(i, j) for i, j in truth if i < query_cap]
    points = []
    for k in ks:
        start = wall_clock()
        pairs = []
        for qi, record in enumerate(used):
            for j in blocker.candidates(record, k=k):
                pairs.append((qi, j))
        query_s = wall_clock() - start
        quality = evaluate_blocker(pairs, truth_used,
                                   (len(used), len(table)))
        factor = (len(used) * len(table) / quality.num_candidates
                  if quality.num_candidates else float("inf"))
        points.append({
            "k": k,
            "pair_completeness": round(quality.pairs_completeness, 4),
            "reduction_ratio": round(quality.reduction_ratio, 6),
            "reduction_factor": round(factor, 1),
            "candidates_per_query": round(
                quality.num_candidates / max(len(used), 1), 2),
            "query_ms_per_record": round(
                1000 * query_s / max(len(used), 1), 3),
        })
    return {"build_s": round(build_s, 3), "num_queries": len(used),
            "points": points}


def run_10k(num_index, num_queries, seed):
    from repro.blocking.evaluation import corrupted_copy_tables
    from repro.perf.profiler import wall_clock

    table, queries, truth = corrupted_copy_tables(num_index, num_queries,
                                                  seed)
    curves = {}
    for name, (blocker, is_ann) in sorted(_blockers(seed).items()):
        # The classic blockers score/walk far more per query; cap their
        # query sample so the tier stays minutes, not hours.  The capped
        # PC estimate is noisier — noted via num_queries in the output.
        cap = num_queries if is_ann else min(num_queries, 500)
        print(f"  {name}: fitting {num_index} + {min(cap, num_queries)} "
              f"queries ...", flush=True)
        curves[name] = _curve(blocker, table, queries, truth, KS, cap)
        best = max(curves[name]["points"],
                   key=lambda p: p["pair_completeness"])
        print(f"    best PC {best['pair_completeness']:.3f} at k={best['k']} "
              f"(reduction {best['reduction_factor']}x)")

    # Incremental-add throughput on the LSH index (the serving add path).
    from repro.blocking import MinHashLSHBlocker

    adder = MinHashLSHBlocker(seed=seed).fit(table)
    sample = queries[:2000] if len(queries) >= 2000 else queries
    start = wall_clock()
    for record in sample:
        adder.add(record)
    add_s = wall_clock() - start
    adds_per_s = len(sample) / add_s if add_s else float("inf")
    return {
        "num_index": num_index,
        "num_queries": num_queries,
        "curves": curves,
        "incremental_add": {"records": len(sample),
                            "adds_per_s": round(adds_per_s, 1)},
    }


def run_1m(num_records, seed, chunk=20_000):
    """Streaming build: records are generated and indexed chunk by chunk,
    never held as pairs; ``keep_records=False`` drops even the records."""
    import numpy as np

    from repro.blocking import MinHashLSHBlocker
    from repro.data.schema import Entity
    from repro.perf.profiler import wall_clock

    rng = np.random.default_rng(seed)
    vocab = 50_000
    blocker = MinHashLSHBlocker(seed=seed, num_perm=32, bands=16,
                                keep_records=False)
    sample_queries = []
    start = wall_clock()
    for base in range(0, num_records, chunk):
        size = min(chunk, num_records - base)
        names = rng.integers(0, vocab, size=(size, 6))
        models = rng.integers(0, vocab * 4, size=size)
        records = [
            Entity.from_dict(f"r{base + i}", {
                "title": " ".join(f"w{t}" for t in names[i]),
                "model": f"m{models[i]}",
            })
            for i in range(size)
        ]
        blocker.add_many(records)
        if base == 0:
            sample_queries = records[:200]
        if (base // chunk) % 10 == 0:
            done = base + size
            print(f"  indexed {done}/{num_records} "
                  f"({done / (wall_clock() - start):.0f} rec/s) ...",
                  flush=True)
    build_s = wall_clock() - start

    start = wall_clock()
    candidate_counts = [len(blocker.candidates(q, k=16))
                        for q in sample_queries]
    query_s = wall_clock() - start
    return {
        "records": num_records,
        "build_s": round(build_s, 1),
        "records_per_s": round(num_records / build_s, 1),
        "buckets": len(blocker._buckets),
        "keep_records": False,
        "query_sample": {
            "queries": len(sample_queries),
            "ms_per_query": round(1000 * query_s /
                                  max(len(sample_queries), 1), 3),
            "mean_candidates": round(float(np.mean(candidate_counts)), 2),
        },
        "notes": "streaming add_many build; no all-pairs structure, no "
                 "retained records — memory is signatures + buckets only",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default="10k,1m",
                        help="comma-separated tiers to run: 10k, 1m")
    parser.add_argument("--records", type=int, default=1_000_000,
                        help="record count for the 1m tier")
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()

    tiers = [t.strip() for t in args.tier.split(",") if t.strip()]
    payload = {"experiment": "blocking", "seed": args.seed, "tiers": {}}
    if "10k" in tiers:
        print("10k tier ...", flush=True)
        payload["tiers"]["10k"] = run_10k(num_index=10_000,
                                          num_queries=2_000, seed=args.seed)
    if "1m" in tiers:
        print(f"1m tier ({args.records} records) ...", flush=True)
        payload["tiers"]["1m"] = run_1m(args.records, seed=args.seed)

    invariant = None
    if "10k" in tiers:
        invariant = False
        for name in ("lsh", "rp"):
            for point in payload["tiers"]["10k"]["curves"][name]["points"]:
                if point["pair_completeness"] >= 0.95 \
                        and point["reduction_factor"] >= 10:
                    invariant = True
        payload["invariants"] = {
            "ann_pc_ge_0.95_at_10x": invariant,
            "1m_build_streaming": "1m" in tiers,
        }

    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    if invariant is False:
        print("FAIL: no ANN blocker reached PC >= 0.95 at >= 10x reduction")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
