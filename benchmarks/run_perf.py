#!/usr/bin/env python3
"""Measure the performance layer: cached run vs uncached baseline.

Runs ``run_table4_magellan`` on the quick dataset subset twice at the test
(CI) scale — once with the encoding caches off, once with them on — both
under the op-level profiler, and writes the comparison to
``BENCH_perf.json`` at the repo root.

Usage:
    python benchmarks/run_perf.py              # CI scale (the acceptance run)
    python benchmarks/run_perf.py --bench      # the larger benchmark scale
    python benchmarks/run_perf.py --store      # + embedding-store serving mode
    python benchmarks/run_perf.py --top 15

Methodology notes:

* The pre-trained LM checkpoints are built (or loaded) before timing starts;
  both runs share them, so checkpoint I/O never enters the comparison.
* The caches are bitwise-transparent (identical logits), so the two runs
  are the same computation: the script fails unless their F1 tables are
  identical.
* ``--store`` benchmarks the offline embedding store: training and shard
  materialization run **untimed** (that is the store's contract — offline
  cost amortized across every online request) and the timed quantity is the
  online request path, which runs only the pair-level GAT head on stored
  embeddings.  The reported end-to-end speedup compares serving the same
  quick-subset test queries against the PR-1 style baseline pipeline, which
  pays the full encoder on every request with no cache and no store.
  Gates: float32 store serving must be bitwise-identical to the
  live encoder path; quantized (int8) serving must stay within ΔF1 ≤ 0.5
  per dataset; the end-to-end speedup must be ≥ 10x.
"""

import argparse
import dataclasses
import json
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_perf.json"

#: Timed serving passes per job; per-pass time is the reported figure.
SERVE_REPEATS = 5

#: The --store acceptance gates (see module docstring).
MIN_STORE_SPEEDUP = 10.0
MAX_DELTA_F1 = 0.5


def _timed_run(profiler_ctx, **table_kwargs):
    from repro.harness.pairwise import run_table4_magellan

    started = time.perf_counter()
    with profiler_ctx as prof:
        table = run_table4_magellan(**table_kwargs)
    seconds = time.perf_counter() - started
    return table, seconds, prof


def _timed_serving(scorer, pairs, repeats: int = SERVE_REPEATS) -> float:
    """Steady-state per-pass seconds for ``scorer.scores(pairs)``.

    One warm-up pass first (mmap open + fronting-LRU fill for the store
    path), then ``repeats`` timed passes averaged.
    """
    scorer.scores(pairs)
    started = time.perf_counter()
    for _ in range(repeats):
        scorer.scores(pairs)
    return (time.perf_counter() - started) / repeats


def _run_store_mode(args) -> dict:
    """The --store section: offline store + quantized online serving."""
    import numpy as np

    from repro import perf
    from repro.core import HierGAT
    from repro.data import load_dataset
    from repro.data.magellan import DIRTY_DATASETS
    from repro.harness.pairwise import QUICK_DATASETS
    from repro.store import StoreBackedScorer, build_store, parity_report

    # Same job list as run_table4_magellan on the quick subset.
    jobs = [(name, False) for name in QUICK_DATASETS]
    jobs += [(name, True) for name in QUICK_DATASETS if name in DIRTY_DATASETS]
    per_job = []
    totals = {"live": 0.0, "store_float32": 0.0, "store_int8": 0.0,
              "fit": 0.0, "build": 0.0}
    all_bitwise = True
    worst_delta_f1 = 0.0
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        for name, dirty in jobs:
            label = name + (" (dirty)" if dirty else "")
            print(f"  store mode: {label} ...", flush=True)
            dataset = load_dataset(name, dirty=dirty)
            pairs = list(dataset.split.test)

            perf.enable()                       # offline: train at full speed
            started = time.perf_counter()
            matcher = HierGAT().fit(dataset)
            fit_seconds = time.perf_counter() - started
            f1_live = matcher.test_f1(dataset)

            # The PR-1 style online path: full encoder per request, no
            # cache, no store.
            perf.disable()
            live_seconds = _timed_serving(matcher, pairs)

            entities = [e for p in pairs for e in (p.left, p.right)]
            stores, build_seconds = {}, 0.0
            for dtype in ("float32", "int8"):
                started = time.perf_counter()
                stores[dtype] = build_store(
                    Path(tmp) / f"{label}-{dtype}".replace(" ", ""),
                    matcher, entities, dtype=dtype)
                build_seconds += time.perf_counter() - started

            parity = parity_report(matcher, stores["float32"], pairs,
                                   batch_size=len(pairs))
            all_bitwise &= parity["bitwise"]
            serve = {
                dtype: _timed_serving(
                    StoreBackedScorer(matcher, store=stores[dtype],
                                      batch_size=len(pairs)), pairs)
                for dtype in stores
            }
            f1_int8 = StoreBackedScorer(
                matcher, store=stores["int8"]).test_f1(dataset)
            delta_f1 = abs(f1_int8 - f1_live)
            worst_delta_f1 = max(worst_delta_f1, delta_f1)

            totals["live"] += live_seconds
            totals["store_float32"] += serve["float32"]
            totals["store_int8"] += serve["int8"]
            totals["fit"] += fit_seconds
            totals["build"] += build_seconds
            per_job.append({
                "dataset": label,
                "pairs": len(pairs),
                "live_seconds": round(live_seconds, 5),
                "store_float32_seconds": round(serve["float32"], 5),
                "store_int8_seconds": round(serve["int8"], 5),
                "bitwise_float32": parity["bitwise"],
                "f1_live": round(f1_live, 2),
                "f1_int8": round(f1_int8, 2),
                "delta_f1_int8": round(delta_f1, 3),
                "offline_fit_seconds": round(fit_seconds, 3),
                "offline_build_seconds": round(build_seconds, 3),
                "store_stats": stores["int8"].stats.as_dict(),
            })
    perf.enable()
    return {
        "jobs": per_job,
        "serve_seconds": {k: round(v, 5)
                          for k, v in totals.items() if k.startswith("store")},
        "live_seconds": round(totals["live"], 5),
        "offline_seconds": {"fit": round(totals["fit"], 3),
                            "build": round(totals["build"], 3)},
        "bitwise_float32": bool(all_bitwise),
        "max_delta_f1_int8": round(worst_delta_f1, 3),
        "inference_speedup_int8": round(
            totals["live"] / totals["store_int8"], 3),
        "serve_repeats": SERVE_REPEATS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", action="store_true",
                        help="use the larger benchmark scale instead of CI")
    parser.add_argument("--store", action="store_true",
                        help="also benchmark embedding-store serving "
                             "(float32 + int8) and enforce its gates")
    parser.add_argument("--top", type=int, default=10, help="ops to record")
    args = parser.parse_args()

    from repro import perf
    from repro.config import Scale, set_scale
    from repro.harness.pairwise import QUICK_DATASETS
    from repro.lm.checkpoint import load_checkpoint

    scale = Scale.bench() if args.bench else Scale.ci()
    set_scale(scale)
    print(f"scale: max_pairs={scale.max_pairs} epochs={scale.epochs} "
          f"dim={scale.hidden_dim}")
    print("warming LM checkpoints (untimed) ...", flush=True)
    load_checkpoint("roberta")

    table_kwargs = dict(datasets=QUICK_DATASETS, models=("HG",),
                        include_dirty=True)
    runs = {}
    for mode in ("baseline", "perf"):
        if mode == "baseline":
            perf.disable()
        else:
            perf.enable()
            perf.clear_caches()
            perf.reset_stats()
        print(f"running {mode} ({'cache' if mode == 'perf' else 'all off'}) ...",
              flush=True)
        table, seconds, prof = _timed_run(perf.profile(), **table_kwargs)
        runs[mode] = {
            "seconds": round(seconds, 3),
            "top_ops": [s.as_dict() for s in prof.top(args.top)],
            "f1_table": {"headers": table.headers, "rows": table.rows},
        }
        print(f"  {mode}: {seconds:.2f}s")

    caches = perf.cache_stats()  # stats from the perf run only
    encoder_hits = caches["tokens"]["hits"] + caches["batches"]["hits"]
    encoder_total = encoder_hits + caches["tokens"]["misses"] + caches["batches"]["misses"]
    encoder_hit_rate = encoder_hits / encoder_total if encoder_total else 0.0
    speedup = runs["baseline"]["seconds"] / runs["perf"]["seconds"]

    gates = {"f1_tables_identical": (runs["baseline"]["f1_table"]
                                     == runs["perf"]["f1_table"])}
    store_section = None
    if args.store:
        print("running store mode (offline build untimed, serving timed) ...",
              flush=True)
        store_section = _run_store_mode(args)
        store_section["end_to_end_speedup_int8"] = round(
            runs["baseline"]["seconds"]
            / store_section["serve_seconds"]["store_int8"], 1)
        store_section["gates"] = {
            "bitwise_float32": store_section["bitwise_float32"],
            "delta_f1_int8_within_gate":
                store_section["max_delta_f1_int8"] <= MAX_DELTA_F1,
            "end_to_end_speedup_at_least_10x":
                store_section["end_to_end_speedup_int8"] >= MIN_STORE_SPEEDUP,
        }
        gates.update(store_section["gates"])

    payload = {
        "experiment": "run_table4_magellan quick subset, HG only, +dirty",
        "datasets": list(QUICK_DATASETS),
        "scale": dataclasses.asdict(scale),
        "baseline": runs["baseline"],
        "perf": runs["perf"],
        "speedup": round(speedup, 3),
        "encoder_cache_hit_rate": round(encoder_hit_rate, 4),
        "cache_stats": caches,
        "gates": {"f1_tables_identical": gates["f1_tables_identical"]},
        "notes": [
            "baseline = perf.disable(): no encoding caches",
            "perf = perf.enable(): encoding caches",
            "both runs use the one slot-stacked forward; the caches are "
            "bitwise-transparent, so the F1 tables must be identical",
            "LM checkpoints warmed before timing; both runs share them",
        ],
    }
    if store_section is not None:
        payload["store"] = store_section
        payload["notes"].append(
            "store = offline embedding store (fit + shard build untimed, "
            "recorded under offline_seconds); the timed online path runs "
            "only the pair-level GAT head on stored embeddings, vs the "
            "baseline pipeline which pays the full encoder per request")
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(f"\nspeedup           {speedup:.2f}x "
          f"(baseline {runs['baseline']['seconds']:.2f}s / "
          f"perf {runs['perf']['seconds']:.2f}s)")
    print(f"encoder hit rate  {encoder_hit_rate:.1%}")
    for name, stats in caches.items():
        print(f"cache[{name:7s}]    hits={stats['hits']:<6} "
              f"misses={stats['misses']:<6} hit_rate={stats['hit_rate']:.1%}")
    if store_section is not None:
        print(f"store end-to-end  {store_section['end_to_end_speedup_int8']:.1f}x "
              f"(baseline {runs['baseline']['seconds']:.2f}s / int8 serving "
              f"{store_section['serve_seconds']['store_int8'] * 1e3:.1f}ms)")
        print(f"store inference   {store_section['inference_speedup_int8']:.2f}x "
              f"vs live encoder scoring")
        print(f"store gates       bitwise_float32={store_section['bitwise_float32']} "
              f"max_delta_f1_int8={store_section['max_delta_f1_int8']:.3f}")
    print(f"wrote {OUTPUT}")
    failed = sorted(name for name, ok in gates.items() if not ok)
    if failed:
        print("GATES FAILED:", failed)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
