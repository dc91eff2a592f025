"""The corruption-robustness curve: F1 vs corruption rate, with firewall.

The paper's dirty-data comparison (Table 4's Dirty variants) is a single
point: attribute values swapped into the wrong columns.  This harness
reproduces its spirit as a *continuous curve*: test pairs are perturbed at
increasing rates with the full adversarial mix (typos, nulls, attribute
swaps, truncation, encoding garbage), routed through the data firewall,
and each matcher is scored on what survives.  Three series per matcher:

* **F1** on the accepted pairs — how gracefully accuracy degrades;
* **quarantine rate** — the fraction of offered records the firewall
  rejected (encoding garbage; identical across matchers by construction);
* **drift-flag rate** — the fraction of monitor windows that flagged,
  using a baseline frozen from the matcher's own fit (vocab + validation
  scores).

``repro bench robust`` renders the table; the slow test
``test_robustness_curve_clean_point_is_untouched`` in ``tests/test_guard.py``
asserts that the rate-0.0 point quarantines nothing and flags no drift.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import Scale, get_scale
from repro.core.metrics import f1_score
from repro.data.magellan import load_dataset
from repro.data.schema import PairDataset
from repro.guard import (
    DataFirewall,
    DriftBaseline,
    DriftMonitor,
    DriftThresholds,
    RecordSchema,
    corrupt_pairs,
)
from repro.harness.tables import TableResult, fmt
from repro.matchers.base import labels_of

#: Matchers the benchmark compares (≥3, spanning the architecture range:
#: the paper's model, the token-serialization baseline, and the classical
#: feature matcher).
DEFAULT_MATCHERS: Tuple[str, ...] = ("hiergat", "ditto", "magellan")

#: Corruption rates forming the curve.
DEFAULT_RATES: Tuple[float, ...] = (0.0, 0.2, 0.4)


def _make_matcher(name: str):
    from repro.core import HierGAT
    from repro.matchers import DittoModel, MagellanMatcher

    factories = {"hiergat": HierGAT, "ditto": DittoModel,
                 "magellan": MagellanMatcher}
    if name not in factories:
        raise KeyError(f"unknown matcher {name!r}; known: {sorted(factories)}")
    return factories[name]()


def robustness_series(dataset_name: str = "Beer",
                      matchers: Sequence[str] = DEFAULT_MATCHERS,
                      rates: Sequence[float] = DEFAULT_RATES,
                      seed: int = 7,
                      scale: Optional[Scale] = None,
                      window: int = 32) -> Tuple[PairDataset, List[Dict]]:
    """Compute the raw curve: one entry per matcher, one point per rate.

    Corruption is a pure function of ``seed`` and the rate index (every
    matcher sees the *same* corrupted pairs at a given rate, so their F1
    columns are comparable and the quarantine column is shared).
    """
    scale = scale or get_scale()
    dataset = load_dataset(dataset_name, scale=scale)
    # A window must fill to be evaluated; at small scales the test split is
    # shorter than the serving default, so clamp to the score-stream length
    # (one pair = one score, two entities).
    window = max(8, min(window, len(dataset.split.test)))
    series: List[Dict] = []
    for name in matchers:
        matcher = _make_matcher(name)
        matcher.fit(dataset)
        # Score baseline over the whole dataset, matching from_dataset's
        # all-pairs input baseline: clean test traffic is then a subsample
        # of the frozen distribution and must not flag (valid-only scores
        # mis-flag at small scales where both samples are tiny).
        base_scores = matcher.scores(dataset.pairs)
        vocab = getattr(getattr(matcher, "_encoder", None), "vocab", None)
        baseline = DriftBaseline.from_dataset(dataset, vocab=vocab,
                                              scores=[float(s) for s in base_scores])
        entry: Dict = {"matcher": name, "points": []}
        for index, rate in enumerate(rates):
            rng = np.random.default_rng(seed + 1000 * index)
            corrupted = corrupt_pairs(dataset.split.test, float(rate), rng)
            monitor = DriftMonitor(baseline,
                                   DriftThresholds(window=window, sustain=2))
            firewall = DataFirewall(schema=RecordSchema.for_dataset(dataset),
                                    monitor=monitor)
            accepted, quarantined = firewall.admit_pairs(
                corrupted, source=f"{dataset_name}@{rate:.2f}")
            if not firewall.stats.conserved:  # pragma: no cover - invariant
                raise AssertionError("firewall conservation violated")
            if accepted:
                scores = matcher.scores(accepted)
                monitor.observe_scores([float(s) for s in scores])
                predictions = matcher.predict(accepted)
                f1 = f1_score(predictions, labels_of(accepted))
            else:
                f1 = 0.0
            drift = monitor.stats()
            windows = int(drift["windows_evaluated"])
            flagged = int(drift["flagged_windows"])
            entry["points"].append({
                "corruption_rate": float(rate),
                "f1": float(f1),
                "offered_records": 2 * len(corrupted),
                "quarantined_records": int(quarantined),
                "quarantine_rate": quarantined / (2 * len(corrupted))
                if corrupted else 0.0,
                "accepted_pairs": len(accepted),
                "drift_windows": windows,
                "drift_flagged": flagged,
                "drift_flag_rate": flagged / windows if windows else 0.0,
            })
        series.append(entry)
    return dataset, series


def run_robustness_curve(dataset_name: str = "Beer",
                         matchers: Sequence[str] = DEFAULT_MATCHERS,
                         rates: Sequence[float] = DEFAULT_RATES,
                         seed: int = 7,
                         scale: Optional[Scale] = None) -> TableResult:
    """Render the robustness curve as a harness table (``repro bench``)."""
    scale = scale or get_scale()
    dataset, series = robustness_series(dataset_name, matchers, rates,
                                        seed=seed, scale=scale)
    by_matcher = {entry["matcher"]: entry["points"] for entry in series}
    rows: List[List[str]] = []
    for index, rate in enumerate(rates):
        shared = by_matcher[matchers[0]][index]
        row = [f"{float(rate):.0%}",
               f"{shared['quarantine_rate']:.1%}"]
        for name in matchers:
            point = by_matcher[name][index]
            row.append(fmt(point["f1"]))
            row.append(f"{point['drift_flagged']}/{point['drift_windows']}")
        rows.append(row)
    headers = ["corruption", "quarantined"]
    for name in matchers:
        headers += [f"{name} F1", f"{name} drift"]
    return TableResult(
        experiment="robust",
        title=f"Corruption robustness on {dataset.name} "
              f"(firewall + drift monitors active)",
        headers=headers,
        rows=rows,
        notes=[
            "perturbation mix: typo / null / attribute-swap / truncation / "
            "encoding garbage, each entity corrupted independently",
            "quarantined = records rejected by the firewall (conservation "
            "asserted); drift = flagged windows / evaluated windows",
            f"scale: max_pairs={scale.max_pairs}, epochs={scale.epochs}, "
            f"dim={scale.hidden_dim}",
        ],
    )
