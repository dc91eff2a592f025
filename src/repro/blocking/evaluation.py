"""Blocker quality evaluation: reduction ratio and pairs completeness.

The classic trade-off every ER survey reports: a blocker must prune the
cross product (reduction ratio, RR) without losing true matches (pairs
completeness, PC — the paper's "a reduced set of candidate entities that
contain most of the matching entities").
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.data.schema import Entity


@dataclasses.dataclass(frozen=True)
class BlockerQuality:
    """Reduction ratio / pairs completeness / their harmonic mean."""

    reduction_ratio: float
    pairs_completeness: float
    num_candidates: int
    num_true_matches: int

    @property
    def harmonic_mean(self) -> float:
        rr, pc = self.reduction_ratio, self.pairs_completeness
        return 2 * rr * pc / (rr + pc) if rr + pc else 0.0

    def __str__(self) -> str:
        return (f"RR={self.reduction_ratio:.3f} PC={self.pairs_completeness:.3f} "
                f"HM={self.harmonic_mean:.3f}")


def evaluate_blocker(
    candidates: Iterable[Tuple[int, int]],
    true_matches: Iterable[Tuple[int, int]],
    table_sizes: Tuple[int, int],
) -> BlockerQuality:
    """Score a candidate set against ground truth."""
    candidate_set: Set[Tuple[int, int]] = set(candidates)
    truth = set(true_matches)
    total = table_sizes[0] * table_sizes[1]
    rr = 1.0 - len(candidate_set) / total if total else 0.0
    pc = (len(candidate_set & truth) / len(truth)) if truth else 1.0
    return BlockerQuality(
        reduction_ratio=rr,
        pairs_completeness=pc,
        num_candidates=len(candidate_set),
        num_true_matches=len(truth),
    )


def corrupted_copy_tables(num_index: int, num_queries: int, seed: int
                          ) -> Tuple[List[Entity], List[Entity],
                                     List[Tuple[int, int]]]:
    """Synthetic blocking benchmark: an index table, queries that are
    corrupted copies of some of its records (``data/dirty.py`` attribute
    injection plus ``guard.perturb`` typos), and the ``(query, index)``
    true-match pairs."""
    from repro.data.dirty import dirty_entity
    from repro.guard.perturb import perturb_entity

    vocab = max(num_index // 2, 200)
    rng = np.random.default_rng(seed)
    names = rng.integers(0, vocab, size=(num_index, 5))
    brands = rng.integers(0, max(vocab // 50, 10), size=num_index)
    models = rng.integers(0, vocab * 4, size=num_index)
    table = [
        Entity.from_dict(f"b{i}", {
            "title": " ".join(f"w{t}" for t in names[i]),
            "brand": f"brand{brands[i]}",
            "model": f"m{models[i]}",
        })
        for i in range(num_index)
    ]
    picks = rng.choice(num_index, size=num_queries, replace=False)
    queries, truth = [], []
    for qi, j in enumerate(picks):
        noisy = dirty_entity(table[j], rng, injection_prob=0.3)
        noisy = perturb_entity(noisy, "typo", rng)
        queries.append(Entity.from_dict(f"a{qi}", dict(noisy.attributes)))
        truth.append((qi, int(j)))
    return table, queries, truth


def tfidf_candidates(table_a: Sequence[Entity], table_b: Sequence[Entity],
                     top_n: int = 16) -> list:
    """TF-IDF top-N retrieval as index pairs (the collective blocker)."""
    from repro.blocking.tfidf import TfidfIndex

    index = TfidfIndex(list(table_b))
    out = []
    for i, query in enumerate(table_a):
        for j, _ in index.query(query, top_n=top_n, exclude_uid=False):
            out.append((i, j))
    return out
