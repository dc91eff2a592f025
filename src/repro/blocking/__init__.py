"""Blocking: cheap candidate filtering before matching (Section 2.1, 6.3).

Three blockers are provided behind the shared :class:`Blocker` interface
(see ``docs/BLOCKING.md``):

* :func:`overlap_blocker` / :class:`OverlapBlocker` — keyword/word-overlap
  filtering (Magellan style), used to prune obviously-unmatching pairs for
  the pairwise pipeline.
* :class:`TfidfIndex` / :class:`TfidfBlocker` — TF-IDF cosine top-N
  retrieval, used to build the collective-ER candidate sets (top-16 per
  query entity, Section 6.3).
* :class:`MinHashLSHBlocker` — MinHash/LSH banding over token shingles;
  streaming builds, O(1)-amortized incremental ``add``.

:func:`candidate_pairs` adapts any blocker to the cross-table ``(i, j)``
pair-list shape the pipeline consumes; :func:`evaluate_blocker` scores a
pair list for pairs-completeness / reduction ratio.
"""

from repro.blocking.ann import MinHashLSHBlocker, collision_probability
from repro.blocking.base import Blocker, candidate_pairs
from repro.blocking.evaluation import BlockerQuality, evaluate_blocker
from repro.blocking.keyword import (OverlapBlocker, overlap_blocker,
                                    shared_token_count)
from repro.blocking.tfidf import TfidfBlocker, TfidfIndex

__all__ = [
    "Blocker",
    "BlockerQuality",
    "MinHashLSHBlocker",
    "OverlapBlocker",
    "TfidfBlocker",
    "TfidfIndex",
    "candidate_pairs",
    "collision_probability",
    "evaluate_blocker",
    "overlap_blocker",
    "shared_token_count",
]
