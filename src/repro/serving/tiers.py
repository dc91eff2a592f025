"""The three-tier degradation cascade the serving layer falls back through.

Tier semantics (stamped on every response):

* **tier 1 — the full model** (``HierGAT`` or whichever trained
  :class:`~repro.matchers.base.Matcher` the service wraps).  Highest
  quality, slowest, and the only tier that touches the LM encoder and
  the embedding store, so it sits behind the circuit breaker.
* **tier 2 — feature matcher** (:class:`~repro.matchers.magellan.MagellanMatcher`,
  the classical Magellan baseline).  Orders of magnitude cheaper than a
  transformer forward; engaged under deadline pressure or an open breaker.
* **tier 3 — TF-IDF floor**.  Cosine similarity of the two records'
  TF-IDF vectors (the same representation the blocking layer uses) with a
  validation-calibrated threshold.  Never fails, never blocks: the answer
  of last resort.

Each tier scores *real probabilities* (see the ``Matcher.scores``
contract), so a degraded answer is an honest lower-quality estimate —
never a silently-wrong label.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.blocking.tfidf import TfidfIndex
from repro.core.metrics import best_threshold_f1
from repro.data.schema import EntityPair, PairDataset
from repro.matchers.base import Matcher, labels_of
from repro.matchers.magellan import MagellanMatcher

#: Canonical tier names, in degradation order.
TIER_FULL = "full"
TIER_FEATURES = "features"
TIER_TFIDF = "tfidf"


@dataclasses.dataclass
class ScoringTier:
    """One rung of the cascade: a name, a level, and a scoring model."""

    name: str
    level: int  # 1 = full model, 2 = features, 3 = tfidf floor
    matcher: Matcher

    @property
    def threshold(self) -> float:
        return self.matcher.threshold

    def score(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return self.matcher.scores(pairs)

    def predict(self, scores: np.ndarray) -> np.ndarray:
        return (scores >= self.threshold).astype(np.int64)


class TfidfMatcher(Matcher):
    """Tier-3 floor: TF-IDF cosine similarity between the two records.

    Fit builds the idf table over the training entities (both sides) and
    calibrates the decision threshold on the validation split; scoring an
    unseen pair is two sparse vectorizations and a dot product — no model
    weights, no caches, nothing that can trip a breaker.
    """

    name = "TF-IDF"

    def __init__(self):
        self.threshold = 0.5
        self._index: Optional[TfidfIndex] = None

    def fit(self, dataset: PairDataset) -> "TfidfMatcher":
        entities = []
        for pair in dataset.split.train:
            entities.append(pair.left)
            entities.append(pair.right)
        self._index = TfidfIndex(entities)
        calibrate_on = dataset.split.valid or dataset.split.train
        self.threshold = best_threshold_f1(
            self.scores(calibrate_on), labels_of(calibrate_on))
        return self

    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        if self._index is None:
            raise RuntimeError("fit() must be called first")
        out: List[float] = []
        for pair in pairs:
            left = self._index.vectorize(pair.left)
            right = self._index.vectorize(pair.right)
            out.append(float((left @ right.T).toarray()[0, 0]))
        return np.asarray(out, dtype=np.float64)

    def predict(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return (self.scores(pairs) >= self.threshold).astype(np.int64)


@dataclasses.dataclass
class DegradationCascade:
    """The ordered tier list a service walks under pressure."""

    tiers: List[ScoringTier]

    @property
    def tier1(self) -> ScoringTier:
        return self.tiers[0]

    def by_level(self, level: int) -> ScoringTier:
        for tier in self.tiers:
            if tier.level == level:
                return tier
        raise KeyError(level)


def build_cascade(matcher: Matcher, dataset: PairDataset,
                  seed: int = 0) -> DegradationCascade:
    """Fit the fallback tiers and assemble the cascade.

    ``matcher`` must already be fitted (it is the service's tier 1); the
    Magellan feature tier and the TF-IDF floor are trained here on the same
    dataset so all three tiers answer over the same label space.
    """
    features = MagellanMatcher(seed=seed).fit(dataset)
    floor = TfidfMatcher().fit(dataset)
    return DegradationCascade(tiers=[
        ScoringTier(name=TIER_FULL, level=1, matcher=matcher),
        ScoringTier(name=TIER_FEATURES, level=2, matcher=features),
        ScoringTier(name=TIER_TFIDF, level=3, matcher=floor),
    ])
