"""Ditto baseline (Li et al., VLDB 2020).

Ditto serializes the whole entity pair into one sentence —
``[CLS] [COL] k [VAL] v … [SEP] [COL] k [VAL] v … [SEP]`` — and fine-tunes a
pre-trained transformer, classifying from the [CLS] vector.  Per Section 6.1
we reproduce the *basic* version (no domain-knowledge optimizations).

The pre-trained checkpoint comes from :mod:`repro.lm.checkpoint`; fine-tuning
uses a class-weighted loss and a validation-tuned decision threshold, which
substitute for the scale advantages of the real 110M-parameter LMs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import Tensor
from repro.config import Scale, get_scale
from repro.core.metrics import best_threshold_f1
from repro.core.trainer import TrainConfig, TrainResult, predict_forward, train_pair_classifier
from repro.data.schema import EntityPair, PairDataset
from repro.lm.checkpoint import SequencePairClassifier, load_checkpoint
from repro.matchers.base import Matcher, labels_of
from repro.matchers.encoding import PairEncoder

#: Cap on the positive-class weight used to counter label imbalance.
MAX_POSITIVE_WEIGHT = 6.0


def imbalance_weight(pairs: Sequence[EntityPair], cap: float = MAX_POSITIVE_WEIGHT) -> float:
    """neg/pos ratio, capped — the class weight for the fine-tuning loss."""
    positives = sum(p.label for p in pairs)
    negatives = len(pairs) - positives
    return min(negatives / max(positives, 1), cap)


class DittoModel(Matcher):
    """Transformer sequence-pair classifier (the paper's strongest baseline)."""

    name = "Ditto"

    def __init__(self, language_model: str = "roberta", scale: Optional[Scale] = None,
                 seed: Optional[int] = None):
        self.language_model = language_model
        self.scale = scale or get_scale()
        self.seed = self.scale.seed if seed is None else seed
        self.threshold = 0.5
        self._network: Optional[SequencePairClassifier] = None
        self._encoder: Optional[PairEncoder] = None
        self.train_result: Optional[TrainResult] = None

    # ------------------------------------------------------------------
    def _forward(self, pairs: Sequence[EntityPair]) -> Tensor:
        ids, mask = self._encoder.encode(pairs)
        return self._network(ids, mask)

    def fit(self, dataset: PairDataset, checkpoint_dir=None,
            resume: bool = False) -> "DittoModel":
        rng = np.random.default_rng(self.seed)
        lm, head_state = load_checkpoint(self.language_model, self.scale)
        self._network = SequencePairClassifier(lm, rng)
        self._network.head.load_state_dict(head_state)
        self._encoder = PairEncoder(lm.vocab, scale=self.scale)
        config = TrainConfig.from_scale(
            self.scale, seed=self.seed,
            positive_weight=imbalance_weight(dataset.split.train),
        )
        self.train_result = train_pair_classifier(
            self._network, self._forward,
            dataset.split.train, dataset.split.valid, config,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )
        if dataset.split.valid:
            valid_scores = self.train_result.best_valid_scores
            if valid_scores is None:
                valid_scores = self.scores(dataset.split.valid)
            self.threshold = best_threshold_f1(valid_scores, labels_of(dataset.split.valid))
        return self

    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        if self._network is None:
            raise RuntimeError("fit() must be called first")
        return predict_forward(self._network, self._forward, pairs, self.scale.batch_size)

    def predict(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return (self.scores(pairs) >= self.threshold).astype(np.int64)
