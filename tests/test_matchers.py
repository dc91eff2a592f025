"""Interface tests for all matchers at CI scale (fast, quality not asserted)."""

import numpy as np
import pytest

from repro.core import HierGAT
from repro.data import load_dataset
from repro.matchers import (
    DeepMatcherModel, DittoModel, DMPlusMatcher, GATMatcher, GCNMatcher,
    HGATMatcher, MagellanMatcher,
)
from repro.matchers.base import evaluate_matcher
from repro.matchers.ditto import imbalance_weight
from repro.matchers.encoding import AttributeEncoder, PairEncoder, build_vocabulary, pad_sequences


@pytest.fixture(scope="module")
def dataset():
    from repro.config import Scale, set_scale

    set_scale(Scale.ci())
    return load_dataset("Fodors-Zagats", scale=Scale.ci())


ALL_MATCHERS = [MagellanMatcher, DeepMatcherModel, DittoModel, DMPlusMatcher,
                GCNMatcher, GATMatcher, HGATMatcher, HierGAT]


class TestEncoding:
    def test_pad_sequences_shapes_and_mask(self):
        ids, mask = pad_sequences([[1, 2, 3], [4]], pad_id=0)
        assert ids.shape == (2, 3)
        np.testing.assert_array_equal(ids[1], [4, 0, 0])
        np.testing.assert_array_equal(mask[1], [True, False, False])

    def test_pad_sequences_max_len(self):
        ids, _ = pad_sequences([[1, 2, 3, 4]], pad_id=0, max_len=2)
        assert ids.shape == (1, 2)

    def test_pad_empty_rejected(self):
        with pytest.raises(ValueError):
            pad_sequences([], pad_id=0)

    def test_build_vocabulary_excludes_test_tokens(self, dataset):
        vocab, corpus = build_vocabulary(dataset)
        train_valid = len(dataset.split.train) + len(dataset.split.valid)
        # Corpus rows: one per attribute per entity per train/valid pair.
        assert len(corpus) == train_valid * 2 * dataset.num_attributes

    def test_pair_encoder_caps_length(self, dataset):
        vocab, _ = build_vocabulary(dataset)
        encoder = PairEncoder(vocab, max_tokens=16)
        ids, mask = encoder.encode(dataset.pairs[:4])
        assert ids.shape[1] <= 16
        assert ids.shape == mask.shape

    def test_attribute_encoder_has_cls_and_markers(self, dataset):
        vocab, _ = build_vocabulary(dataset)
        encoder = AttributeEncoder(vocab)
        ids = encoder.attribute_ids(dataset.pairs[0].left, 0)
        assert ids[0] == vocab.cls_id
        assert ids[1] == vocab.col_id
        assert vocab.val_id in ids

    def test_encode_slot_memo_gives_the_same_ids(self, dataset):
        vocab, _ = build_vocabulary(dataset)
        encoder = AttributeEncoder(vocab)
        memo: dict = {}
        pairs = dataset.pairs[:12]
        for k in range(dataset.num_attributes):
            for side in ("left", "right"):
                plain = encoder.encode_slot(pairs, k, side)
                for _ in range(2):
                    memoised = encoder.encode_slot(pairs, k, side, memo)
                    np.testing.assert_array_equal(plain[0], memoised[0])
                    np.testing.assert_array_equal(plain[1], memoised[1])
        assert 0 < len(memo) <= 2 * len(pairs) * dataset.num_attributes

    def test_num_slots_is_minimum(self, dataset):
        assert AttributeEncoder.num_slots(dataset.pairs) == dataset.num_attributes


class TestImbalanceWeight:
    def test_ratio_computed(self, dataset):
        weight = imbalance_weight(dataset.split.train)
        positives = sum(p.label for p in dataset.split.train)
        expected = min((len(dataset.split.train) - positives) / positives, 6.0)
        assert weight == pytest.approx(expected)

    def test_cap_applied(self):
        from repro.data.schema import Entity, EntityPair

        e = Entity.from_dict("e", {"t": "x"})
        pairs = [EntityPair(e, e, 1)] + [EntityPair(e, e, 0)] * 99
        assert imbalance_weight(pairs) == 6.0


class TestMagellanMatcher:
    def test_selects_a_classifier(self, dataset):
        matcher = MagellanMatcher()
        matcher.fit(dataset)
        assert matcher.best_classifier_name in {
            "decision_tree", "random_forest", "svm",
            "linear_regression", "logistic_regression",
        }

    def test_scores_bounded(self, dataset):
        matcher = MagellanMatcher().fit(dataset)
        scores = matcher.scores(dataset.split.test)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_predict_before_fit_raises(self, dataset):
        with pytest.raises(RuntimeError):
            MagellanMatcher().predict(dataset.split.test)


@pytest.mark.parametrize("matcher_cls", ALL_MATCHERS)
class TestMatcherInterface:
    def test_fit_predict_shapes(self, matcher_cls, dataset):
        matcher = matcher_cls()
        matcher.fit(dataset)
        predictions = matcher.predict(dataset.split.test)
        assert predictions.shape == (len(dataset.split.test),)
        assert set(np.unique(predictions)) <= {0, 1}
        scores = matcher.scores(dataset.split.test)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        f1 = matcher.test_f1(dataset)
        assert 0.0 <= f1 <= 100.0
        assert 0.0 <= matcher.threshold <= 1.0


class TestHierGATSpecifics:
    def test_pairwise_disables_entity_context_and_alignment(self):
        matcher = HierGAT()
        assert matcher.config.context.entity is False
        assert matcher.config.use_alignment is False

    def test_evaluate_matcher_roundtrip(self, dataset):
        f1 = evaluate_matcher(DeepMatcherModel(), dataset)
        assert 0.0 <= f1 <= 100.0
