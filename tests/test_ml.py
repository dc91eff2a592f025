"""Tests for the from-scratch classical ML stack (features + classifiers)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Scale
from repro.data import load_dataset
from repro.data.schema import Entity, EntityPair
from repro.ml import features as features_mod
from repro.ml import (
    DecisionTree, FEATURE_NAMES, LinearRegressionClassifier, LinearSVM,
    LogisticRegression, RandomForest, pair_features, similarity_features,
)
from repro.ml.features import (
    cosine_tokens, featurize_pairs, jaccard, levenshtein,
    levenshtein_similarity, numeric_similarity, overlap_coefficient, qgrams,
)


def dp_levenshtein(a: str, b: str) -> int:
    """Oracle: edit distance by the classic two-row dynamic program."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,          # deletion
                current[j - 1] + 1,       # insertion
                previous[j - 1] + (ca != cb),  # substitution
            ))
        previous = current
    return previous[-1]


#: Few symbols, so random strings share characters and the distance is
#: not just the longer length; non-ASCII ones included.
_EDIT_ALPHABET = "abcd é日ß"


class TestStringSimilarities:
    def test_levenshtein_known_values(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("same", "same") == 0

    def test_levenshtein_symmetry(self):
        assert levenshtein("abcdef", "azced") == levenshtein("azced", "abcdef")

    @given(st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_triangle_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(st.text(alphabet=_EDIT_ALPHABET, max_size=150),
           st.text(alphabet=_EDIT_ALPHABET, max_size=150))
    @settings(max_examples=300, deadline=None)
    def test_levenshtein_matches_dynamic_program(self, a, b):
        expected = dp_levenshtein(a, b)
        assert levenshtein(a, b) == expected
        assert levenshtein(b, a) == expected

    @given(st.text(max_size=90), st.text(max_size=90))
    @settings(max_examples=100, deadline=None)
    def test_levenshtein_matches_dynamic_program_any_text(self, a, b):
        assert levenshtein(a, b) == dp_levenshtein(a, b)

    @pytest.mark.parametrize("a,b", [
        ("", ""), ("", "日本"), ("x" * 64, ""), ("a" * 64, "a" * 65),
        ("ab" * 40, "ba" * 40), ("é" * 70 + "z", "z" + "é" * 70),
        ("q" * 200, "r" * 130),
    ])
    def test_levenshtein_edge_cases(self, a, b):
        assert levenshtein(a, b) == dp_levenshtein(a, b)
        assert levenshtein(b, a) == dp_levenshtein(b, a)

    def test_levenshtein_similarity_range(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert 0.0 <= levenshtein_similarity("abc", "xyz") <= 1.0

    def test_jaccard(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0

    def test_overlap_coefficient(self):
        assert overlap_coefficient({"a", "b"}, {"b"}) == 1.0
        assert overlap_coefficient(set(), {"a"}) == 0.0

    def test_cosine_identical(self):
        assert cosine_tokens(["a", "b"], ["a", "b"]) == pytest.approx(1.0)

    def test_qgrams_padding(self):
        grams = qgrams("ab", q=3)
        assert "##a" in grams and "ab#" in grams

    def test_numeric_similarity(self):
        assert numeric_similarity("100", "100") == 1.0
        assert numeric_similarity("100", "110") == pytest.approx(1.0 - 10 / 110)
        assert numeric_similarity("abc", "100") == 0.0


class TestPairFeatures:
    def test_vector_length(self):
        pair = EntityPair(
            Entity.from_dict("a", {"title": "x", "price": "1"}),
            Entity.from_dict("b", {"title": "x", "price": "1"}),
            1,
        )
        features = pair_features(pair)
        # per-attribute batteries + whole-record battery
        assert len(features) == len(FEATURE_NAMES) * 3

    def test_identical_pair_maximal_similarity(self):
        e = Entity.from_dict("a", {"title": "acme widget"})
        features = similarity_features("acme widget", "acme widget")
        assert features[FEATURE_NAMES.index("lev_sim")] == 1.0
        assert features[FEATURE_NAMES.index("exact")] == 1.0

    def test_missing_value_flag(self):
        features = similarity_features("nan", "anything")
        assert features[FEATURE_NAMES.index("missing")] == 1.0
        assert sum(features) == 1.0


def test_featurize_pairs_bitwise_unchanged_on_dblp_acm(monkeypatch):
    """The bit-vector edit distance leaves the Magellan feature matrix of
    DBLP-ACM pairs bitwise what the dynamic program gives."""
    pairs = load_dataset("DBLP-ACM", scale=Scale.ci()).pairs
    features = featurize_pairs(pairs)
    monkeypatch.setattr(features_mod, "levenshtein", dp_levenshtein)
    reference = featurize_pairs(pairs)
    assert features.shape == reference.shape
    assert np.array_equal(features, reference)


def _separable_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    return X, y


class TestDecisionTree:
    def test_fits_separable_data(self):
        X, y = _separable_data()
        tree = DecisionTree(max_depth=6).fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.9

    def test_max_depth_respected(self):
        X, y = _separable_data()
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTree().fit(X, y)
        assert tree.depth() == 0
        np.testing.assert_array_equal(tree.predict(X), [1, 1, 1])

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict(np.zeros((1, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros(5), np.zeros(5))

    def test_probabilities_in_range(self):
        X, y = _separable_data()
        proba = DecisionTree(max_depth=3).fit(X, y).predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))


class TestRandomForest:
    def test_fits_separable_data(self):
        X, y = _separable_data()
        forest = RandomForest(n_trees=7, seed=1).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.9

    def test_deterministic_under_seed(self):
        X, y = _separable_data()
        a = RandomForest(n_trees=5, seed=3).fit(X, y).predict_proba(X)
        b = RandomForest(n_trees=5, seed=3).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(a, b)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((1, 2)))

    def test_invalid_max_features(self):
        X, y = _separable_data()
        with pytest.raises(ValueError):
            RandomForest(max_features="bogus").fit(X, y)


class TestLinearModels:
    @pytest.mark.parametrize("model_cls", [LogisticRegression, LinearSVM,
                                           LinearRegressionClassifier])
    def test_fits_separable_data(self, model_cls):
        X, y = _separable_data()
        model = model_cls().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9

    @pytest.mark.parametrize("model_cls", [LogisticRegression, LinearSVM,
                                           LinearRegressionClassifier])
    def test_probabilities_bounded(self, model_cls):
        X, y = _separable_data()
        proba = model_cls().fit(X, y).predict_proba(X)
        assert np.all((proba >= 0.0) & (proba <= 1.0))

    def test_logreg_handles_constant_feature(self):
        X, y = _separable_data()
        X = np.hstack([X, np.ones((len(X), 1))])  # zero-variance column
        LogisticRegression().fit(X, y)  # must not divide by zero
