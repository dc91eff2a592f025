"""Integration tests for HierGAT / HierGAT+ at CI scale."""

import dataclasses

import numpy as np
import pytest

from repro.autograd import broadcast_to, concat, functional as F, no_grad
from repro.config import Scale
from repro.core import ContextFlags, HierGAT, HierGATConfig, HierGATPlus
from repro.core.aggregation import EntitySummarizer
from repro.core.attention_viz import attention_report
from repro.core.hiergat import _common_token_masks
from repro.data import load_dataset
from repro.data.collective import CollectiveQuery, load_collective
from repro.data.schema import Entity
from repro.nn import Dropout


@pytest.fixture(scope="module")
def dataset():
    from repro.config import set_scale

    set_scale(Scale.ci())
    return load_dataset("Fodors-Zagats", scale=Scale.ci())


@pytest.fixture(scope="module")
def collective():
    from repro.config import set_scale

    set_scale(Scale.ci())
    return load_collective("Amazon-Google", scale=Scale.ci())


@pytest.fixture(scope="module")
def fitted(dataset):
    matcher = HierGAT()
    matcher.fit(dataset)
    return matcher


class TestHierGATPairwise:
    def test_fit_produces_history(self, fitted):
        assert len(fitted.train_result.losses) == Scale.ci().epochs
        assert all(np.isfinite(l) for l in fitted.train_result.losses)

    def test_predictions_binary(self, fitted, dataset):
        predictions = fitted.predict(dataset.split.test)
        assert set(np.unique(predictions)) <= {0, 1}

    def test_scores_deterministic_at_eval(self, fitted, dataset):
        a = fitted.scores(dataset.split.test[:4])
        b = fitted.scores(dataset.split.test[:4])
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_attention_report(self, fitted, dataset):
        reports = attention_report(fitted, dataset.split.test[:2])
        assert len(reports) == 2
        for report in reports:
            assert report.token_weights  # non-empty
            total = sum(w for _, w in report.attribute_weights)
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_fit_tokenises_each_attribute_once(self, dataset, monkeypatch):
        """A fit tokenises each distinct attribute once across all epochs
        and validation passes, and leaves no memo on the encoder that
        serving shares afterwards."""
        from repro.matchers.encoding import AttributeEncoder

        calls = []
        original = AttributeEncoder.attribute_ids

        def counting(encoder, entity, slot):
            calls.append(entity.attributes[slot])
            return original(encoder, entity, slot)

        monkeypatch.setattr(AttributeEncoder, "attribute_ids", counting)
        matcher = HierGAT().fit(dataset)
        assert Scale.ci().epochs > 1
        assert calls and len(calls) == len(set(calls))
        assert vars(matcher._encoder).keys() == {
            "vocab", "max_value_tokens", "include_key"}
        calls.clear()
        matcher.scores(dataset.split.valid[:3])
        matcher.scores(dataset.split.valid[:3])
        assert len(calls) == 2 * 2 * 3 * matcher._num_attributes

    def test_unfitted_raises(self, dataset):
        with pytest.raises(RuntimeError):
            HierGAT().scores(dataset.split.test)


class TestHierGATConfigs:
    @pytest.mark.parametrize("mode", ["view_average", "shared_space", "weight_average"])
    def test_comparison_modes_trainable(self, dataset, mode):
        config = HierGATConfig(comparison_mode=mode)
        matcher = HierGAT(config=config)
        matcher.fit(dataset)
        assert 0.0 <= matcher.test_f1(dataset) <= 100.0

    def test_non_context_variant(self, dataset):
        config = HierGATConfig(context=ContextFlags.none())
        matcher = HierGAT(config=config)
        matcher.fit(dataset)
        assert 0.0 <= matcher.test_f1(dataset) <= 100.0


class TestHierGATPlus:
    def test_fit_and_collective_eval(self, collective):
        matcher = HierGATPlus()
        matcher.fit(collective)
        f1 = matcher.test_f1_collective(collective)
        assert 0.0 <= f1 <= 100.0

    def test_group_scores_align_with_candidates(self, collective):
        matcher = HierGATPlus()
        matcher.fit(collective)
        group = collective.test[0]
        scores = matcher._group_scores(group)
        assert scores.shape == (len(group.candidates),)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_pairwise_interface_on_plus(self, collective):
        matcher = HierGATPlus()
        matcher.fit(collective)
        pairs = collective.pairs("test")[:4]
        assert matcher.predict(pairs).shape == (4,)

    def test_ablation_flags_reach_forward(self, collective):
        """Over the same fitted weights, turning entity context on changes
        the scores, and the alignment layer runs exactly when enabled.

        Alignment only feeds the Equation 4 entity context, which the
        weight-average pool adds equally to every slot's logit, so the
        softmax cancels it and it cannot move the scores."""
        config = HierGATConfig(use_alignment=False, use_entity_summarization=False,
                               context=ContextFlags(token=True, attribute=True, entity=False))
        matcher = HierGATPlus(config=config)
        matcher.fit(collective)
        assert matcher._network.config.use_alignment is False
        group = _groups(collective)[0]

        def run(variant):
            other = _built_plus(collective, variant)
            other._network.load_state_dict(matcher._network.state_dict())
            return other._group_scores(group), other._network

        scores, net = run(config)
        entity_scores, _ = run(dataclasses.replace(config, context=ContextFlags()))
        assert np.abs(entity_scores - scores).max() > 1e-4
        assert net.alignment.last_weights is None
        _, aligned = run(dataclasses.replace(config, use_alignment=True,
                                             use_entity_summarization=True))
        assert aligned.alignment.last_weights.shape == (len(group.candidates) + 1,) * 2


def _per_slot_group_reference(net, slots, common_masks=None):
    """The collective forward composed slot by slot (3K LM calls), from the
    network's own modules: the reference the slot-stacked
    ``HierGATNetwork.forward_group`` must agree with."""
    flags = net.config.context
    m = slots[0][0].shape[0]
    n = m - 1
    raws, token_ctxs, attr_ctxs = [], [], []
    for ids, mask in slots:
        raw = net.context.lm.embed(ids)
        token_ctx = net.context.lm.encoder(raw, pad_mask=mask) if flags.token else None
        source = token_ctx if token_ctx is not None else raw
        raws.append(raw)
        token_ctxs.append(token_ctx)
        attr_ctxs.append(net.context.attribute_context(source, mask)
                         if flags.attribute else None)
    unique_ctx = None
    if flags.attribute:
        unique_ctx = concat([a.sum(axis=0).reshape(1, -1) for a in attr_ctxs], axis=0)

    wpcs, attrs = [], []
    for k, (ids, mask) in enumerate(slots):
        attr_ctx = attr_ctxs[k]
        if (flags.entity and flags.attribute and common_masks is not None
                and common_masks[k].any()):
            source = token_ctxs[k] if token_ctxs[k] is not None else raws[k]
            attr_ctx = attr_ctx + net.context.redundant_context(
                source, common_masks[k], unique_ctx)
        wpc = net.context.compose(raws[k], token_ctxs[k], attr_ctx)
        wpcs.append(wpc)
        attrs.append(net.summarizer(wpc, mask))

    views = EntitySummarizer.mean_view(attrs)
    if net.config.use_alignment:
        views = net.alignment(views)
    similarities = []
    for k, (ids, mask) in enumerate(slots):
        query = wpcs[k][0:1]
        similarities.append(net.comparator(
            broadcast_to(query, (n,) + query.shape[1:]),
            np.broadcast_to(mask[0:1], (n,) + mask.shape[1:]),
            wpcs[k][1:], mask[1:]))
    entity_context = None
    if net.config.use_entity_summarization:
        entity_context = concat(
            [broadcast_to(views[0:1], (n, views.shape[1])), views[1:]], axis=1)
    return net.head(net.entity_comparator(similarities, entity_context))


def _built_plus(collective, config=None):
    """An unfitted HierGAT+ for ``collective``: pre-trained LM, warm-started
    head, every other weight at its seeded initialisation."""
    matcher = HierGATPlus(config=config)
    matcher._build(min(len(q.query.attributes)
                       for q in collective.train + collective.valid + collective.test))
    return matcher


def _groups(collective):
    return [q for q in collective.train + collective.valid + collective.test
            if q.candidates]


#: The Table 9–11 ablation configs of the collective harness.
GROUP_CONFIGS = {
    "default": HierGATConfig(),
    "non-entity": HierGATConfig(context=ContextFlags(token=True, attribute=True, entity=False)),
    "non-attribute": HierGATConfig(context=ContextFlags(token=True, attribute=False, entity=True)),
    "non-context": HierGATConfig(context=ContextFlags.none()),
    "non-sum": HierGATConfig(use_entity_summarization=False),
    "non-align": HierGATConfig(use_alignment=False),
    "weight-average": HierGATConfig(comparison_mode="weight_average"),
    "view-average": HierGATConfig(comparison_mode="view_average"),
    "shared-space": HierGATConfig(comparison_mode="shared_space"),
}


class TestStackedGroupForward:
    @pytest.mark.parametrize("name", list(GROUP_CONFIGS))
    def test_matches_per_slot_reference(self, collective, name):
        """The slot-stacked collective forward agrees with the per-slot
        composition on every CI-scale Amazon-Google group; the common width
        W only reassociates floats."""
        matcher = _built_plus(collective, GROUP_CONFIGS[name])
        net = matcher._network
        net.eval()
        with no_grad():
            for group in _groups(collective):
                slots, common_masks = matcher._group_slots(group)
                np.testing.assert_allclose(
                    net.forward_group(slots, common_masks).data,
                    _per_slot_group_reference(net, slots, common_masks).data,
                    atol=1e-5, rtol=1e-4)

    def test_gradients_match_per_slot_reference(self, collective):
        """With dropout off, a train-mode backward through the stacked
        forward gives the reference's finite gradients."""
        matcher = _built_plus(collective)
        net = matcher._network
        net.train()
        for module in net.modules():
            if isinstance(module, Dropout):
                module.p = 0.0
        group = _groups(collective)[0]
        slots, common_masks = matcher._group_slots(group)

        def gradients(forward):
            net.zero_grad()
            F.cross_entropy(forward(slots, common_masks), np.asarray(group.labels)).backward()
            return {name: p.grad for name, p in net.named_parameters()}

        stacked = gradients(net.forward_group)
        reference = gradients(lambda s, c: _per_slot_group_reference(net, s, c))
        assert stacked.keys() == reference.keys()
        for name, grad in stacked.items():
            assert (grad is None) == (reference[name] is None), name
            if grad is not None:
                assert np.all(np.isfinite(grad)), name
                np.testing.assert_allclose(grad, reference[name], atol=1e-5, rtol=1e-4,
                                           err_msg=name)


def _set_based_common_masks(slot_ids, special_ids):
    """The per-token set-based rule: a token is common when ≥2 distinct rows
    hold it in any slot; specials never are."""
    specials = set(int(s) for s in special_ids)
    owners = {}
    for ids in slot_ids:
        for row in range(ids.shape[0]):
            for token in set(int(t) for t in ids[row]) - specials:
                owners.setdefault(token, set()).add(row)
    common = [t for t, rows in owners.items() if len(rows) >= 2]
    return [np.isin(ids, common) for ids in slot_ids]


class TestCommonTokenMasks:
    def test_matches_set_based_rule_on_random_groups(self):
        rng = np.random.default_rng(0)
        specials = [0, 1, 2, 3, 4]          # 0 is the pad id
        for _ in range(200):
            m, k_slots = rng.integers(2, 7), rng.integers(1, 5)
            slot_ids = []
            for _ in range(k_slots):
                width = rng.integers(1, 9)
                ids = rng.integers(0, 25, size=(m, width))
                lengths = rng.integers(1, width + 1, size=m)
                ids[np.arange(width) >= lengths[:, None]] = 0   # right padding
                slot_ids.append(ids)
            got = _common_token_masks(slot_ids, special_ids=specials)
            want = _set_based_common_masks(slot_ids, specials)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


    def test_shared_tokens_flagged(self):
        ids_a = np.array([[1, 10, 11], [1, 10, 12]])  # token 10 shared by 2 rows
        masks = _common_token_masks([ids_a], special_ids=[0, 1])
        np.testing.assert_array_equal(masks[0][:, 1], [True, True])
        np.testing.assert_array_equal(masks[0][:, 2], [False, False])

    def test_specials_never_common(self):
        ids = np.array([[1, 5], [1, 6]])
        masks = _common_token_masks([ids], special_ids=[0, 1])
        assert not masks[0][:, 0].any()

    def test_cross_slot_sharing_counts(self):
        # token 20 appears in slot 0 of row 0 and slot 1 of row 1.
        slot0 = np.array([[20, 21], [22, 23]])
        slot1 = np.array([[24, 25], [20, 26]])
        masks = _common_token_masks([slot0, slot1], special_ids=[0])
        assert masks[0][0, 0] and masks[1][1, 0]


def test_collective_query_validation():
    entity = Entity.from_dict("q", {"t": "x"})
    with pytest.raises(ValueError):
        CollectiveQuery(query=entity, candidates=[entity], labels=[1, 0])
