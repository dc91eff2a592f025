"""Tests for the performance layer: caches, profiler, checkpoint recovery,
and the numerical-equivalence guarantees of the fast paths."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro import perf
from repro.perf.cache import LRUCache, instance_token

_tensor_mod = importlib.import_module("repro.autograd.tensor")


# ----------------------------------------------------------------------
# LRU cache semantics
# ----------------------------------------------------------------------
def test_lru_eviction_order_and_counters():
    cache = LRUCache(capacity=3)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert cache.get("a") == 1        # "a" becomes most recent
    cache.put("d", 4)                 # evicts the LRU entry: "b"
    assert "b" not in cache
    assert cache.keys() == ["c", "a", "d"]
    assert cache.get("b", "gone") == "gone"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.evictions == 1


def test_lru_get_or_compute_memoizes():
    cache = LRUCache(capacity=8)
    calls = []

    def compute():
        calls.append(1)
        return 42

    assert cache.get_or_compute("k", compute) == 42
    assert cache.get_or_compute("k", compute) == 42
    assert len(calls) == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_lru_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        LRUCache(capacity=0)


def test_resize_drops_lru_entries():
    name = "test-resize"
    cache = perf.get_cache(name)
    cache.clear()
    cache.capacity = 10
    for i in range(4):
        cache.put(i, i)
    perf.resize(name, 2)
    assert len(cache) == 2
    assert cache.keys() == [2, 3]     # oldest entries dropped
    assert cache.stats.evictions >= 2


def test_cache_stats_total_counts_degraded():
    """A poisoned entry of a named cache shows in its row and the total."""
    from repro.reliability import FaultPlan, inject

    name = "test-degraded"
    cache = perf.get_cache(name)
    cache.clear()
    perf.reset_stats()
    cache.get_or_compute("k", lambda: 1)
    with inject(FaultPlan.single("cache.entry", "poison", cache=name)):
        assert cache.get_or_compute("k", lambda: 2) == 2
    stats = perf.cache_stats()
    assert stats[name]["degraded"] == 1
    assert stats["total"]["degraded"] == 1
    cache.clear()


def test_instance_token_stable_and_unique():
    class Thing:
        pass

    a, b = Thing(), Thing()
    assert instance_token(a) == instance_token(a)
    assert instance_token(a) != instance_token(b)


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def test_profiler_disabled_by_default():
    assert not perf.profiler_enabled()
    assert _tensor_mod._profile_hook is None
    before = dict(perf.PROFILER.stats())
    from repro.autograd import Tensor

    (Tensor(np.ones(3)) * 2.0).sum()  # ops run, nothing should be recorded
    assert perf.PROFILER.stats() == before


def test_profiler_records_ops_and_uninstalls_hook():
    from repro.autograd import Tensor

    with perf.profile() as prof:
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        loss = (x * 3.0).sum()
        loss.backward()
    assert _tensor_mod._profile_hook is None   # hook removed on exit
    stats = prof.stats()
    assert stats["mul"].calls >= 1
    assert stats["bwd:mul"].calls >= 1         # backward ops attributed too
    assert stats["mul"].bytes > 0
    assert "mul" in prof.report(5)
    top = prof.top(3)
    assert len(top) <= 3
    assert all(top[i].seconds >= top[i + 1].seconds for i in range(len(top) - 1))


# ----------------------------------------------------------------------
# Checkpoint corruption recovery + atomic writes
# ----------------------------------------------------------------------
def test_checkpoint_read_write_roundtrip(tmp_path):
    from repro.lm import checkpoint as ckpt

    from repro.text.vocab import SPECIAL_TOKENS, Vocabulary

    path = tmp_path / "x.npz"
    vocab = Vocabulary.from_tokens(SPECIAL_TOKENS, num_oov_buckets=1)
    lm_state = {"embedding.weight": np.arange(24, dtype=np.float32).reshape(8, 3)}
    head_state = {"b": np.zeros(2, dtype=np.float32)}
    ckpt._write_checkpoint(path, lm_state, head_state, vocab)
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp.*"))  # temp file cleaned up
    loaded_lm, loaded_head, loaded_vocab = ckpt._read_checkpoint(path)
    np.testing.assert_array_equal(loaded_lm["embedding.weight"],
                                  lm_state["embedding.weight"])
    np.testing.assert_array_equal(loaded_head["b"], head_state["b"])
    assert loaded_vocab.decode(list(range(len(loaded_vocab)))) == \
        SPECIAL_TOKENS + ["[UNK]"]


def test_checkpoint_corrupt_file_discarded(tmp_path):
    from repro.lm import checkpoint as ckpt

    path = tmp_path / "bad.npz"
    path.write_bytes(b"PK\x03\x04 this is not a real zip archive")
    assert ckpt._read_checkpoint(path) is None
    assert not path.exists()          # the corrupt file was removed


def test_load_checkpoint_recovers_from_corruption(tmp_path, monkeypatch):
    from repro.lm import checkpoint as ckpt

    monkeypatch.setenv("REPRO_LM_CACHE", str(tmp_path))
    ckpt._memory_cache.clear()
    lm1, _ = ckpt.load_checkpoint("roberta", steps=1)
    files = list(tmp_path.glob("*.npz"))
    assert len(files) == 1

    # Truncate the checkpoint mid-archive, as an interrupted write would.
    files[0].write_bytes(files[0].read_bytes()[:100])
    ckpt._memory_cache.clear()
    lm2, _ = ckpt.load_checkpoint("roberta", steps=1)   # must not raise
    for key, value in lm1.state_dict().items():
        np.testing.assert_array_equal(value, lm2.state_dict()[key])

    # The rebuilt file on disk is valid again and loads bit-for-bit.
    ckpt._memory_cache.clear()
    lm3, _ = ckpt.load_checkpoint("roberta", steps=1)
    for key, value in lm1.state_dict().items():
        np.testing.assert_array_equal(value, lm3.state_dict()[key])


# ----------------------------------------------------------------------
# Equivalence guarantees of the fast paths
# ----------------------------------------------------------------------
def _per_slot_reference(net, slots):
    """The pairwise forward composed slot by slot (2K LM calls), from the
    network's own modules: the reference the slot-stacked
    ``HierGATNetwork.forward`` must agree with."""
    from repro.autograd import concat
    from repro.core.aggregation import EntitySummarizer

    similarities, left_attrs, right_attrs = [], [], []
    for (left_ids, left_mask), (right_ids, right_mask) in slots:
        left_wpc = net.context(left_ids, left_mask)
        right_wpc = net.context(right_ids, right_mask)
        left_attrs.append(net.summarizer(left_wpc, left_mask))
        right_attrs.append(net.summarizer(right_wpc, right_mask))
        similarities.append(
            net.comparator(left_wpc, left_mask, right_wpc, right_mask))
    entity_context = None
    if net.config.use_entity_summarization:
        entity_context = concat([EntitySummarizer.mean_view(left_attrs),
                                 EntitySummarizer.mean_view(right_attrs)],
                                axis=1)
    return net.head(net.entity_comparator(similarities, entity_context))


def _slots(matcher, pairs):
    return [
        (matcher._encoder.encode_slot(pairs, k, "left"),
         matcher._encoder.encode_slot(pairs, k, "right"))
        for k in range(matcher._num_attributes)
    ]


def test_forward_matches_per_slot_reference_on_uniform_width():
    """With a single attribute slot every sequence shares one padded width;
    the stacked forward's test scores agree with the per-slot reference."""
    from repro.autograd import functional as F, no_grad
    from repro.core.hiergat import HierGAT
    from repro.data.magellan import load_dataset

    ds = load_dataset("Company")    # one "content" attribute
    matcher = HierGAT()
    matcher.fit(ds)
    scores = matcher.scores(ds.split.test)
    net = matcher._network
    net.eval()
    pairs, size = list(ds.split.test), matcher.scale.batch_size
    with no_grad():
        reference = np.concatenate([
            F.softmax(_per_slot_reference(
                net, _slots(matcher, pairs[i:i + size])), axis=-1).data[:, 1]
            for i in range(0, len(pairs), size)])
    np.testing.assert_allclose(scores, reference, atol=1e-5, rtol=1e-4)


def _fitted_hiergat_slots():
    """A fitted HierGAT plus raw slot inputs for a small test batch."""
    from repro.core.hiergat import HierGAT
    from repro.data.magellan import load_dataset

    ds = load_dataset("Beer")       # multi-attribute: slot widths differ
    matcher = HierGAT()
    matcher.fit(ds)
    return matcher, _slots(matcher, ds.split.test[:8])


def _pad_slots_to_common_width(slots, pad_id):
    """Pre-pad every slot batch to the stacked megabatch width W."""
    width = max(ids.shape[1] for left, right in slots for ids, _ in (left, right))

    def pad(ids, mask):
        out_ids = np.full((ids.shape[0], width), pad_id, dtype=ids.dtype)
        out_ids[:, : ids.shape[1]] = ids
        out_mask = np.zeros((mask.shape[0], width), dtype=bool)
        out_mask[:, : mask.shape[1]] = mask
        return out_ids, out_mask

    return [(pad(*left), pad(*right)) for left, right in slots]


def test_fused_nonuniform_matches_per_slot():
    """The slot-stacked forward agrees with the per-slot reference on
    ragged slot widths.

    Positional encodings are computed from the validity mask (the true,
    unpadded token order), so the megabatch's common width W shifts no
    valid position: the only difference from the per-slot composition is
    float reassociation from the extra all-pad columns, which stays within
    tight tolerance."""
    from repro.autograd import no_grad

    matcher, slots = _fitted_hiergat_slots()
    net = matcher._network
    net.eval()
    widths = sorted({ids.shape[1] for left, right in slots
                     for ids, _ in (left, right)})
    assert len(widths) > 1, "Beer slots must have non-uniform widths"

    with no_grad():
        reference = _per_slot_reference(net, slots).data
        stacked = net(slots).data
        padded = _pad_slots_to_common_width(slots, net.context.lm.vocab.pad_id)
        reference_padded = _per_slot_reference(net, padded).data
        stacked_padded = net(padded).data

    np.testing.assert_allclose(reference, stacked, atol=1e-5, rtol=1e-4)
    np.testing.assert_allclose(reference_padded, stacked, atol=1e-5, rtol=1e-4)
    np.testing.assert_allclose(stacked_padded, stacked, atol=1e-5, rtol=1e-4)


def test_outputs_are_width_invariant():
    """Padding width does not leak into model outputs.

    The attribute comparator concatenates the left and right token
    sequences, so with table-order positional encodings the right
    segment's positions used to shift with the (padded) left width.
    Mask-based positions remove that sensitivity: widening every slot by
    all-pad columns leaves both the stacked forward and the per-slot
    reference unchanged to float tolerance.  This invariance is what lets
    the embedding store persist records at their true length and replay
    them into batches of any width."""
    from repro.autograd import no_grad

    matcher, slots = _fitted_hiergat_slots()
    net = matcher._network
    net.eval()
    pad_id = net.context.lm.vocab.pad_id

    def widen(ids, mask, extra):
        out_ids = np.full((ids.shape[0], ids.shape[1] + extra), pad_id,
                          dtype=ids.dtype)
        out_ids[:, : ids.shape[1]] = ids
        out_mask = np.zeros((mask.shape[0], mask.shape[1] + extra), dtype=bool)
        out_mask[:, : mask.shape[1]] = mask
        return out_ids, out_mask

    widened = [(widen(*left, 3), widen(*right, 3)) for left, right in slots]
    with no_grad():
        reference, reference_wide = (_per_slot_reference(net, slots).data,
                                     _per_slot_reference(net, widened).data)
        stacked, stacked_wide = net(slots).data, net(widened).data
    np.testing.assert_allclose(reference_wide, reference, atol=1e-5, rtol=1e-4)
    np.testing.assert_allclose(stacked_wide, stacked, atol=1e-5, rtol=1e-4)
    np.testing.assert_allclose(stacked, reference, atol=1e-5, rtol=1e-4)


def test_fused_nonuniform_backward_produces_finite_grads():
    """The slot-stacked forward must be trainable on ragged slot widths:
    backward reaches every parameter with finite gradients."""
    from repro.autograd import functional as F

    matcher, slots = _fitted_hiergat_slots()
    net = matcher._network
    net.train()
    logits = net(slots)
    labels = np.array([i % 2 for i in range(logits.shape[0])])
    loss = F.cross_entropy(logits, labels)
    assert np.isfinite(loss.item())
    for p in net.parameters():
        p.grad = None
    loss.backward()
    touched = sum(p.grad is not None for p in net.parameters())
    assert touched > 0
    for p in net.parameters():
        if p.grad is not None:
            assert np.all(np.isfinite(p.grad))
    net.eval()

