"""Tests for the simulated pre-trained language models."""

import contextlib

import numpy as np
import pytest

from repro.autograd import get_default_dtype, set_default_dtype
from repro.config import Scale
from repro.lm import CorpusEmbeddings, LANGUAGE_MODELS, load_language_model, mlm_warmup
from repro.lm.registry import LM_SWEEP
from repro.text.vocab import Vocabulary


@contextlib.contextmanager
def _default_dtype(dtype):
    """Switch the process-global default dtype, restoring it on exit."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


@pytest.fixture
def small_corpus():
    return [
        ["acme", "laser", "printer"],
        ["acme", "inkjet", "printer"],
        ["zeta", "quartz", "watch"],
        ["zeta", "dive", "watch"],
        ["acme", "printer", "cartridge"],
    ] * 4


@pytest.fixture
def vocab(small_corpus):
    return Vocabulary.from_corpus(small_corpus, num_oov_buckets=16)


class TestCorpusEmbeddings:
    def test_fit_produces_matrix(self, vocab, small_corpus):
        emb = CorpusEmbeddings(vocab, dim=8).fit(small_corpus)
        assert emb.matrix.shape == (len(vocab), 8)

    def test_cooccurring_words_more_similar(self, vocab, small_corpus):
        emb = CorpusEmbeddings(vocab, dim=8).fit(small_corpus)
        # printer co-occurs with acme; watch with zeta.
        assert emb.similarity("acme", "printer") > emb.similarity("acme", "watch")

    def test_nearest_excludes_query_and_specials(self, vocab, small_corpus):
        emb = CorpusEmbeddings(vocab, dim=8).fit(small_corpus)
        nearest = emb.nearest("printer", k=3)
        assert "printer" not in nearest
        assert all(not t.startswith("[") for t in nearest)

    def test_unfitted_raises(self, vocab):
        with pytest.raises(RuntimeError):
            CorpusEmbeddings(vocab, dim=4).matrix

    def test_empty_corpus_rejected(self, vocab):
        with pytest.raises(ValueError):
            CorpusEmbeddings(vocab, dim=4).fit([])

    def test_deterministic(self, vocab, small_corpus):
        a = CorpusEmbeddings(vocab, dim=8, seed=1).fit(small_corpus).matrix
        b = CorpusEmbeddings(vocab, dim=8, seed=1).fit(small_corpus).matrix
        np.testing.assert_array_equal(a, b)


class TestRegistry:
    def test_sweep_models_registered(self):
        for name in LM_SWEEP:
            assert name in LANGUAGE_MODELS

    def test_size_ordering(self):
        scale = Scale.ci()
        dims = [LANGUAGE_MODELS[n].dim(scale) for n in LM_SWEEP]
        layers = [LANGUAGE_MODELS[n].layers(scale) for n in LM_SWEEP]
        assert dims == sorted(dims)
        assert layers == sorted(layers)
        assert dims[0] < dims[-1]

    def test_dim_divisible_by_heads(self):
        scale = Scale(hidden_dim=50, num_heads=4)
        for spec in LANGUAGE_MODELS.values():
            assert spec.dim(scale) % scale.num_heads == 0

    def test_unknown_model_raises(self, vocab):
        with pytest.raises(KeyError):
            load_language_model("gpt-99", vocab)

    def test_encode_shapes(self, vocab, small_corpus):
        lm = load_language_model("distilbert", vocab, corpus=small_corpus,
                                 scale=Scale.ci(), rng=np.random.default_rng(0))
        ids = np.array([[1, 8, 9, 0], [1, 10, 0, 0]])
        mask = ids != 0
        assert lm.encode(ids, pad_mask=mask).shape == (2, 4, lm.dim)
        assert lm.encode_cls(ids, pad_mask=mask).shape == (2, lm.dim)

    def test_embeddings_initialised_from_corpus(self, vocab, small_corpus):
        lm = load_language_model("roberta", vocab, corpus=small_corpus,
                                 scale=Scale.ci(), rng=np.random.default_rng(0))
        emb = CorpusEmbeddings(vocab, dim=lm.dim, seed=Scale.ci().seed).fit(small_corpus)
        k = min(emb.dim, lm.dim)
        np.testing.assert_allclose(lm.embedding.weight.data[:, :k], emb.matrix[:, :k])


class TestMLMWarmup:
    def test_loss_curve_returned_and_finite(self, vocab, small_corpus):
        lm = load_language_model("distilbert", vocab, corpus=small_corpus,
                                 scale=Scale.ci(), rng=np.random.default_rng(0))
        losses = mlm_warmup(lm, small_corpus, steps=5, seed=0)
        assert len(losses) <= 5 and all(np.isfinite(l) for l in losses)

    def test_empty_corpus_rejected(self, vocab, small_corpus):
        lm = load_language_model("distilbert", vocab, corpus=small_corpus,
                                 scale=Scale.ci(), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlm_warmup(lm, [["x"]], steps=1)


class TestCheckpoint:
    def test_checkpoint_cached_in_memory_and_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LM_CACHE", str(tmp_path))
        from repro.lm import checkpoint as ck

        ck._memory_cache.clear()
        scale = Scale.ci()
        lm1, head1 = ck.load_checkpoint("distilbert", scale=scale, steps=3)
        assert list(tmp_path.glob("*.npz"))
        # Second load must come from cache and match exactly.
        lm2, head2 = ck.load_checkpoint("distilbert", scale=scale, steps=3)
        np.testing.assert_array_equal(lm1.embedding.weight.data, lm2.embedding.weight.data)
        for k in head1:
            np.testing.assert_array_equal(head1[k], head2[k])

    def test_checkpoint_disk_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LM_CACHE", str(tmp_path))
        from repro.lm import checkpoint as ck

        scale = Scale.ci()
        ck._memory_cache.clear()
        lm1, _ = ck.load_checkpoint("distilbert", scale=scale, steps=3)
        ck._memory_cache.clear()  # force the disk path
        lm2, _ = ck.load_checkpoint("distilbert", scale=scale, steps=3)
        np.testing.assert_array_equal(lm1.embedding.weight.data, lm2.embedding.weight.data)

    def test_checkpoint_key_separates_default_dtypes(self, tmp_path, monkeypatch):
        """A float64 pre-training must never be read back by a float32 run."""
        monkeypatch.setenv("REPRO_LM_CACHE", str(tmp_path))
        from repro.lm import checkpoint as ck

        scale = Scale.ci()
        ck._memory_cache.clear()
        with _default_dtype(np.float64):
            ck.load_checkpoint("distilbert", scale=scale, steps=3)
        with _default_dtype(np.float32):
            ck.load_checkpoint("distilbert", scale=scale, steps=3)
            assert len(list(tmp_path.glob("*.npz"))) == 2
            ck._memory_cache.clear()  # force the disk path
            from_disk, _ = ck.load_checkpoint("distilbert", scale=scale, steps=3)

            monkeypatch.setenv("REPRO_LM_CACHE", str(tmp_path / "empty"))
            ck._memory_cache.clear()
            fresh, _ = ck.load_checkpoint("distilbert", scale=scale, steps=3)
        got, want = from_disk.state_dict(), fresh.state_dict()
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == np.float32
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_global_vocabulary_has_specials_and_size(self):
        from repro.lm.checkpoint import global_vocabulary

        vocab = global_vocabulary()
        assert vocab.pad_id == 0
        assert len(vocab) > 1000


class TestShippedVocabulary:
    """The vocabulary ships inside the checkpoint file: a warm start loads
    it instead of regenerating the pre-training pool."""

    def test_shipped_vocabulary_equals_the_pretraining_build(self):
        from repro.data.magellan import load_dataset
        from repro.lm import checkpoint as ck
        from repro.text.tokenizer import tokenize

        scale = Scale.ci()
        lm, _ = ck.load_checkpoint("roberta", scale)  # builds the file if cold
        key = ck._cache_key("roberta", scale, ck.default_pretrain_steps(scale))
        _, _, shipped = ck._read_checkpoint(ck.cache_dir() / f"{key}.npz")
        built = Vocabulary.from_corpus(
            [list(t) for t in ck.pretraining_corpus()], min_freq=1,
            num_oov_buckets=512)
        for vocab in (shipped, lm.vocab):
            assert vocab._id_to_token == built._id_to_token
            assert vocab.num_oov_buckets == built.num_oov_buckets

        pairs = load_dataset("Abt-Buy", scale=scale).split.test[:20]
        samples = [tokenize(key) + tokenize(value)
                   for pair in pairs for entity in (pair.left, pair.right)
                   for key, value in entity.attributes]
        samples.append(["coolmax-x9", "zzqv", "tp-link", "[CLS]", "nan"])
        ids = [shipped.encode(tokens) for tokens in samples]
        assert ids == [built.encode(tokens) for tokens in samples]
        assert any(i >= built.num_known for row in ids for i in row)  # OOV hit

    def test_warm_start_never_builds_the_pretraining_pool(self, tmp_path,
                                                          monkeypatch):
        from repro.core import HierGAT
        from repro.data.magellan import load_dataset
        from repro.lm import checkpoint as ck
        from repro.matchers.ditto import DittoModel
        from repro.persistence import load_matcher, save_matcher

        scale = Scale.ci()
        dataset = load_dataset("Fodors-Zagats", scale=scale)
        ck.load_checkpoint("roberta", scale)  # the checkpoint is on disk

        def no_pool(*args, **kwargs):
            raise AssertionError("warm start rebuilt the pre-training pool")

        monkeypatch.setattr(ck, "pretraining_pool", no_pool)
        monkeypatch.setattr(ck, "_memory_cache", {})
        ck.global_vocabulary.cache_clear()
        ck.pretraining_corpus.cache_clear()

        HierGAT(scale=scale).fit(dataset)
        ditto = DittoModel(scale=scale).fit(dataset)
        restored = load_matcher(save_matcher(ditto, tmp_path / "ditto.npz"))
        np.testing.assert_array_equal(restored.scores(dataset.split.test[:6]),
                                      ditto.scores(dataset.split.test[:6]))
