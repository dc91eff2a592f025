"""Tests for the module system and core layers."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, gradcheck
from repro.nn import (
    GRU, Dropout, Embedding, GraphAttention, GraphAttnPool, LayerNorm, Linear,
    MLP, MaskedAttnPool, Module, MultiHeadSelfAttention, Parameter,
    PositionalEncoding, Sequential, TransformerEncoder, TransformerEncoderLayer,
)


class TestModuleSystem:
    def test_parameters_collected_recursively(self, rng):
        mlp = MLP(4, 8, 2, rng=rng)
        names = dict(mlp.named_parameters())
        assert "fc1.weight" in names and "fc2.bias" in names
        assert len(mlp.parameters()) == 4

    def test_module_list_registration(self, rng):
        class Stack(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Linear(2, 2, rng=rng) for _ in range(3)]

        assert len(Stack().parameters()) == 6

    def test_train_eval_propagates(self, rng):
        mlp = MLP(4, 8, 2, dropout=0.5, rng=rng)
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_state_dict_roundtrip(self, rng):
        a = MLP(4, 8, 2, rng=rng)
        b = MLP(4, 8, 2, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
        np.testing.assert_allclose(a(x).data, b(x).data, rtol=1e-5)

    def test_load_state_dict_rejects_mismatch(self, rng):
        a = Linear(2, 2, rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({"bogus": np.zeros(2)})

    def test_zero_grad_clears(self, rng):
        lin = Linear(2, 2, rng=rng)
        lin(Tensor(np.ones((1, 2), dtype=np.float32))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_sequential(self, rng):
        seq = Sequential(Linear(2, 3, rng=rng), Linear(3, 1, rng=rng))
        assert seq(Tensor(np.ones((4, 2), dtype=np.float32))).shape == (4, 1)

    def test_num_parameters(self, rng):
        lin = Linear(3, 2, rng=rng)
        assert lin.num_parameters() == 3 * 2 + 2


class TestLayers:
    def test_linear_shapes_and_grad(self, rng):
        lin = Linear(4, 3, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32), requires_grad=True)
        out = lin(x)
        assert out.shape == (2, 5, 3)
        out.sum().backward()
        assert lin.weight.grad is not None and x.grad is not None

    def test_linear_no_bias(self, rng):
        assert Linear(4, 3, bias=False, rng=rng).bias is None

    def test_embedding_bounds_check(self, rng):
        emb = Embedding(5, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([7]))

    def test_embedding_grad_accumulates_repeats(self, rng):
        emb = Embedding(5, 2, rng=rng)
        emb(np.array([1, 1, 1])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], [3.0, 3.0], rtol=1e-6)
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])

    def test_layernorm_normalises(self, rng):
        ln = LayerNorm(6)
        x = Tensor((rng.standard_normal((3, 6)) * 7 + 2).astype(np.float32))
        out = ln(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_dropout_eval_identity(self, rng):
        drop = Dropout(0.9, rng=rng)
        drop.eval()
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        assert drop(x) is x


class TestAttention:
    def test_mhsa_shape_and_mask(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
        out = attn(x, pad_mask=mask)
        assert out.shape == (2, 5, 8)
        # No attention mass on padding keys.
        assert attn.last_attention[0, :, :, 3:].max() < 1e-6

    def test_mhsa_dim_head_validation(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2)

    def test_graph_attention_respects_adjacency(self, rng):
        gat = GraphAttention(4, 4, num_heads=1, rng=rng)
        h = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        adj = np.zeros((3, 3), dtype=bool)  # only self-loops added internally
        gat(h, adj)
        attention = gat.last_attention[:, :, 0]
        np.testing.assert_allclose(attention, np.eye(3), atol=1e-5)

    def test_graph_attention_head_split_validation(self):
        with pytest.raises(ValueError):
            GraphAttention(4, 5, num_heads=2)

    def test_graph_attn_pool_weights_sum_to_one(self, rng):
        pool = GraphAttnPool(6, rng=rng)
        out = pool(Tensor(rng.standard_normal((4, 6)).astype(np.float32)))
        assert out.shape == (6,)
        assert pool.last_weights.sum() == pytest.approx(1.0, abs=1e-5)

    def test_graph_attn_pool_context_validation(self, rng):
        pool = GraphAttnPool(6, context_dim=0, rng=rng)
        with pytest.raises(ValueError):
            pool(Tensor(np.ones((2, 6), dtype=np.float32)),
                 extra=Tensor(np.ones(4, dtype=np.float32)))

    def test_masked_attn_pool_ignores_padding(self, rng):
        pool = MaskedAttnPool(4, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
        mask = np.array([[True, False, False], [True, True, True]])
        pool(x, mask=mask)
        np.testing.assert_allclose(pool.last_weights[0], [1.0, 0.0, 0.0], atol=1e-5)

    def test_masked_attn_pool_with_context(self, rng):
        pool = MaskedAttnPool(4, context_dim=8, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
        extra = Tensor(rng.standard_normal((2, 8)).astype(np.float32))
        assert pool(x, extra=extra).shape == (2, 4)


class TestTransformer:
    def test_positional_encoding_determinism(self):
        a, b = PositionalEncoding(8), PositionalEncoding(8)
        np.testing.assert_array_equal(a.table, b.table)

    def test_positional_encoding_length_check(self, rng):
        pe = PositionalEncoding(8, max_len=4)
        with pytest.raises(ValueError):
            pe(Tensor(np.zeros((1, 5, 8), dtype=np.float32)))

    def test_encoder_layer_shape(self, rng):
        layer = TransformerEncoderLayer(8, 2, rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 8)).astype(np.float32))
        assert layer(x).shape == (2, 4, 8)

    def test_encoder_cls_output(self, rng):
        enc = TransformerEncoder(8, num_layers=2, num_heads=2, rng=rng)
        x = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
        assert enc.cls_output(x).shape == (3, 8)

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_cls_output_matches_full_forward_row0(self, rng, num_layers, mode):
        """The [CLS]-row last layer equals row 0 of the full-sequence
        forward (train mode with dropout 0 draws no masks)."""
        enc = TransformerEncoder(8, num_layers=num_layers, num_heads=2,
                                 dropout=0.0, rng=rng)
        enc.train(mode == "train")
        x = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
        mask = np.array([[True] * 5, [True] * 3 + [False] * 2,
                         [True] + [False] * 4])
        full = enc(x, pad_mask=mask).data[:, 0, :]
        np.testing.assert_allclose(enc.cls_output(x, pad_mask=mask).data, full,
                                   atol=1e-5, rtol=0)

    def test_cls_output_gradcheck(self, f64, rng):
        """Gradients through the [CLS]-row last layer: the input, the
        row-0 query and feed-forward weights, and the all-token keys."""
        enc = TransformerEncoder(4, num_layers=2, num_heads=2, ff_dim=8,
                                 dropout=0.0, rng=rng)
        last = enc.layers[-1]
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        mask = np.array([[True, True, True], [True, True, False]])
        assert gradcheck(lambda a, *_: enc.cls_output(a, pad_mask=mask),
                         [x, last.attn.q_proj.weight, last.attn.k_proj.weight,
                          last.ff1.weight, last.norm1.gamma])

    def test_cls_only_attention_row_shape(self, rng):
        from repro.core.aggregation import AttributeSummarizer

        summarizer = AttributeSummarizer(8, num_heads=2, rng=rng)
        summarizer.eval()
        x = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
        mask = np.array([[True] * 5, [True] * 3 + [False] * 2,
                         [True] * 2 + [False] * 3])
        summarizer(x, mask)
        attn = summarizer.encoder.layers[-1].attn.last_attention
        assert attn.shape == (3, 2, 1, 5)
        weights = summarizer.attention_map()       # Figure 9 input
        assert weights.shape == (3, 5)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(weights[~mask] < 1e-6)

    def test_encoder_gradient_flows_to_input(self, rng):
        enc = TransformerEncoder(8, num_layers=1, num_heads=2, dropout=0.0, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32), requires_grad=True)
        enc(x).sum().backward()
        assert np.abs(x.grad).sum() > 0

    def test_attention_maps_collected(self, rng):
        enc = TransformerEncoder(8, num_layers=2, num_heads=2, rng=rng)
        enc(Tensor(np.random.default_rng(0).standard_normal((1, 4, 8)).astype(np.float32)))
        assert len(enc.attention_maps()) == 2


class TestGRU:
    def test_gru_shapes(self, rng):
        gru = GRU(6, 5, bidirectional=True, rng=rng)
        x = Tensor(rng.standard_normal((2, 7, 6)).astype(np.float32))
        out, final = gru(x)
        assert out.shape == (2, 7, 10) and final.shape == (2, 10)

    def test_gru_mask_freezes_state(self, rng):
        gru = GRU(4, 3, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 4)).astype(np.float32))
        mask = np.array([[True, True, False, False]])
        out, final = gru(x, pad_mask=mask)
        # Final state equals the state after the last valid step.
        np.testing.assert_allclose(final.data, out.data[:, 3, :], atol=1e-6)
        np.testing.assert_allclose(out.data[:, 1, :], out.data[:, 2, :], atol=1e-6)

    def test_gru_gradients_flow(self, rng):
        gru = GRU(4, 3, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        _, final = gru(x)
        final.sum().backward()
        assert np.abs(x.grad).sum() > 0
