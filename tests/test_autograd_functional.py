"""Gradient and behaviour tests for the functional ops."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, gradcheck


@pytest.fixture(autouse=True)
def float64_mode(f64):
    yield


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestActivations:
    def test_relu_gradcheck(self, rng):
        x = t(rng.standard_normal((3, 4)) + 0.05)
        assert gradcheck(F.relu, [x])

    def test_relu_zeroes_negative(self):
        out = F.relu(t([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_leaky_relu_gradcheck(self, rng):
        x = t(rng.standard_normal((3, 4)) + 0.05)
        assert gradcheck(lambda a: F.leaky_relu(a, 0.2), [x])

    def test_leaky_relu_negative_slope(self):
        out = F.leaky_relu(t([-10.0]), 0.2)
        np.testing.assert_allclose(out.data, [-2.0])

    def test_sigmoid_gradcheck(self, rng):
        assert gradcheck(F.sigmoid, [t(rng.standard_normal((2, 3)))])

    def test_sigmoid_range(self, rng):
        out = F.sigmoid(t(rng.standard_normal(100) * 10))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_gelu_gradcheck(self, rng):
        assert gradcheck(F.gelu, [t(rng.standard_normal((2, 3)))])


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self, rng):
        out = F.softmax(t(rng.standard_normal((4, 5))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_gradcheck(self, rng):
        assert gradcheck(lambda a: F.softmax(a, axis=-1), [t(rng.standard_normal((3, 4)))])

    def test_softmax_axis0_gradcheck(self, rng):
        assert gradcheck(lambda a: F.softmax(a, axis=0), [t(rng.standard_normal((3, 4)))])

    def test_softmax_stable_with_large_logits(self):
        out = F.softmax(t([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = t(rng.standard_normal((2, 4)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12,
        )

    def test_log_softmax_gradcheck(self, rng):
        assert gradcheck(lambda a: F.log_softmax(a, axis=-1), [t(rng.standard_normal((3, 4)))])


class TestDropoutMasking:
    def test_dropout_identity_in_eval(self, rng):
        x = t(rng.standard_normal((5, 5)))
        assert F.dropout(x, 0.5, training=False) is x

    def test_dropout_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_masked_fill_blocks_gradient(self):
        x = t([1.0, 2.0, 3.0])
        mask = np.array([False, True, False])
        F.masked_fill(x, mask, -99.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 1.0])

    def test_where_gradcheck(self, rng):
        a, b = t(rng.standard_normal(4)), t(rng.standard_normal(4))
        cond = np.array([True, False, True, False])
        assert gradcheck(lambda x, y: F.where(cond, x, y), [a, b])


class TestEmbeddingLayerNorm:
    def test_embedding_lookup_and_grad(self, rng):
        w = t(rng.standard_normal((6, 4)))
        indices = np.array([[0, 1], [5, 1]])
        assert gradcheck(lambda ww: F.embedding(ww, indices), [w])

    def test_embedding_shape(self, rng):
        w = t(rng.standard_normal((10, 3)))
        assert F.embedding(w, np.array([1, 2, 3])).shape == (3, 3)

    def test_layer_norm_output_standardised(self, rng):
        x = t(rng.standard_normal((4, 8)) * 5 + 3)
        g, b = t(np.ones(8)), t(np.zeros(8))
        out = F.layer_norm(x, g, b)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_bitwise_equals_mean_var_form(self, rng, dtype):
        """Centring once and averaging its squares is bitwise the
        ``x.mean`` / ``x.var`` expression it replaced, forward and
        backward."""
        def reference(x, gamma, beta, eps=1e-5):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            x_hat = (x - mu) * (1.0 / np.sqrt(var + eps))
            return gamma * x_hat + beta

        for trial in range(300):
            width = int(rng.integers(1, 40))
            shape = tuple(int(n) for n in rng.integers(1, 5, size=trial % 3)) + (width,)
            x = (rng.standard_normal(shape) * rng.uniform(0.01, 100)
                 + rng.uniform(-50, 50)).astype(dtype)
            gamma = rng.standard_normal(width).astype(dtype)
            beta = rng.standard_normal(width).astype(dtype)
            out = F.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
            assert out.data.dtype == dtype
            assert out.data.tobytes() == reference(x, gamma, beta).tobytes()

    def test_layer_norm_gradcheck(self, rng):
        x = t(rng.standard_normal((3, 5)))
        g, b = t(rng.standard_normal(5)), t(rng.standard_normal(5))
        assert gradcheck(lambda a, gg, bb: F.layer_norm(a, gg, bb), [x, g, b])


class TestLosses:
    def test_cross_entropy_gradcheck(self, rng):
        logits = t(rng.standard_normal((6, 3)))
        targets = np.array([0, 1, 2, 0, 1, 2])
        assert gradcheck(lambda l: F.cross_entropy(l, targets), [logits])

    def test_cross_entropy_weighted_gradcheck(self, rng):
        logits = t(rng.standard_normal((4, 2)))
        targets = np.array([0, 1, 1, 0])
        weight = np.array([1.0, 3.0])
        assert gradcheck(lambda l: F.cross_entropy(l, targets, weight=weight), [logits])

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-4

    def test_cross_entropy_rejects_1d(self):
        with pytest.raises(ValueError):
            F.cross_entropy(t([1.0, 2.0]), np.array([0]))

    def test_bce_matches_manual(self, rng):
        logits = t(rng.standard_normal(5))
        targets = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits.data))
        manual = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        np.testing.assert_allclose(loss.item(), manual, rtol=1e-6)

    def test_bce_gradcheck(self, rng):
        logits = t(rng.standard_normal(5))
        targets = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        assert gradcheck(lambda l: F.binary_cross_entropy_with_logits(l, targets), [logits])

    def test_mse_zero_at_target(self):
        pred = t([1.0, 2.0])
        assert F.mse_loss(pred, np.array([1.0, 2.0])).item() == 0.0
