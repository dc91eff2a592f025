"""Unit tests for the autograd tensor engine: ops, broadcasting, backward."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor, concat, gradcheck, no_grad, ones, randn, set_default_dtype, stack,
    tensor, zeros,
)
from repro.autograd.tensor import unbroadcast


@pytest.fixture(autouse=True)
def float64_mode(f64):
    yield


def t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestConstruction:
    def test_tensor_from_list(self):
        x = tensor([1.0, 2.0, 3.0])
        assert x.shape == (3,)
        assert not x.requires_grad

    def test_zeros_ones_shapes(self):
        assert zeros(2, 3).shape == (2, 3)
        assert ones((4,)).shape == (4,)
        assert np.all(ones(2, 2).data == 1.0)

    def test_randn_seeded(self):
        a = randn(3, rng=np.random.default_rng(1))
        b = randn(3, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a.data, b.data)

    def test_int_input_coerced_to_float(self):
        x = tensor([1, 2, 3])
        assert x.dtype in (np.float32, np.float64)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(tensor([1.0], requires_grad=True))


class TestArithmetic:
    def test_add_backward(self):
        x, y = t([1.0, 2.0]), t([3.0, 4.0])
        (x + y).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_radd_scalar(self):
        x = t([1.0])
        out = 2.0 + x
        out.backward(np.ones(1))
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_sub_rsub(self):
        x = t([5.0])
        (10.0 - x).backward(np.ones(1))
        np.testing.assert_array_equal(x.grad, [-1.0])

    def test_mul_grad_is_other_operand(self):
        x, y = t([2.0, 3.0]), t([5.0, 7.0])
        (x * y).sum().backward()
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])
        np.testing.assert_array_equal(y.grad, [2.0, 3.0])

    def test_div(self):
        x, y = t([6.0]), t([2.0])
        (x / y).backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [0.5])
        np.testing.assert_allclose(y.grad, [-1.5])

    def test_neg_pow(self):
        x = t([3.0])
        ((-x) ** 2).backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            t([1.0]) ** t([2.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        x, y = t(np.ones((3, 4))), t(np.ones(4))
        (x + y).sum().backward()
        np.testing.assert_array_equal(y.grad, [3.0] * 4)

    def test_broadcast_scalar(self):
        x = t(np.ones((2, 2)))
        s = t(2.0)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 4.0)


class TestMatmul:
    def test_matmul_2d_gradcheck(self, rng):
        a = t(rng.standard_normal((3, 4)))
        b = t(rng.standard_normal((4, 5)))
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_matmul_batched_gradcheck(self, rng):
        a = t(rng.standard_normal((2, 3, 4)))
        b = t(rng.standard_normal((2, 4, 5)))
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_matmul_vector_rhs(self, rng):
        a = t(rng.standard_normal((3, 4)))
        v = t(rng.standard_normal(4))
        assert gradcheck(lambda x, y: x @ y, [a, v])

    def test_matmul_vector_lhs(self, rng):
        v = t(rng.standard_normal(3))
        a = t(rng.standard_normal((3, 4)))
        assert gradcheck(lambda x, y: x @ y, [v, a])

    def test_inner_product(self, rng):
        u, v = t(rng.standard_normal(5)), t(rng.standard_normal(5))
        assert gradcheck(lambda x, y: x @ y, [u, v])

    def test_broadcast_batched_matmul(self, rng):
        a = t(rng.standard_normal((2, 3, 4)))
        b = t(rng.standard_normal((4, 5)))  # broadcast over batch
        assert gradcheck(lambda x, y: x @ y, [a, b])


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        x = t(rng.standard_normal((2, 6)))
        assert gradcheck(lambda a: a.reshape(3, 4), [x])

    def test_transpose_default_reverses(self, rng):
        x = t(rng.standard_normal((2, 3, 4)))
        assert x.T.shape == (4, 3, 2)
        assert gradcheck(lambda a: a.transpose(), [x])

    def test_transpose_axes(self, rng):
        x = t(rng.standard_normal((2, 3, 4)))
        assert x.transpose(0, 2, 1).shape == (2, 4, 3)
        assert gradcheck(lambda a: a.transpose(0, 2, 1), [x])

    def test_swapaxes(self, rng):
        x = t(rng.standard_normal((2, 3)))
        assert x.swapaxes(0, 1).shape == (3, 2)

    def test_getitem_slice(self, rng):
        x = t(rng.standard_normal((4, 4)))
        assert gradcheck(lambda a: a[1:3, ::2], [x])

    def test_getitem_fancy_accumulates_duplicates(self):
        x = t([1.0, 2.0, 3.0])
        out = x[np.array([0, 0, 2])]
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    @pytest.mark.parametrize("index", [
        2, np.int64(1), slice(1, 3), (slice(None), 0), (Ellipsis, slice(0, 4, 2)),
        (None, 1, slice(None, None, -1)), (-1, -2),
        np.array([0, 0, 2]), [1, 1], (np.array([0, 2]), slice(1, 3)),
        np.array([True, False, True]), True,
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_getitem_backward_bitwise_equals_add_at(self, rng, index, dtype):
        """The basic-index backward (a plain add) is bitwise what
        ``np.add.at`` gives; advanced indices still use ``np.add.at``."""
        x = Tensor(rng.standard_normal((3, 4)).astype(dtype), requires_grad=True)
        out = x[index]
        grad = rng.standard_normal(out.shape).astype(dtype)
        grad.flat[0] = -0.0
        out.backward(grad)
        expected = np.zeros((3, 4), dtype=dtype)
        np.add.at(expected, index, grad)
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == expected.tobytes()

    def test_concat_gradcheck(self, rng):
        a = t(rng.standard_normal((2, 3)))
        b = t(rng.standard_normal((2, 2)))
        assert gradcheck(lambda x, y: concat([x, y], axis=1), [a, b])

    def test_stack_gradcheck(self, rng):
        a = t(rng.standard_normal(4))
        b = t(rng.standard_normal(4))
        assert gradcheck(lambda x, y: stack([x, y], axis=0), [a, b])


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        x = t(rng.standard_normal((3, 4)))
        assert gradcheck(lambda a: a.sum(axis=1, keepdims=True), [x])

    def test_mean(self, rng):
        x = t(rng.standard_normal((3, 4)))
        assert gradcheck(lambda a: a.mean(axis=0), [x])

    def test_mean_all(self):
        x = t(np.ones((2, 2)))
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 0.25))

    def test_max_gradient_flows_to_argmax(self):
        x = t([1.0, 5.0, 3.0])
        x.max().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_max_ties_split_gradient(self):
        x = t([2.0, 2.0])
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])


class TestElementwise:
    @pytest.mark.parametrize("op", ["exp", "tanh", "abs", "sqrt"])
    def test_unary_gradcheck(self, rng, op):
        data = rng.standard_normal((3, 3))
        if op == "sqrt":
            data = np.abs(data) + 0.5
        if op == "abs":
            data = data + np.sign(data) * 0.1  # keep away from 0 kink
        x = t(data)
        assert gradcheck(lambda a: getattr(a, op)(), [x])

    def test_log_gradcheck(self, rng):
        x = t(np.abs(rng.standard_normal((3,))) + 0.5)
        assert gradcheck(lambda a: a.log(), [x])

    def test_clip_gradient_masked(self):
        x = t([-2.0, 0.5, 2.0])
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestBackwardSemantics:
    def test_backward_requires_scalar_or_grad(self):
        x = t([1.0, 2.0])
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_constant_raises(self):
        x = tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = t([1.0])
        (x * 2).backward(np.ones(1))
        (x * 2).backward(np.ones(1))
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        x = t([1.0])
        y = x * 2
        z = y + y
        z.backward(np.ones(1))
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_no_grad_blocks_graph(self):
        x = t([1.0])
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_detach(self):
        x = t([1.0])
        assert not x.detach().requires_grad

    def test_comparison_returns_ndarray(self):
        assert isinstance(t([1.0]) > 0, np.ndarray)


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_prepended_axes(self):
        assert unbroadcast(np.ones((4, 2, 3)), (2, 3)).shape == (2, 3)

    def test_sums_size_one_axes(self):
        out = unbroadcast(np.ones((2, 3)), (2, 1))
        np.testing.assert_array_equal(out, [[3.0], [3.0]])

    def test_default_dtype_setter_validates(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)
        set_default_dtype(np.float64)
