"""Differentiable functional operations built on :class:`~repro.autograd.Tensor`.

These mirror the subset of ``torch.nn.functional`` the paper's models need:
activations, (log-)softmax, dropout, layer norm, embedding lookup, masking
helpers, and classification losses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, unbroadcast


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (x.data > 0))

    return Tensor._make(data, (x,), backward, "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """LeakyReLU with the 0.2 slope used by GAT attention scoring."""
    data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.where(x.data > 0, 1.0, negative_slope).astype(x.data.dtype))

    return Tensor._make(data, (x,), backward, "leaky_relu")


def sigmoid(x: Tensor) -> Tensor:
    # Numerically stable piecewise form (avoids overflow in exp).
    data = np.where(
        x.data >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x.data))),
        np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))),
    )

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * data * (1.0 - data))

    return Tensor._make(data, (x,), backward, "sigmoid")


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT)."""
    c = np.sqrt(2.0 / np.pi).astype(x.data.dtype)
    xd = x.data
    # x**3 spelled as x*x*x: numpy has no fast path for float ** 3 and falls
    # back to libm pow, which dominated the FFN in profiles.
    x2 = xd * xd
    inner = c * (xd + 0.044715 * (x2 * xd))
    t = np.tanh(inner)
    data = 0.5 * xd * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        dinner = c * (1.0 + (3 * 0.044715) * x2)
        dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        x._accumulate(grad * dx)

    return Tensor._make(data, (x,), backward, "gelu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * data).sum(axis=axis, keepdims=True)
        x._accumulate(data * (grad - dot))

    return Tensor._make(data, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_sum
    soft = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(data, (x,), backward, "log_softmax")


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: identity at evaluation time."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, (x,), backward, "dropout")


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` — the classic embedding lookup.

    ``indices`` is an integer array of any shape; the result has shape
    ``indices.shape + (embedding_dim,)``.
    """
    indices = np.asarray(indices)
    data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.data.shape[-1]))
        weight._accumulate(full)

    return Tensor._make(data, (weight,), backward, "embedding")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis."""
    # The centred values are computed once and squared for the variance:
    # bitwise what ``x.var`` computes, since numpy's var subtracts the same
    # mean and averages the squares the same way.
    centred = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    x_hat = centred * inv
    data = gamma.data * x_hat + beta.data

    def backward(grad: np.ndarray) -> None:
        gamma._accumulate(
            unbroadcast(grad * x_hat, gamma.shape)
        )
        beta._accumulate(unbroadcast(grad, beta.shape))
        dx_hat = grad * gamma.data
        dx = (
            dx_hat
            - dx_hat.mean(axis=-1, keepdims=True)
            - x_hat * (dx_hat * x_hat).mean(axis=-1, keepdims=True)
        ) * inv
        x._accumulate(dx)

    return Tensor._make(data, (x, gamma, beta), backward, "layer_norm")


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set entries where ``mask`` is True to ``value`` (no gradient there)."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, np.asarray(value, dtype=x.data.dtype), x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(np.where(mask, 0.0, grad))

    return Tensor._make(data, (x,), backward, "masked_fill")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    condition = np.asarray(condition, dtype=bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(np.where(condition, grad, 0.0), a.shape))
        b._accumulate(unbroadcast(np.where(condition, 0.0, grad), b.shape))

    return Tensor._make(data, (a, b), backward, "where")


def cross_entropy(logits: Tensor, targets: np.ndarray, weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (n, classes) and integer targets.

    ``weight`` optionally re-weights classes (the DeepMatcher positive-weight
    trick for imbalanced data).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects (batch, classes) logits")
    n = logits.shape[0]
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(n), targets]
    if weight is None:
        return -picked.mean()
    w = Tensor(np.asarray(weight, dtype=logits.data.dtype)[targets])
    return -(picked * w).sum() / float(w.data.sum())


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable mean BCE on raw logits."""
    targets_arr = np.asarray(targets, dtype=logits.data.dtype)
    x = logits.data
    loss_data = np.maximum(x, 0) - x * targets_arr + np.log1p(np.exp(-np.abs(x)))
    n = loss_data.size

    def backward(grad: np.ndarray) -> None:
        p = 1.0 / (1.0 + np.exp(-x))
        logits._accumulate(grad * (p - targets_arr))

    out = Tensor._make(loss_data, (logits,), backward, "bce_logits")
    return out.mean() if n > 1 else out.reshape(())


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=pred.data.dtype))
    return (diff * diff).mean()
