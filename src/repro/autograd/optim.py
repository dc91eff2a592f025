"""Gradient-based optimizers (SGD with momentum, Adam) and gradient clipping."""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.perf.cache import bump_params_version


class Optimizer:
    """Base class: holds parameters and clears their gradients."""

    def __init__(self, params: Iterable[Tensor]):
        self.params: List[Tensor] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def state_dict(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                self._velocity[i] = self.momentum * self._velocity[i] + grad
                grad = self._velocity[i]
            # Rebind out-of-place: bitwise-identical to `-=` (same ufunc,
            # fresh output buffer) but leaves graph-captured payloads intact,
            # so the write-sanitizer can freeze them (R002).
            p.data = p.data - self.lr * grad
        bump_params_version()

    def state_dict(self) -> dict:
        """Mutable state only; parameter identity comes from construction order."""
        return {
            "kind": "sgd",
            "lr": self.lr,
            "m": [np.zeros_like(p.data) if v is None else v.copy()
                  for v, p in zip(self._velocity, self.params)],
            "v": [],
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "sgd" or len(state["m"]) != len(self.params):
            raise ValueError("optimizer state does not match this SGD instance")
        self.lr = float(state["lr"])
        self._velocity = [m.copy() for m in state["m"]]


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimizer used in the paper (Section 6.1).

    One fused update per step, bitwise equal to the textbook per-parameter
    loop (``m = β1·m + (1-β1)·g``, ``v = β2·v + (1-β2)·g²``,
    ``p -= lr·m̂ / (√v̂ + ε)``, every op elementwise in the parameter's dtype):

    * **Dense parameters** — 1-D ones, and ≥ 2-D ones whose every row has
      had a nonzero gradient — share one flat ``m``/``v`` buffer per dtype.
      A step concatenates their gradients once, runs the update as a few
      in-place vectorised ops over the flat buffers, and rebinds each
      ``p.data`` out of place from its slice.  The per-parameter moments
      are views into the flat buffers.
    * **Partly touched ≥ 2-D parameters** (an embedding table: a batch only
      reaches the rows of the tokens it holds) update only the rows that
      have ever had a nonzero (or -0.0) gradient entry.  A row mask per
      parameter records them and only grows.  The other rows are exact no-ops: with zero
      gradient, ``m`` and ``v`` both +0, the update computes ``m = v = +0``
      and ``p - lr·0/ε = p``.  Weight decay gives every row a gradient, so
      with ``weight_decay > 0`` every parameter is dense.

    A parameter whose ``grad`` is ``None`` is skipped for the step, moments
    included, as in the per-parameter loop.  Gradients are taken in the
    parameter's dtype (``Tensor._accumulate`` stores them so).
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        #: Per parameter: row mask of a partly touched ≥ 2-D parameter, or
        #: None once the parameter is dense.  The whole list is None until
        #: the next step derives it from the moments.
        self._touched: Optional[List[Optional[np.ndarray]]] = None
        #: Per parameter: cached ``flatnonzero`` of its row mask.
        self._rows: List[Optional[np.ndarray]] = []
        #: dtype -> (parameter indices, flat m, flat v, offsets).
        self._layouts: dict = {}

    def _derive_state(self) -> None:
        """Rebuild what ``m`` and ``v`` determine: the row masks and the
        flat-buffer layouts (laid out again by the step that calls this).

        A row is touched when any bit of its ``m`` or ``v`` is set, so a
        resumed run updates exactly the rows whose update is not a no-op.
        Deriving at the first step, not on load, keeps a resume that takes
        no further step from paying for it.
        """
        self._touched, self._rows = [], []
        for p, m, v in zip(self.params, self._m, self._v):
            mask = None
            if p.data.ndim >= 2 and p.data.size and not self.weight_decay:
                mask = _nonzero_rows(m) | _nonzero_rows(v)
                if mask.all():
                    mask = None
            self._touched.append(mask)
            self._rows.append(None if mask is None else np.flatnonzero(mask))
        self._layouts = {}

    def step(self) -> None:
        if self._touched is None:
            self._derive_state()
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        dense: dict = {}  # dtype -> [(parameter index, gradient)]
        for i, p in enumerate(self.params):
            grad = p.grad
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            mask = self._touched[i]
            if mask is not None:
                hit = _nonzero_rows(grad)
                if not (hit <= mask).all():
                    mask |= hit
                    if mask.all():
                        self._touched[i] = self._rows[i] = None
                    else:
                        self._rows[i] = np.flatnonzero(mask)
                if self._rows[i] is not None:
                    self._step_rows(i, p, grad, bias1, bias2)
                    continue
            dense.setdefault(p.data.dtype, []).append((i, grad))
        for dtype, entries in dense.items():
            self._step_dense(dtype, entries, bias1, bias2)
        bump_params_version()

    def _layout(self, dtype, members: List[int]):
        """The flat ``m``/``v`` buffers over ``members``; laid out again
        (one copy of their moments) whenever the member set changes."""
        layout = self._layouts.get(dtype)
        if layout is None or layout[0] != members:
            sizes = [self._m[i].size for i in members]
            offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
            m = np.concatenate([self._m[i].ravel() for i in members])
            v = np.concatenate([self._v[i].ravel() for i in members])
            for i, lo, hi in zip(members, offsets, offsets[1:]):
                shape = self.params[i].data.shape
                self._m[i] = m[lo:hi].reshape(shape)
                self._v[i] = v[lo:hi].reshape(shape)
            layout = self._layouts[dtype] = (members, m, v, offsets)
        return layout

    def _step_dense(self, dtype, entries: List[tuple],
                    bias1: float, bias2: float) -> None:
        members = [i for i, _ in entries]
        _, m, v, offsets = self._layout(dtype, members)
        g = np.concatenate([grad.ravel() for _, grad in entries]).astype(
            dtype, copy=False)
        step = g * (1 - self.beta1)
        m *= self.beta1
        m += step
        np.square(g, out=g)
        g *= 1 - self.beta2
        v *= self.beta2
        v += g
        np.divide(m, bias1, out=step)
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        step *= self.lr
        step /= g
        for i, lo, hi in zip(members, offsets, offsets[1:]):
            p = self.params[i]
            # Rebind out of place: leaves graph-captured payloads intact, so
            # the write-sanitizer can freeze them (R002).
            p.data = p.data - step[lo:hi].reshape(p.data.shape)

    def _step_rows(self, i: int, p: Tensor, grad: np.ndarray,
                   bias1: float, bias2: float) -> None:
        rows = self._rows[i]
        g = grad[rows]
        m = self.beta1 * self._m[i][rows] + (1 - self.beta1) * g
        v = self.beta2 * self._v[i][rows] + (1 - self.beta2) * g**2
        self._m[i][rows] = m
        self._v[i][rows] = v
        data = p.data.copy()
        data[rows] = data[rows] - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        p.data = data

    def state_dict(self) -> dict:
        """Mutable state only (moments, step count, current learning rate).

        The learning rate is included because NaN-rollback recovery halves
        it mid-run; a resumed run must continue with the halved rate.  The
        flat buffers and row masks are derived state and are rebuilt on
        load.
        """
        return {
            "kind": "adam",
            "lr": self.lr,
            "step": self._step,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        if (state.get("kind") != "adam" or len(state["m"]) != len(self.params)
                or len(state["v"]) != len(self.params)):
            raise ValueError("optimizer state does not match this Adam instance")
        self.lr = float(state["lr"])
        self._step = int(state["step"])
        self._m = [m.copy() for m in state["m"]]
        self._v = [v.copy() for v in state["v"]]
        self._touched = None


def _nonzero_rows(array: np.ndarray) -> np.ndarray:
    """Rows (along axis 0) holding any set bit: nonzero values, NaN and -0.0
    count, +0 does not.

    Per-row counts of set elements come from one matrix-vector product, a
    third of the time of an ``any`` over short rows (8011 x 24: 0.13 vs
    0.40 ms).
    """
    flat = array.reshape(len(array), -1)
    nonzero = flat.view(f"u{flat.itemsize}") != 0
    return nonzero.astype(np.float32) @ np.ones(flat.shape[1], np.float32) > 0


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Clip gradients in-place to a global L2 norm; returns the pre-clip norm."""
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total
