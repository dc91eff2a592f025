"""Optimizer tests: convergence, state handling, clipping, and the fused
Adam's bitwise equality with the per-parameter loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, functional as F
from repro.autograd.optim import SGD, Adam, Optimizer, clip_grad_norm


def quadratic_param():
    return Tensor(np.array([5.0, -3.0], dtype=np.float64), requires_grad=True)


def quadratic_loss(p):
    return (p * p).sum()


class TestSGD:
    def test_sgd_descends_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_momentum_accelerates(self):
        def run(momentum):
            p = quadratic_param()
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                quadratic_loss(p).backward()
                opt.step()
            return np.abs(p.data).max()

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks_params(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()  # zero task gradient
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SGD([p], lr=0.1).step()  # no backward ran; must not crash
        np.testing.assert_array_equal(p.data, [1.0])

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_adam_descends_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_adam_solves_linear_regression(self, rng):
        X = rng.standard_normal((64, 3))
        w_true = np.array([1.0, -2.0, 0.5])
        y = X @ w_true
        w = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([w], lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            pred = Tensor(X) @ w
            F.mse_loss(pred, y).backward()
            opt.step()
        np.testing.assert_allclose(w.data, w_true, atol=0.01)

    def test_bias_correction_first_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        (p * 2.0).sum().backward()
        opt.step()
        # First Adam step should be ≈ lr in the gradient direction.
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)


class TestClipping:
    def test_clip_reduces_norm(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([10.0])
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(p.grad, [1.0])

    def test_clip_noop_below_threshold(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.5])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_clip_global_norm_across_params(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        clip_grad_norm([a, b], max_norm=1.0)  # global norm was 5
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0)


# ----------------------------------------------------------------------
# The fused Adam against the per-parameter loop
# ----------------------------------------------------------------------
class ReferenceAdam(Optimizer):
    """The textbook per-parameter Adam loop the fused :class:`Adam` must
    match bit for bit: every parameter, every element, every step."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self):
        return {"kind": "adam", "lr": self.lr, "step": self._step,
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state):
        self.lr = float(state["lr"])
        self._step = int(state["step"])
        self._m = [m.copy() for m in state["m"]]
        self._v = [v.copy() for v in state["v"]]


#: (shape, dtype, gradient pattern) of the parameters the property test
#: trains.  A float pattern gives each row a gradient with that chance (some
#: of the other rows get -0.0); ``some`` has no gradient at all on some
#: steps; ``dense`` always has a full gradient.
_PARAM_SPECS = [
    ((60, 3), np.float32, 0.05),     # an embedding table
    ((4, 2, 3), np.float64, 0.3),    # >= 3-D, row-sparse
    ((3, 2), np.float32, 0.7),       # soon fully touched: turns dense
    ((5,), np.float32, "dense"),
    ((3, 4), np.float64, "dense"),
    ((2, 3), np.float32, "some"),
    ((4,), np.float64, "some"),
]


def _bits(array):
    return array.dtype, array.shape, np.ascontiguousarray(array).tobytes()


def _assert_same(params_a, opt_a, params_b, opt_b):
    for a, b in zip(params_a, params_b):
        assert _bits(a.data) == _bits(b.data)
    state_a, state_b = opt_a.state_dict(), opt_b.state_dict()
    assert state_a["step"] == state_b["step"]
    for key in ("m", "v"):
        assert len(state_a[key]) == len(state_b[key])
        for x, y in zip(state_a[key], state_b[key]):
            assert _bits(x) == _bits(y)


def _gradients(rng):
    grads = []
    for shape, dtype, pattern in _PARAM_SPECS:
        if pattern == "some" and rng.random() < 0.4:
            grads.append(None)
            continue
        g = rng.standard_normal(shape).astype(dtype)
        if isinstance(pattern, float):
            hit = rng.random(shape[0]) < pattern
            negative_zero = ~hit & (rng.random(shape[0]) < 0.02)
            g[~hit] = 0.0
            g[negative_zero] = -0.0
        grads.append(g)
    return grads


def _run_pair(seed, steps, weight_decay, reload_at, reload_mode):
    """Train the same parameters with Adam and ReferenceAdam on the same
    gradients, asserting bitwise-equal params, m and v after every step.

    At step ``reload_at`` the Adam side goes through ``state_dict`` ->
    ``load_state_dict``: into a fresh instance (``fresh``, a kill and
    resume), or two steps later back into the same instance with the
    parameters restored on both sides (``rollback``, a NaN rollback).
    """
    rng = np.random.default_rng(seed)
    init = [(rng.standard_normal(shape) * 0.5).astype(dtype)
            for shape, dtype, _ in _PARAM_SPECS]
    params_a = [Tensor(x.copy(), requires_grad=True) for x in init]
    params_b = [Tensor(x.copy(), requires_grad=True) for x in init]
    kwargs = dict(lr=0.05, weight_decay=weight_decay)
    opt_a, opt_b = Adam(params_a, **kwargs), ReferenceAdam(params_b, **kwargs)
    snapshot, rolled_back = None, False
    step = 0
    while step < steps:
        if step == reload_at and reload_mode == "fresh":
            state = opt_a.state_dict()
            opt_a = Adam(params_a, **kwargs)
            opt_a.load_state_dict(state)
        if step == reload_at and reload_mode == "rollback" and not rolled_back:
            snapshot = [([p.data.copy() for p in params], opt.state_dict())
                        for params, opt in ((params_a, opt_a), (params_b, opt_b))]
        if snapshot is not None and step == reload_at + 2:
            for (datas, state), params, opt in zip(
                    snapshot, (params_a, params_b), (opt_a, opt_b)):
                for p, x in zip(params, datas):
                    p.data = x.copy()
                opt.load_state_dict(state)
            step, snapshot, rolled_back = reload_at, None, True
        grads = _gradients(rng)
        for pa, pb, g in zip(params_a, params_b, grads):
            pa.grad = None if g is None else g.copy()
            pb.grad = None if g is None else g.copy()
        opt_a.step()
        opt_b.step()
        _assert_same(params_a, opt_a, params_b, opt_b)
        step += 1
    return opt_a


class TestFusedAdamBitwise:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 14),
           weight_decay=st.sampled_from([0.0, 0.01]),
           reload_at=st.integers(0, 12),
           reload_mode=st.sampled_from(["none", "fresh", "rollback"]))
    def test_matches_per_parameter_loop(self, seed, steps, weight_decay,
                                        reload_at, reload_mode):
        _run_pair(seed, steps, weight_decay, reload_at, reload_mode)

    @pytest.mark.parametrize("reload_mode", ["fresh", "rollback"])
    def test_seeded_run_takes_both_paths(self, reload_mode):
        """A seeded run of the property test, with a reload at step 4: some
        table stays partly touched (row path) and some >= 2-D parameter
        turns dense."""
        opt = _run_pair(3, 12, 0.0, 4, reload_mode)
        touched = [mask for mask in opt._touched if mask is not None]
        assert touched and not all(mask.all() for mask in touched)
        assert opt._touched[2] is None  # the (3, 2) table turned dense

    def test_weight_decay_makes_every_parameter_dense(self):
        p = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        opt = Adam([p], weight_decay=0.1)
        p.grad = np.zeros((4, 2), dtype=np.float32)
        opt.step()
        assert opt._touched == [None]
        assert not np.array_equal(p.data, np.ones((4, 2)))

    def test_untouched_rows_do_not_move(self):
        table = np.arange(12, dtype=np.float32).reshape(6, 2) - 6.0
        table[0, 0] = -0.0
        p = Tensor(table.copy(), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(3):
            grad = np.zeros_like(table)
            grad[2] = 1.0
            grad[4] = -0.0
            p.grad = grad
            opt.step()
        unchanged = [0, 1, 3, 4, 5]
        assert p.data[unchanged].tobytes() == table[unchanged].tobytes()
        assert not np.array_equal(p.data[2], table[2])

    def test_load_rebuilds_row_masks_from_moments(self):
        p = Tensor(np.zeros((5, 2), dtype=np.float32), requires_grad=True)
        opt = Adam([p])
        state = opt.state_dict()
        state["m"][0][1, 0] = -0.0   # a set sign bit counts as touched
        state["v"][0][3, 1] = 1e-30
        opt.load_state_dict(state)
        p.grad = np.zeros((5, 2), dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(opt._touched[0],
                                      [False, True, False, True, False])

    def test_hiergat_fit_on_beer_matches_reference(self, monkeypatch):
        """A CI-scale HierGAT fit on Beer, once with the production Adam
        and once with the per-parameter loop: identical weights, losses
        and validation F1."""
        from repro.config import Scale
        from repro.core import trainer
        from repro.core.hiergat import HierGAT
        from repro.data import load_dataset

        dataset = load_dataset("Beer", scale=Scale.ci())
        fused = HierGAT(scale=Scale.ci()).fit(dataset)
        monkeypatch.setattr(trainer, "Adam", ReferenceAdam)
        reference = HierGAT(scale=Scale.ci()).fit(dataset)
        assert fused.train_result.losses == reference.train_result.losses
        assert fused.train_result.valid_f1 == reference.train_result.valid_f1
        state_f = fused._network.state_dict()
        state_r = reference._network.state_dict()
        assert state_f.keys() == state_r.keys()
        for key in state_f:
            assert _bits(state_f[key]) == _bits(state_r[key]), key
