"""Shared training loop for the neural matchers.

All neural models (DeepMatcher, Ditto, HierGAT, …) train the same way
(Section 6.1): Adam, fixed epochs, per-epoch validation to keep the best
checkpoint and avoid over-fitting.  This module factors that loop out.

The loop is crash-safe.  With a ``checkpoint_dir``, every epoch boundary
writes an atomic :class:`repro.reliability.TrainState` (weights, optimizer
moments, RNG streams, best-epoch bookkeeping), and ``resume=True`` restarts
a killed run from the last boundary *bitwise-identically* — the resumed
trajectory is indistinguishable from an uninterrupted one.  Non-finite
losses never reach the optimizer: the epoch is rolled back to its starting
state, the learning rate is halved, and the epoch is retried (graceful
degradation instead of a poisoned model).  Fault-injection sites
(``trainer.loss``, ``trainer.step``) let the reliability tests trigger both
paths deterministically.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.autograd import Tensor, functional as F, no_grad
from repro.autograd.optim import Adam, clip_grad_norm
from repro.config import Scale, get_scale
from repro.core.metrics import precision_recall_f1
from repro.data.schema import EntityPair
from repro.nn import Module
from repro.perf.cache import params_version
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import fault_point
from repro.reliability.retry import retry_with_backoff
from repro.reliability.state import (
    TrainState,
    collect_module_rngs,
    load_train_state,
    restore_module_rngs,
    save_train_state,
)


@dataclasses.dataclass
class TrainConfig:
    """Optimisation hyper-parameters (defaults follow the active Scale)."""

    epochs: int
    batch_size: int
    learning_rate: float
    grad_clip: float = 5.0
    positive_weight: float = 1.0
    seed: int = 0
    #: How often one epoch may be rolled back and retried (with a halved
    #: learning rate) after a non-finite loss before the run fails.
    max_nan_retries: int = 3

    @classmethod
    def from_scale(cls, scale: Optional[Scale] = None, **overrides) -> "TrainConfig":
        scale = scale or get_scale()
        values = dict(
            epochs=scale.epochs,
            batch_size=scale.batch_size,
            learning_rate=scale.learning_rate,
            seed=scale.seed,
        )
        values.update(overrides)
        return cls(**values)


@dataclasses.dataclass
class TrainResult:
    """Loss curve and per-epoch validation F1 of one training run."""

    losses: List[float]
    valid_f1: List[float]
    best_epoch: int
    best_f1: float
    #: Validation scores at the best epoch.  The restored weights are the
    #: best epoch's weights, so these equal a post-restore re-scoring of the
    #: validation set bit for bit — callers can reuse them (e.g. for
    #: threshold selection) instead of running inference again.
    best_valid_scores: Optional[np.ndarray] = None
    #: Epoch index training restarted from (None for uninterrupted runs).
    resumed_from: Optional[int] = None


# A forward function maps a list of pairs to (n, 2) match logits.
ForwardFn = Callable[[Sequence[EntityPair]], Tensor]


class _NonFiniteLoss(Exception):
    """Internal signal: a NaN/Inf loss was produced (or injected) mid-epoch."""


def _snapshot(model: Module, optimizer, rng: np.random.Generator):
    """Copy of everything an epoch mutates, for NaN rollback."""
    return (model.state_dict(), optimizer.state_dict(),
            rng.bit_generator.state, collect_module_rngs(model))


def _restore(model: Module, optimizer, rng: np.random.Generator, snap) -> None:
    model_state, opt_state, rng_state, module_rngs = snap
    model.load_state_dict(model_state)
    optimizer.load_state_dict(opt_state)
    rng.bit_generator.state = rng_state
    restore_module_rngs(model, module_rngs)


def train_pair_classifier(
    model: Module,
    forward: ForwardFn,
    train_pairs: Sequence[EntityPair],
    valid_pairs: Sequence[EntityPair],
    config: TrainConfig,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> TrainResult:
    """Train ``model`` so that ``forward(pairs)`` separates match/non-match.

    Keeps the best validation-F1 parameters (restored before returning), as
    the paper does ("each epoch is verified by the validation set to avoid
    over-fitting").

    With ``checkpoint_dir``, each completed epoch is persisted atomically;
    ``resume=True`` continues from the last persisted epoch boundary with
    bitwise-identical results.  A corrupt or missing state file degrades to
    a fresh start instead of failing.
    """
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    class_weight = None
    if config.positive_weight != 1.0:
        class_weight = np.array([1.0, config.positive_weight])

    losses: List[float] = []
    valid_f1: List[float] = []
    best_f1 = -1.0
    best_epoch = -1
    best_state: Optional[Dict[str, np.ndarray]] = None
    best_scores: Optional[np.ndarray] = None
    start_epoch = 0
    resumed_from: Optional[int] = None

    if resume and checkpoint_dir is not None:
        state = retry_with_backoff(lambda: load_train_state(checkpoint_dir))
        if state is not None:
            model.load_state_dict(state.model_state)
            optimizer.load_state_dict(state.optimizer_state)
            rng.bit_generator.state = state.trainer_rng
            restore_module_rngs(model, state.module_rngs)
            losses = list(state.losses)
            valid_f1 = list(state.valid_f1)
            best_f1 = state.best_f1
            best_epoch = state.best_epoch
            best_state = state.best_state
            best_scores = state.best_scores
            start_epoch = state.epoch + 1
            resumed_from = start_epoch
            COUNTERS.increment("resumes")

    # Label array built once; per-batch labels are index views of it.
    all_labels = np.array([p.label for p in train_pairs])

    def run_epoch(epoch: int) -> List[float]:
        """One optimisation pass; raises _NonFiniteLoss before any bad step."""
        model.train()
        # The epoch's batch order is a pure function of the RNG state (no
        # in-place shuffle of shared state), so restoring the RNG stream —
        # for a NaN rollback or a crash resume — replays it bitwise.
        indices = rng.permutation(len(train_pairs))
        epoch_losses: List[float] = []
        for step, start in enumerate(range(0, len(indices), config.batch_size)):
            batch_indices = indices[start:start + config.batch_size]
            batch = [train_pairs[int(i)] for i in batch_indices]
            labels = all_labels[batch_indices]
            logits = forward(batch)
            loss = F.cross_entropy(logits, labels, weight=class_weight)
            loss_value = loss.item()
            if fault_point("trainer.loss", epoch=epoch, step=step) == "nan":
                loss_value = float("nan")
            if not np.isfinite(loss_value):
                # Detected *before* optimizer.step(): the weights are still
                # the last good ones, so rollback only rewinds this epoch.
                raise _NonFiniteLoss(f"non-finite loss at epoch {epoch} step {step}")
            fault_point("trainer.step", epoch=epoch, step=step)  # may raise kill
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer.params, config.grad_clip)
            optimizer.step()
            epoch_losses.append(loss_value)
        return epoch_losses

    for epoch in range(start_epoch, config.epochs):
        epoch_start = _snapshot(model, optimizer, rng)
        for attempt in range(config.max_nan_retries + 1):
            try:
                epoch_losses = run_epoch(epoch)
                break
            except _NonFiniteLoss:
                if attempt == config.max_nan_retries:
                    raise RuntimeError(
                        f"loss diverged: epoch {epoch} still non-finite after "
                        f"{config.max_nan_retries} LR-halving rollbacks")
                # Roll back to the epoch-start state (the last good weights)
                # and retry the epoch with a halved learning rate.
                _restore(model, optimizer, rng, epoch_start)
                optimizer.lr *= 0.5
                COUNTERS.increment("nan_rollbacks")
                COUNTERS.increment("lr_halvings")
        losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)

        scores = (predict_forward(model, forward, valid_pairs, config.batch_size)
                  if valid_pairs else None)
        if scores is None:
            f1 = 0.0
        else:
            labels = [p.label for p in valid_pairs]
            f1 = precision_recall_f1((scores >= 0.5).astype(int), labels).f1
        valid_f1.append(f1)
        if f1 >= best_f1:
            best_f1 = f1
            best_epoch = epoch
            best_state = model.state_dict()
            best_scores = scores

        if checkpoint_dir is not None:
            state = TrainState(
                epoch=epoch,
                model_state=model.state_dict(),
                optimizer_state=optimizer.state_dict(),
                trainer_rng=rng.bit_generator.state,
                module_rngs=collect_module_rngs(model),
                losses=list(losses),
                valid_f1=list(valid_f1),
                best_epoch=best_epoch,
                best_f1=best_f1,
                best_state=best_state,
                best_scores=best_scores,
                params_version=params_version(),
                seed=config.seed,
            )
            retry_with_backoff(lambda: save_train_state(checkpoint_dir, state))

    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    return TrainResult(losses=losses, valid_f1=valid_f1, best_epoch=best_epoch,
                       best_f1=best_f1, best_valid_scores=best_scores,
                       resumed_from=resumed_from)


def predict_forward(model: Module, forward: ForwardFn,
                    pairs: Sequence[EntityPair], batch_size: int) -> np.ndarray:
    """Batched inference: match probabilities for ``pairs``."""
    model.eval()
    scores: List[float] = []
    with no_grad():
        for start in range(0, len(pairs), batch_size):
            batch = list(pairs[start:start + batch_size])
            logits = forward(batch)
            probs = F.softmax(logits, axis=-1).data[:, 1]
            scores.extend(float(p) for p in probs)
    return np.asarray(scores)


def evaluate_forward(model: Module, forward: ForwardFn,
                     pairs: Sequence[EntityPair], batch_size: int) -> float:
    """Validation F1 in [0, 1] at the 0.5 decision threshold."""
    if not pairs:
        return 0.0
    scores = predict_forward(model, forward, pairs, batch_size)
    labels = [p.label for p in pairs]
    return precision_recall_f1((scores >= 0.5).astype(int), labels).f1
