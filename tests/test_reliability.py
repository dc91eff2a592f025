"""Reliability suite: fault injection, retry/degrade, crash-safe resume.

Covers the contracts documented in ``docs/TESTING.md``:

* deterministic fault triggering (:class:`FaultPlan` invocation counters),
* capped exponential backoff for transient IO faults,
* corrupt checkpoint  -> discard + rebuild (``checkpoint_rebuilds``),
* corrupt train state -> discard + fresh start (``train_state_discards``),
* NaN loss            -> rollback + LR halving (``nan_rollbacks``),
* poisoned cache      -> validate + uncached recompute (``cache_degraded``),
* mid-epoch kill      -> ``repro resume`` restarts *bitwise-identically*.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.core.trainer import TrainConfig, train_pair_classifier
from repro.data.schema import Entity, EntityPair
from repro.harness.tables import fmt, resilient_cell
from repro.lm.checkpoint import _read_checkpoint, _write_checkpoint
from repro.nn import Dropout, Linear, Module
from repro.perf.cache import LRUCache
from repro.pipeline import ERPipeline
from repro.text.vocab import SPECIAL_TOKENS, Vocabulary
from repro.reliability import (
    COUNTERS,
    CorruptDataFault,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    STATE_FILE,
    TrainState,
    TrainingKilled,
    TransientIOFault,
    fault_point,
    inject,
    load_train_state,
    retry_with_backoff,
    save_train_state,
)

#: "Fire whenever the match clause holds" — a wide invocation-index window.
ALWAYS = tuple(range(100_000))


@pytest.fixture(autouse=True)
def reset_counters():
    COUNTERS.reset()
    yield
    COUNTERS.reset()


# ======================================================================
# FaultPlan / fault_point mechanics
# ======================================================================
class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="x", kind="gamma-ray")

    def test_no_active_plan_is_noop(self):
        assert fault_point("anywhere", epoch=3) is None

    def test_fires_at_exact_invocation_index(self):
        plan = FaultPlan.single("site", "corrupt", at=(2,))
        with inject(plan):
            results = [fault_point("site") for _ in range(4)]
        assert results == [None, None, "corrupt", None]
        assert plan.invocations["site"] == 4
        assert plan.fired("site", "corrupt") == 1

    def test_large_schedule_fires_at_exact_indices_and_pickles(self):
        """A soak-sized ``at`` schedule fires exactly on its indices, and the
        spec still crosses a process boundary (replicas receive pickled
        specs)."""
        spec = FaultSpec(site="site", kind="stall", at=range(0, 1_000_000, 7))
        plan = FaultPlan((spec,))
        with inject(plan):
            fired = [i for i in range(50) if fault_point("site") == "stall"]
        assert fired == list(range(0, 50, 7))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_match_restricts_to_context(self):
        plan = FaultPlan.single("site", "nan", at=ALWAYS, epoch=1)
        with inject(plan):
            assert fault_point("site", epoch=0) is None
            assert fault_point("site", epoch=1) == "nan"
            assert fault_point("site", epoch=2) is None

    def test_deterministic_across_identical_runs(self):
        def run():
            plan = FaultPlan.single("s", "corrupt", at=(1, 3))
            with inject(plan):
                return [fault_point("s", step=i) for i in range(5)]

        assert run() == run() == [None, "corrupt", None, "corrupt", None]

    def test_transient_raises_oserror_subclass(self):
        with inject(FaultPlan.single("io", "transient")):
            with pytest.raises(OSError):
                fault_point("io")

    def test_kill_raises_training_killed(self):
        with inject(FaultPlan.single("step", "kill")):
            with pytest.raises(TrainingKilled):
                fault_point("step")

    def test_inject_restores_previous_plan(self):
        outer = FaultPlan.single("a", "corrupt")
        with inject(outer):
            with inject(FaultPlan.single("b", "corrupt")):
                pass
            assert fault_point("a") == "corrupt"
        assert fault_point("a") is None


# ======================================================================
# Retry with capped exponential backoff
# ======================================================================
class TestRetry:
    def test_delay_is_capped_exponential(self):
        policy = RetryPolicy(retries=5, base_delay=0.01, backoff=2.0, max_delay=0.05)
        assert [policy.delay(i) for i in range(5)] == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_succeeds_after_transient_failures(self):
        calls, delays = {"n": 0}, []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientIOFault("hiccup")
            return "ok"

        out = retry_with_backoff(flaky, RetryPolicy(retries=3, base_delay=0.01),
                                 sleep=delays.append)
        assert out == "ok"
        assert calls["n"] == 3
        assert delays == [0.01, 0.02]
        assert COUNTERS.transient_retries == 2

    def test_exhaustion_reraises_original(self):
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise TransientIOFault("persistent")

        with pytest.raises(TransientIOFault, match="persistent"):
            retry_with_backoff(always_fails, RetryPolicy(retries=2),
                               sleep=lambda _: None)
        assert calls["n"] == 3  # first try + 2 retries
        assert COUNTERS.transient_retries == 2

    def test_non_transient_propagates_immediately(self):
        calls = {"n": 0}

        def bad():
            calls["n"] += 1
            raise ValueError("deterministic bug")

        with pytest.raises(ValueError):
            retry_with_backoff(bad, sleep=lambda _: None)
        assert calls["n"] == 1
        assert COUNTERS.transient_retries == 0

    def test_kill_is_never_retried(self):
        calls = {"n": 0}

        def killed():
            calls["n"] += 1
            raise TrainingKilled("oom")

        with pytest.raises(TrainingKilled):
            retry_with_backoff(killed, sleep=lambda _: None)
        assert calls["n"] == 1


# ======================================================================
# Poisoned cache entries degrade to the uncached path
# ======================================================================
class TestPoisonedCache:
    def test_injected_poison_recomputes(self):
        cache = LRUCache(4, name="toy")
        assert cache.get_or_compute("k", lambda: 123) == 123
        with inject(FaultPlan.single("cache.entry", "poison", cache="toy")):
            assert cache.get_or_compute("k", lambda: 456) == 456
        assert cache.stats.degraded == 1
        assert COUNTERS.cache_degraded == 1
        # The recomputed value replaced the poisoned entry.
        assert cache.get_or_compute("k", lambda: 789) == 456

    def test_validate_catches_real_corruption(self):
        cache = LRUCache(4, name="toy")
        cache.put("k", "garbage")
        value = cache.get_or_compute("k", lambda: 7,
                                     validate=lambda v: isinstance(v, int))
        assert value == 7
        assert cache.stats.degraded == 1
        assert COUNTERS.cache_degraded == 1


# ======================================================================
# LM checkpoint corruption -> discard + rebuild
# ======================================================================
def _tiny_checkpoint_states():
    vocab = Vocabulary.from_tokens(SPECIAL_TOKENS + ["alpha", "beta"],
                                   num_oov_buckets=3)
    rows = len(vocab)
    lm_state = {"embedding.weight": np.arange(rows * 4, dtype=np.float64).reshape(rows, 4)}
    head_state = {"w": np.ones((4, 2)), "b": np.zeros(2)}
    return lm_state, head_state, vocab


def _assert_same_vocab(got: Vocabulary, want: Vocabulary) -> None:
    assert got._id_to_token == want._id_to_token
    assert got.num_oov_buckets == want.num_oov_buckets


class TestCorruptLMCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.npz"
        lm_state, head_state, vocab = _tiny_checkpoint_states()
        _write_checkpoint(path, lm_state, head_state, vocab)
        loaded_lm, loaded_head, loaded_vocab = _read_checkpoint(path)
        for k in lm_state:
            assert np.array_equal(loaded_lm[k], lm_state[k])
        for k in head_state:
            assert np.array_equal(loaded_head[k], head_state[k])
        _assert_same_vocab(loaded_vocab, vocab)
        assert not list(tmp_path.glob("*.tmp.*"))  # atomic write left no debris

    def test_injected_parse_corruption_discards_and_counts(self, tmp_path):
        path = tmp_path / "ck.npz"
        _write_checkpoint(path, *_tiny_checkpoint_states())
        with inject(FaultPlan.single("lm.checkpoint.parse", "corrupt")):
            assert _read_checkpoint(path) is None
        assert not path.exists()  # bad file removed so later runs self-heal
        assert COUNTERS.checkpoint_rebuilds == 1

    def test_truncated_file_discards_and_counts(self, tmp_path):
        path = tmp_path / "ck.npz"
        _write_checkpoint(path, *_tiny_checkpoint_states())
        path.write_bytes(path.read_bytes()[:20])
        assert _read_checkpoint(path) is None
        assert not path.exists()
        assert COUNTERS.checkpoint_rebuilds == 1

    def test_post_rename_disk_corruption_survived(self, tmp_path):
        path = tmp_path / "ck.npz"
        with inject(FaultPlan.single("lm.checkpoint.corrupt", "corrupt")):
            _write_checkpoint(path, *_tiny_checkpoint_states())
        assert _read_checkpoint(path) is None  # reader detects, discards
        assert COUNTERS.checkpoint_rebuilds == 1

    def test_transient_read_absorbed_by_retry(self, tmp_path):
        path = tmp_path / "ck.npz"
        _write_checkpoint(path, *_tiny_checkpoint_states())
        with inject(FaultPlan.single("lm.checkpoint.read", "transient")):
            states = retry_with_backoff(lambda: _read_checkpoint(path),
                                        sleep=lambda _: None)
        assert states is not None
        assert COUNTERS.transient_retries == 1

    def test_transient_write_absorbed_by_retry(self, tmp_path):
        """The write side of the same contract: a transient IO failure while
        persisting the checkpoint is retried, and the retried file is intact
        (no truncated/partial artifact from the failed attempt)."""
        path = tmp_path / "ck.npz"
        lm_state, head_state, vocab = _tiny_checkpoint_states()
        with inject(FaultPlan.single("lm.checkpoint.write", "transient")) as plan:
            retry_with_backoff(
                lambda: _write_checkpoint(path, lm_state, head_state, vocab),
                sleep=lambda _: None)
        assert plan.fired("lm.checkpoint.write", "transient") == 1
        assert COUNTERS.transient_retries == 1
        assert not list(tmp_path.glob("*.tmp.*"))  # no half-written debris
        loaded_lm, loaded_head, loaded_vocab = _read_checkpoint(path)
        for k in lm_state:
            assert np.array_equal(loaded_lm[k], lm_state[k])
        for k in head_state:
            assert np.array_equal(loaded_head[k], head_state[k])
        _assert_same_vocab(loaded_vocab, vocab)

    @pytest.mark.parametrize("damage", ["no_vocab", "vocab_size_mismatch",
                                        "parse_fault"])
    def test_load_checkpoint_rebuilds_a_bad_vocab_bitwise(
            self, tmp_path, monkeypatch, damage):
        """End to end through ``load_checkpoint``: the damaged file is
        discarded, counted, and rebuilt to the same weights and vocabulary."""
        from repro.lm import checkpoint as ck

        monkeypatch.setenv("REPRO_LM_CACHE", str(tmp_path))
        monkeypatch.setattr(ck, "_memory_cache", {})
        lm_a, head_a = ck.load_checkpoint("roberta", steps=1)
        (path,) = tmp_path.glob("*.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        if damage == "no_vocab":
            del payload["vocab:tokens"], payload["vocab:oov_buckets"]
        elif damage == "vocab_size_mismatch":  # one token short of the rows
            payload["vocab:tokens"] = payload["vocab:tokens"][:-1]
        with open(path, "wb") as fh:
            np.savez(fh, **payload)

        monkeypatch.setattr(ck, "_memory_cache", {})
        plan = FaultPlan.single("lm.checkpoint.parse", "corrupt") \
            if damage == "parse_fault" else FaultPlan(())
        with inject(plan):
            lm_b, head_b = ck.load_checkpoint("roberta", steps=1)
        assert COUNTERS.checkpoint_rebuilds == 1
        state_a, state_b = lm_a.state_dict(), lm_b.state_dict()
        assert state_a.keys() == state_b.keys()
        for k in state_a:
            assert np.array_equal(state_a[k], state_b[k])
        for k in head_a:
            assert np.array_equal(head_a[k], head_b[k])
        _assert_same_vocab(lm_b.vocab, lm_a.vocab)
        _assert_same_vocab(_read_checkpoint(path)[2], lm_a.vocab)  # healed

    def test_load_checkpoint_absorbs_a_transient_write(self, tmp_path, monkeypatch):
        """A transient fault while ``load_checkpoint`` persists a fresh
        pre-training is retried; the file it leaves ships the vocabulary."""
        from repro.lm import checkpoint as ck

        monkeypatch.setenv("REPRO_LM_CACHE", str(tmp_path))
        monkeypatch.setattr(ck, "_memory_cache", {})
        with inject(FaultPlan.single("lm.checkpoint.write", "transient")) as plan:
            lm, _ = ck.load_checkpoint("roberta", steps=1)
        assert plan.fired("lm.checkpoint.write", "transient") == 1
        assert COUNTERS.transient_retries == 1
        (path,) = tmp_path.glob("*.npz")
        loaded_lm, _, loaded_vocab = _read_checkpoint(path)
        _assert_same_vocab(loaded_vocab, lm.vocab)
        for k, v in lm.state_dict().items():
            assert np.array_equal(loaded_lm[k], v)

    @pytest.mark.slow
    def test_full_load_checkpoint_rebuilds_identically(self, tmp_path, monkeypatch):
        """End to end: a corrupted on-disk LM checkpoint is rebuilt bitwise."""
        from repro.lm import checkpoint as ck

        monkeypatch.setenv("REPRO_LM_CACHE", str(tmp_path))
        monkeypatch.setattr(ck, "_memory_cache", {})
        lm_a, _ = ck.load_checkpoint("roberta")  # pre-trains and writes
        cached = list(tmp_path.glob("*.npz"))
        assert len(cached) == 1
        cached[0].write_bytes(cached[0].read_bytes()[:64])  # disk corruption

        monkeypatch.setattr(ck, "_memory_cache", {})
        lm_b, _ = ck.load_checkpoint("roberta")  # detects, rebuilds
        assert COUNTERS.checkpoint_rebuilds == 1
        state_a, state_b = lm_a.state_dict(), lm_b.state_dict()
        assert state_a.keys() == state_b.keys()
        for k in state_a:  # pre-training is seeded: the rebuild is bitwise
            assert np.array_equal(state_a[k], state_b[k])
        _assert_same_vocab(lm_b.vocab, lm_a.vocab)
        _assert_same_vocab(_read_checkpoint(cached[0])[2], lm_a.vocab)


# ======================================================================
# Train-state checkpoints
# ======================================================================
def _fake_train_state(epoch: int = 1) -> TrainState:
    gen = np.random.default_rng(5)
    gen.random(3)  # advance so the state is not the seed default
    return TrainState(
        epoch=epoch,
        model_state={"w": np.arange(6, dtype=np.float64).reshape(2, 3),
                     "b": np.array([1.5, -2.5])},
        optimizer_state={"kind": "adam", "lr": 0.005, "step": 7,
                         "m": [np.full((2, 3), 0.1), np.array([0.2, 0.3])],
                         "v": [np.full((2, 3), 0.4), np.array([0.5, 0.6])]},
        trainer_rng=gen.bit_generator.state,
        module_rngs={"2": np.random.default_rng(9).bit_generator.state},
        losses=[0.9, 0.5],
        valid_f1=[0.4, 0.7],
        best_epoch=1,
        best_f1=0.7,
        best_state={"w": np.zeros((2, 3)), "b": np.ones(2)},
        best_scores=np.array([0.1, 0.9, 0.6]),
        params_version=42,
        seed=11,
    )


class TestTrainState:
    def test_roundtrip_is_bitwise(self, tmp_path):
        state = _fake_train_state()
        save_train_state(tmp_path, state)
        assert not list(tmp_path.glob("*.tmp.*"))
        loaded = load_train_state(tmp_path)
        assert loaded is not None
        assert loaded.epoch == state.epoch
        assert loaded.losses == state.losses
        assert loaded.valid_f1 == state.valid_f1
        assert loaded.best_epoch == state.best_epoch
        assert loaded.best_f1 == state.best_f1
        assert loaded.params_version == 42
        assert loaded.seed == 11
        for k in state.model_state:
            assert np.array_equal(loaded.model_state[k], state.model_state[k])
        for k in state.best_state:
            assert np.array_equal(loaded.best_state[k], state.best_state[k])
        assert np.array_equal(loaded.best_scores, state.best_scores)
        opt = loaded.optimizer_state
        assert opt["kind"] == "adam" and opt["step"] == 7 and opt["lr"] == 0.005
        for got, want in zip(opt["m"], state.optimizer_state["m"]):
            assert np.array_equal(got, want)
        for got, want in zip(opt["v"], state.optimizer_state["v"]):
            assert np.array_equal(got, want)
        # A generator restored from the serialized state continues the stream.
        expect = np.random.default_rng(5)
        expect.random(3)
        restored = np.random.default_rng(0)
        restored.bit_generator.state = loaded.trainer_rng
        assert restored.random(4).tolist() == expect.random(4).tolist()

    def test_missing_is_none_without_counter(self, tmp_path):
        assert load_train_state(tmp_path / "never-written") is None
        assert COUNTERS.train_state_discards == 0

    def test_truncated_state_discarded_and_counted(self, tmp_path):
        save_train_state(tmp_path, _fake_train_state())
        path = tmp_path / STATE_FILE
        path.write_bytes(path.read_bytes()[:32])
        assert load_train_state(tmp_path) is None
        assert not path.exists()
        assert COUNTERS.train_state_discards == 1

    def test_injected_post_rename_corruption_survived(self, tmp_path):
        with inject(FaultPlan.single("train.checkpoint.corrupt", "corrupt")):
            save_train_state(tmp_path, _fake_train_state())
        assert load_train_state(tmp_path) is None
        assert COUNTERS.train_state_discards == 1

    def test_transient_read_absorbed_by_retry(self, tmp_path):
        save_train_state(tmp_path, _fake_train_state())
        with inject(FaultPlan.single("train.checkpoint.read", "transient")):
            state = retry_with_backoff(lambda: load_train_state(tmp_path),
                                       sleep=lambda _: None)
        assert state is not None
        assert COUNTERS.transient_retries == 1


# ======================================================================
# Trainer: NaN rollback, kill + bitwise resume (toy model — fast)
# ======================================================================
def _toy_pairs(n: int = 24):
    pairs = []
    for i in range(n):
        label = int(i % 2 == 0)
        left = Entity.from_dict(f"a{i}", {"name": f"widget {i // 2} pro",
                                          "price": str(10 + i)})
        right_name = f"widget {i // 2} pro" if label else f"gadget {i} ultra"
        right = Entity.from_dict(f"b{i}", {"name": right_name,
                                           "price": str(10 + i if label else 90 + i)})
        pairs.append(EntityPair(left, right, label))
    return pairs


def _features(pairs) -> np.ndarray:
    feats = []
    for p in pairs:
        lt, rt = set(p.left.text().split()), set(p.right.text().split())
        union = len(lt | rt) or 1
        feats.append([len(lt & rt) / union, len(lt) / 8.0, len(rt) / 8.0, 1.0])
    return np.asarray(feats)


class _ToyNet(Module):
    """4 -> 8 -> 2 MLP with dropout, so module RNG streams matter."""

    def __init__(self, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng=rng)
        self.drop = Dropout(0.25, rng=np.random.default_rng(seed + 1))
        self.fc2 = Linear(8, 2, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.drop(F.relu(self.fc1(x))))


def _train_toy(checkpoint_dir=None, resume=False, epochs=3, lr=0.05):
    net = _ToyNet(seed=0)
    pairs = _toy_pairs()
    config = TrainConfig(epochs=epochs, batch_size=8, learning_rate=lr, seed=11)
    result = train_pair_classifier(
        net, lambda batch: net(Tensor(_features(batch))),
        pairs[:16], pairs[16:], config,
        checkpoint_dir=checkpoint_dir, resume=resume)
    return net, result


def _assert_same_weights(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for k in state_a:
        assert np.array_equal(state_a[k], state_b[k]), f"weight {k} diverged"


class TestNanRollback:
    def test_single_nan_rolls_back_and_halves_lr(self):
        plan = FaultPlan.single("trainer.loss", "nan", at=(1,))
        with inject(plan):
            _, result = _train_toy()
        assert plan.fired("trainer.loss", "nan") == 1
        assert len(result.losses) == 3  # run completed all epochs
        assert all(np.isfinite(result.losses))
        assert COUNTERS.nan_rollbacks == 1
        assert COUNTERS.lr_halvings == 1

    def test_rollback_at_step0_equals_clean_run_at_half_lr(self):
        """The rollback restores weights, optimizer AND every RNG stream:
        a NaN on the very first step must leave a trajectory identical to a
        clean run started with the halved learning rate."""
        with inject(FaultPlan.single("trainer.loss", "nan", at=(0,))):
            net_faulty, res_faulty = _train_toy(lr=0.05)
        net_clean, res_clean = _train_toy(lr=0.025)
        _assert_same_weights(net_faulty.state_dict(), net_clean.state_dict())
        assert res_faulty.losses == res_clean.losses
        assert res_faulty.valid_f1 == res_clean.valid_f1

    def test_persistent_nan_exhausts_retries(self):
        plan = FaultPlan.single("trainer.loss", "nan", at=ALWAYS, epoch=0)
        with inject(plan):
            with pytest.raises(RuntimeError, match="loss diverged"):
                _train_toy()
        assert COUNTERS.nan_rollbacks == 3  # == TrainConfig.max_nan_retries


class TestKillAndResume:
    def test_kill_then_resume_is_bitwise_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        net_a, res_a = _train_toy(checkpoint_dir=dir_a)

        with inject(FaultPlan.single("trainer.step", "kill", at=ALWAYS, epoch=1)):
            with pytest.raises(TrainingKilled):
                _train_toy(checkpoint_dir=dir_b)
        assert (dir_b / STATE_FILE).exists()  # epoch 0 boundary was persisted

        net_b, res_b = _train_toy(checkpoint_dir=dir_b, resume=True)
        assert res_b.resumed_from == 1
        assert COUNTERS.resumes == 1
        _assert_same_weights(net_a.state_dict(), net_b.state_dict())
        assert res_a.losses == res_b.losses
        assert res_a.valid_f1 == res_b.valid_f1
        assert res_a.best_epoch == res_b.best_epoch
        assert res_a.best_f1 == res_b.best_f1
        assert np.array_equal(res_a.best_valid_scores, res_b.best_valid_scores)

    def test_resume_with_corrupt_state_degrades_to_fresh_start(self, tmp_path):
        (tmp_path / STATE_FILE).write_bytes(b"not a real npz file")
        net, result = _train_toy(checkpoint_dir=tmp_path, resume=True)
        assert result.resumed_from is None  # degraded, did not crash
        assert len(result.losses) == 3
        assert COUNTERS.train_state_discards == 1
        assert COUNTERS.resumes == 0
        net_clean, _ = _train_toy()
        _assert_same_weights(net.state_dict(), net_clean.state_dict())

    def test_resume_without_checkpoint_trains_from_scratch(self, tmp_path):
        net, result = _train_toy(checkpoint_dir=tmp_path / "empty", resume=True)
        assert result.resumed_from is None
        net_clean, _ = _train_toy()
        _assert_same_weights(net.state_dict(), net_clean.state_dict())

    def test_transient_checkpoint_write_absorbed(self, tmp_path):
        with inject(FaultPlan.single("train.checkpoint.write", "transient")):
            _, result = _train_toy(checkpoint_dir=tmp_path)
        assert len(result.losses) == 3
        assert COUNTERS.transient_retries == 1
        assert (tmp_path / STATE_FILE).exists()


# ======================================================================
# Full matcher: kill + `repro resume` on a real benchmark
# ======================================================================
class TestMatcherResume:
    def test_hiergat_kill_resume_bitwise_f1(self, tmp_path):
        """The ISSUE acceptance test: a HierGAT run killed mid-epoch and
        resumed produces bitwise-identical final weights and test F1."""
        from repro.core import HierGAT
        from repro.data import load_dataset

        dataset = load_dataset("Beer")
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"

        clean = HierGAT().fit(dataset, checkpoint_dir=dir_a)
        clean_weights = {k: v.copy() for k, v in clean._network.state_dict().items()}
        clean_scores = clean.scores(dataset.split.test)
        clean_f1 = clean.test_f1(dataset)

        with inject(FaultPlan.single("trainer.step", "kill", at=ALWAYS, epoch=1)):
            with pytest.raises(TrainingKilled):
                HierGAT().fit(dataset, checkpoint_dir=dir_b)

        resumed = HierGAT().fit(dataset, checkpoint_dir=dir_b, resume=True)
        assert resumed.train_result.resumed_from == 1
        assert COUNTERS.resumes == 1
        _assert_same_weights(clean_weights, resumed._network.state_dict())
        assert resumed.threshold == clean.threshold
        assert np.array_equal(clean_scores, resumed.scores(dataset.split.test))
        assert resumed.test_f1(dataset) == clean_f1

    def test_cli_train_kill_then_resume(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = str(tmp_path / "ckpt")
        argv = ["--dataset", "Beer", "--fast", "--checkpoint-dir", ckpt]
        with inject(FaultPlan.single("trainer.step", "kill", at=ALWAYS, epoch=1)):
            assert main(["train"] + argv) == 3
        err = capsys.readouterr().err
        assert "repro resume" in err  # operator is told how to restart

        assert main(["resume"] + argv) == 0
        out = capsys.readouterr().out
        assert "resumed from epoch 1" in out
        assert "test F1" in out

    def test_cli_resume_requires_checkpoint_dir(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume", "--dataset", "Beer"])


# ======================================================================
# Pipeline scoring and harness cells
# ======================================================================
class _StubMatcher:
    name = "stub"
    threshold = 0.5

    def fit(self, dataset):
        return self

    def scores(self, pairs):
        return np.linspace(0.1, 0.9, num=len(pairs))


def _toy_tables():
    table_a = [Entity.from_dict(f"a{i}", {"name": f"shared widget {i}"})
               for i in range(4)]
    table_b = [Entity.from_dict(f"b{i}", {"name": f"shared widget {i}"})
               for i in range(4)]
    return table_a, table_b


class TestPipelineRetry:
    def test_transient_score_fault_retried_to_same_result(self):
        pipe = ERPipeline(matcher=_StubMatcher(), min_shared_tokens=1).fit(None)
        table_a, table_b = _toy_tables()
        clean = pipe.resolve(table_a, table_b)
        with inject(FaultPlan.single("pipeline.score", "transient")):
            faulted = pipe.resolve(table_a, table_b)
        assert COUNTERS.transient_retries == 1
        assert faulted.matches == clean.matches
        assert faulted.scores == clean.scores

    def test_persistent_transient_exhausts_and_raises(self):
        pipe = ERPipeline(matcher=_StubMatcher(), min_shared_tokens=1).fit(None)
        table_a, table_b = _toy_tables()
        with inject(FaultPlan.single("pipeline.score", "transient", at=ALWAYS)):
            with pytest.raises(TransientIOFault):
                pipe.resolve(table_a, table_b)


class TestHarnessCells:
    def test_success_passes_value_through(self):
        assert resilient_cell(lambda: 93.3) == 93.3
        assert COUNTERS.harness_cell_failures == 0

    def test_crash_degrades_to_dash(self):
        value = resilient_cell(lambda: 1 / 0, description="t:zero")
        assert value is None
        assert fmt(value) == "-"
        assert COUNTERS.harness_cell_failures == 1

    def test_transient_cell_fault_retried(self):
        with inject(FaultPlan.single("harness.cell", "transient")):
            assert resilient_cell(lambda: 42.0, description="t:flaky") == 42.0
        assert COUNTERS.transient_retries == 1
        assert COUNTERS.harness_cell_failures == 0

    def test_persistent_corruption_degrades(self):
        with inject(FaultPlan.single("harness.cell", "corrupt", at=ALWAYS)):
            assert resilient_cell(lambda: 42.0, description="t:corrupt") is None
        assert COUNTERS.harness_cell_failures == 1

    def test_kill_propagates(self):
        with inject(FaultPlan.single("harness.cell", "kill")):
            with pytest.raises(TrainingKilled):
                resilient_cell(lambda: 42.0, description="t:kill")

    def test_table_runner_renders_dash_for_failed_cell(self):
        from repro.harness.pairwise import run_table4_magellan

        plan = FaultPlan.single("harness.cell", "corrupt", at=ALWAYS)
        with inject(plan):
            table = run_table4_magellan(datasets=["Beer"], models=["Magellan"],
                                        include_dirty=False)
        assert table.cell("Beer", "Magellan") == "-"
        assert COUNTERS.harness_cell_failures == 1
