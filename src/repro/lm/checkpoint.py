"""Simulated pre-trained checkpoints, built once and cached on disk.

Real Ditto/HierGAT load HuggingFace checkpoints whose power comes from
large-scale pre-training.  Offline we reproduce that pipeline shape:

1. A **global vocabulary** built from a large mixed-domain synthetic corpus
   (all benchmark domains, held-out generation seeds) with hashed OOV
   buckets — one vocabulary shared by every dataset, like a real tokenizer.
   It is built only while pre-training; afterwards it ships inside the
   checkpoint file, so loading a model never regenerates the corpus.
2. A **pre-training phase**: the encoder is trained on a balanced
   match/non-match pseudo-pair task over that corpus (the ER analogue of the
   transfer learning Brunner & Stockinger 2020 showed works for ER),
   bootstrapped from PPMI+SVD corpus embeddings.
3. The resulting weights and the vocabulary (its id-ordered token list
   and OOV bucket count) are cached in one ``.npz`` under ``.lm_cache/``
   keyed by architecture, steps, seed and default dtype, so every
   experiment pays the pre-training cost once.  The :class:`PretrainedLM`
   a checkpoint loads carries that vocabulary as ``lm.vocab``.

Fine-tuning per dataset then mirrors the paper's Section 5.3 training
process: "This process combines the training of [the model] with the
fine-tuning of the pre-trained LM."
"""

from __future__ import annotations

import functools
import hashlib
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, functional as F, get_default_dtype
from repro.autograd.optim import Adam, clip_grad_norm
from repro.config import Scale, get_scale
from repro.data.schema import EntityPair
from repro.lm.registry import LANGUAGE_MODELS, PretrainedLM, load_language_model
from repro.nn import Linear, Module
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import CorruptDataFault, fault_point
from repro.reliability.retry import retry_with_backoff
from repro.text.tokenizer import tokenize
from repro.text.vocab import NAN_TOKEN, Vocabulary

#: Generation seed base for the pre-training corpus — far away from the
#: benchmark seeds so no benchmark instance appears in pre-training.
_PRETRAIN_SEED = 880_000

#: Weights, head and vocabulary of one checkpoint, as :func:`_pretrain`
#: returns them and :func:`_read_checkpoint` loads them.
CheckpointStates = Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], Vocabulary]

_memory_cache: Dict[str, CheckpointStates] = {}


def cache_dir() -> Path:
    """Directory for cached checkpoints (override via $REPRO_LM_CACHE)."""
    override = os.environ.get("REPRO_LM_CACHE")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / ".lm_cache"


@functools.lru_cache(maxsize=1)
def pretraining_pool(pairs_per_domain: int = 700) -> Tuple[EntityPair, ...]:
    """Balanced mixed-domain pseudo-pair pool (easy + hard negatives)."""
    import dataclasses

    from repro.data.generators import generate_pairs
    from repro.data.magellan import MAGELLAN_DATASETS

    pool: List[EntityPair] = []
    for i, info in enumerate(MAGELLAN_DATASETS.values()):
        easy = dataclasses.replace(info.spec, hard_negative_fraction=0.25)
        pool.extend(generate_pairs(easy, pairs_per_domain, 0.5, seed=_PRETRAIN_SEED + i))
        pool.extend(generate_pairs(info.spec, pairs_per_domain, 0.5, seed=_PRETRAIN_SEED + 1000 + i))
    rng = np.random.default_rng(_PRETRAIN_SEED)
    order = rng.permutation(len(pool))
    return tuple(pool[int(i)] for i in order)


@functools.lru_cache(maxsize=1)
def pretraining_corpus() -> Tuple[Tuple[str, ...], ...]:
    """Token lists from the pre-training pool (vocabulary / PPMI input)."""
    corpus: List[Tuple[str, ...]] = []
    for pair in pretraining_pool()[:4000]:
        for entity in (pair.left, pair.right):
            for key, value in entity.attributes:
                corpus.append(tuple(tokenize(key) + tokenize(value)))
    return tuple(corpus)


@functools.lru_cache(maxsize=1)
def global_vocabulary() -> Vocabulary:
    """The tokenizer vocabulary pre-training builds; a loaded checkpoint
    ships it (``load_checkpoint(...)[0].vocab``)."""
    return Vocabulary.from_corpus(
        [list(t) for t in pretraining_corpus()], min_freq=1, num_oov_buckets=512,
    )


class SequencePairClassifier(Module):
    """Encoder + binary head over [CLS] — the pre-training (and Ditto) network."""

    def __init__(self, lm: PretrainedLM, rng: np.random.Generator):
        super().__init__()
        self.lm = lm
        self.head = Linear(lm.dim, 2, rng=rng)

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        return self.head(self.lm.encode_cls(ids, pad_mask=mask))


def _cache_key(name: str, scale: Scale, steps: int) -> str:
    """Name every input of :func:`_pretrain`: architecture, steps, seed and
    the default dtype its layers are built in, plus a code-version suffix.

    A checkpoint pre-trained under float64 or another seed has different
    weights, so it must never be read back under this process's key.
    ``-v8`` files carry the vocabulary; ``-v7`` is skipped because caches
    may hold stray files of that name in a format this code never wrote.
    """
    spec = LANGUAGE_MODELS[name]
    dtype = np.dtype(get_default_dtype()).name
    raw = (f"{name}-d{spec.dim(scale)}-l{spec.layers(scale)}-h{scale.num_heads}"
           f"-t{scale.max_tokens}-s{steps}-seed{scale.seed}-{dtype}-v8")
    return hashlib.blake2b(raw.encode(), digest_size=8).hexdigest() + "-" + raw


def default_pretrain_steps(scale: Scale) -> int:
    """Pre-training length: enough to learn comparison at bench scale,
    short at test scale."""
    return 300 if scale.max_pairs is not None and scale.max_pairs <= 100 else 4000


def _single_attribute_view(pair: EntityPair, rng: np.random.Generator) -> EntityPair:
    """Strip a pair down to one shared attribute slot.

    Mixing these into pre-training teaches the encoder *attribute-level*
    comparison, which HierGAT's attribute comparison layer (Section 5.2.1)
    relies on; full-entity sequences alone do not transfer to it.
    """
    from repro.data.schema import Entity

    slots = min(len(pair.left.attributes), len(pair.right.attributes))
    k = int(rng.integers(0, slots))
    key_l, value_l = pair.left.attributes[k]
    key_r, value_r = pair.right.attributes[k]
    # Avoid label noise: a non-match whose stripped attribute happens to be
    # identical (shared brand inside a family) would be mislabeled.
    if pair.label == 0 and value_l == value_r:
        return pair
    if pair.label == 1 and NAN_TOKEN in (value_l, value_r):
        return pair
    return EntityPair(
        left=Entity.from_dict(pair.left.uid, {key_l: value_l}),
        right=Entity.from_dict(pair.right.uid, {key_r: value_r}),
        label=pair.label,
    )


def _pretrain(name: str, scale: Scale, steps: int) -> CheckpointStates:
    from repro.matchers.encoding import PairEncoder

    vocab = global_vocabulary()
    corpus = [list(t) for t in pretraining_corpus()]
    rng = np.random.default_rng(scale.seed)
    lm = load_language_model(name, vocab, corpus=corpus, scale=scale, rng=rng)
    network = SequencePairClassifier(lm, rng)
    encoder = PairEncoder(vocab, max_tokens=scale.max_tokens)
    pool = pretraining_pool()
    optimizer = Adam(network.parameters(), lr=1e-3)
    network.train()
    for _ in range(steps):
        idx = rng.integers(0, len(pool), size=32)
        batch = []
        for i in idx:
            pair = pool[int(i)]
            if rng.random() < 0.4:  # attribute-level comparison mixture
                pair = _single_attribute_view(pair, rng)
            batch.append(pair)
        logits = network(*encoder.encode(batch))
        loss = F.cross_entropy(logits, np.array([p.label for p in batch]))
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(network.parameters(), 5.0)
        optimizer.step()
    network.eval()
    return lm.state_dict(), network.head.state_dict(), vocab


def _read_checkpoint(path: Path) -> Optional[CheckpointStates]:
    """Load a cached checkpoint; on any corruption, discard the file.

    Interrupted writes used to leave truncated ``.npz`` files behind, which
    then crashed every later run with ``zipfile.BadZipFile``.  Any read/parse
    failure here is treated as "no cache": the bad file is removed, the
    rebuild is counted in ``COUNTERS.checkpoint_rebuilds``, and the caller
    rebuilds it.  A file without its ``vocab:`` arrays, or whose vocabulary
    size disagrees with the rows of ``embedding.weight``, is corrupt too.
    The ``lm.checkpoint.read`` fault site raises transient IO errors
    *before* the parse (retried by :func:`load_checkpoint`) and injects
    corruption inside it.
    """
    import zipfile

    fault_point("lm.checkpoint.read", path=path.name)  # may raise transient
    try:
        if fault_point("lm.checkpoint.parse", path=path.name) == "corrupt":
            raise CorruptDataFault(f"injected corrupt checkpoint {path.name}")
        with np.load(path) as data:
            lm_state = {k[3:]: data[k] for k in data.files if k.startswith("lm:")}
            head_state = {k[5:]: data[k] for k in data.files if k.startswith("head:")}
            tokens = data["vocab:tokens"].tolist()
            num_oov_buckets = int(data["vocab:oov_buckets"])
        if not lm_state:
            raise KeyError("checkpoint has no lm arrays")
        vocab = Vocabulary.from_tokens(tokens, num_oov_buckets)
        rows = lm_state["embedding.weight"].shape[0]
        if len(vocab) != rows:
            raise ValueError(f"vocabulary of {len(vocab)} ids for {rows} embedding rows")
        return lm_state, head_state, vocab
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError):
        try:
            path.unlink()
        except OSError:
            pass
        COUNTERS.increment("checkpoint_rebuilds")
        return None


def _write_checkpoint(path: Path, lm_state: Dict[str, np.ndarray],
                      head_state: Dict[str, np.ndarray], vocab: Vocabulary) -> None:
    """Atomically persist a checkpoint (temp file + ``os.replace``).

    ``np.savez`` appends ``.npz`` to string paths, so we hand it an open file
    object; the rename is atomic on POSIX, so readers never see a partial
    file even if this process dies mid-write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fault_point("lm.checkpoint.write", path=path.name)  # may raise transient
    payload = {f"lm:{k}": v for k, v in lm_state.items()}
    payload.update({f"head:{k}": v for k, v in head_state.items()})
    payload["vocab:tokens"] = np.array(vocab.decode(list(range(vocab.num_known))))
    payload["vocab:oov_buckets"] = np.array(vocab.num_oov_buckets)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    if fault_point("lm.checkpoint.corrupt", path=path.name) == "corrupt":
        # Simulated disk corruption *after* the atomic rename — the one
        # failure atomicity cannot prevent; readers self-heal via
        # _read_checkpoint.
        data = path.read_bytes()
        path.write_bytes(data[: max(16, len(data) // 3)])


def load_checkpoint(name: str, scale: Optional[Scale] = None,
                    steps: Optional[int] = None) -> Tuple[PretrainedLM, Dict[str, np.ndarray]]:
    """Return a fresh :class:`PretrainedLM` with pre-trained weights and the
    checkpoint's vocabulary (``lm.vocab``), plus the pre-training head's
    state dict (useful as a warm start).

    Checkpoints are cached in memory and on disk; delete ``.lm_cache/`` to
    force a rebuild.
    """
    scale = scale or get_scale()
    steps = default_pretrain_steps(scale) if steps is None else steps
    key = _cache_key(name, scale, steps)

    if key not in _memory_cache:
        path = cache_dir() / f"{key}.npz"
        states = retry_with_backoff(
            lambda: _read_checkpoint(path)) if path.exists() else None
        if states is None:
            states = _pretrain(name, scale, steps)
            retry_with_backoff(lambda: _write_checkpoint(path, *states))
        _memory_cache[key] = states

    lm_state, head_state, vocab = _memory_cache[key]
    lm = load_language_model(name, vocab, corpus=None, scale=scale,
                             rng=np.random.default_rng(scale.seed))
    lm.load_state_dict(lm_state)
    return lm, {k: v.copy() for k, v in head_state.items()}
