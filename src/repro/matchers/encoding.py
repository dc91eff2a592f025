"""Shared input encoding for the neural matchers.

Builds a vocabulary + corpus embedding from a dataset's train/valid pairs and
turns entity pairs into padded id matrices in the formats the different
models consume.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import Scale, get_scale
from repro.data.schema import EntityPair, PairDataset
from repro.text.serialize import serialize_pair
from repro.text.tokenizer import tokenize
from repro.text.vocab import Vocabulary


def build_vocabulary(dataset: PairDataset, num_oov_buckets: int = 64) -> Tuple[Vocabulary, List[List[str]]]:
    """Vocabulary + corpus from the train and valid splits only.

    Test-split tokens are deliberately excluded: unseen test words exercise
    the OOV-bucket path, reproducing the paper's unknown-word discussion.
    """
    corpus: List[List[str]] = []
    for pair in dataset.split.train + dataset.split.valid:
        for entity in (pair.left, pair.right):
            for key, value in entity.attributes:
                corpus.append(tokenize(key) + tokenize(value))
    vocab = Vocabulary.from_corpus(corpus, min_freq=1, num_oov_buckets=num_oov_buckets)
    return vocab, corpus


def pad_sequences(sequences: Sequence[List[int]], pad_id: int,
                  max_len: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Pad ragged id lists into ``(ids, valid_mask)`` matrices."""
    if not sequences:
        raise ValueError("no sequences to pad")
    longest = max(max(len(s) for s in sequences), 1)
    width = min(longest, max_len) if max_len else longest
    ids = np.full((len(sequences), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(sequences), width), dtype=bool)
    for i, seq in enumerate(sequences):
        seq = seq[:width]
        ids[i, :len(seq)] = seq
        mask[i, :len(seq)] = True
    return ids, mask


class PairEncoder:
    """Encodes pairs in Ditto's flat ``[CLS] e1 [SEP] e2 [SEP]`` format."""

    def __init__(self, vocab: Vocabulary, max_tokens: Optional[int] = None,
                 scale: Optional[Scale] = None):
        scale = scale or get_scale()
        self.vocab = vocab
        self.max_tokens = max_tokens or scale.max_tokens

    def encode(self, pairs: Sequence[EntityPair]) -> Tuple[np.ndarray, np.ndarray]:
        sequences = [
            self.vocab.encode(serialize_pair(p.left, p.right,
                                             max_tokens=self.max_tokens))
            for p in pairs
        ]
        return pad_sequences(sequences, self.vocab.pad_id, max_len=self.max_tokens)


class AttributeEncoder:
    """Encodes pairs attribute-by-attribute (DeepMatcher / HierGAT input).

    For attribute slot ``k`` of a batch, returns the padded ids of the left
    values and right values separately.  The attribute *key* tokens are
    prepended so the model can condition on attribute identity, mirroring the
    <key, val> pairs of Section 2.
    """

    def __init__(self, vocab: Vocabulary, max_value_tokens: int = 16,
                 include_key: bool = True):
        self.vocab = vocab
        self.max_value_tokens = max_value_tokens
        self.include_key = include_key

    def attribute_ids(self, entity, slot: int) -> List[int]:
        key, value = entity.attributes[slot]
        tokens = tokenize(value)[: self.max_value_tokens]
        ids = [self.vocab.cls_id]
        if self.include_key:
            # Same [COL] key [VAL] value serialization the checkpoints are
            # pre-trained on (see repro.lm.checkpoint).
            ids += [self.vocab.col_id, *self.vocab.encode(tokenize(key)), self.vocab.val_id]
        return ids + self.vocab.encode(tokens)

    def encode_slot(self, pairs: Sequence[EntityPair], slot: int, side: str,
                    memo: Optional[dict] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Padded ids of one attribute slot of one side of ``pairs``.

        ``memo``, when given, maps an attribute's ``(key, value)`` to its ids
        and is filled as it goes, so a caller that encodes the same records
        many times (a fit's epochs) tokenises each attribute once.
        """
        sequences = []
        for pair in pairs:
            entity = pair.left if side == "left" else pair.right
            if memo is None:
                sequences.append(self.attribute_ids(entity, slot))
                continue
            attribute = entity.attributes[slot]
            ids = memo.get(attribute)
            if ids is None:
                ids = memo[attribute] = self.attribute_ids(entity, slot)
            sequences.append(ids)
        return pad_sequences(sequences, self.vocab.pad_id)

    @staticmethod
    def num_slots(pairs: Sequence[EntityPair]) -> int:
        return min(len(p.left.attributes) for p in pairs)
