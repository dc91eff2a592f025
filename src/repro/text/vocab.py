"""Vocabulary with hashed out-of-vocabulary buckets.

Section 4.1 of the paper discusses the unknown-word problem: brand-specific
tokens (``coolmax``, ``tp-link``) are discriminative but absent from
pre-trained vocabularies.  Mapping them all to one ``[UNK]`` id (the GloVe
approach) destroys that signal.  We follow the FastText-flavoured remedy the
paper cites: unknown words are hashed into a reserved range of OOV buckets so
distinct unknown words receive distinct (trainable) embeddings, while the
contextual-embedding machinery refines them further.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

PAD_TOKEN = "[PAD]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
UNK_TOKEN = "[UNK]"
COL_TOKEN = "[COL]"
VAL_TOKEN = "[VAL]"
NAN_TOKEN = "nan"  # the paper fills missing attribute values with "NAN"

SPECIAL_TOKENS = [PAD_TOKEN, CLS_TOKEN, SEP_TOKEN, UNK_TOKEN, COL_TOKEN, VAL_TOKEN, NAN_TOKEN]


def _stable_hash(token: str) -> int:
    """Deterministic across processes (unlike built-in ``hash``)."""
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little")


class Vocabulary:
    """Token ↔ id mapping with frequency-based construction and OOV buckets."""

    def __init__(self, num_oov_buckets: int = 64):
        if num_oov_buckets < 1:
            raise ValueError("need at least one OOV bucket")
        self.num_oov_buckets = num_oov_buckets
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        self._counts: Dict[str, int] = {}
        self._frozen = False
        for token in SPECIAL_TOKENS:
            self._add(token)

    # ------------------------------------------------------------------
    def _add(self, token: str) -> int:
        if token not in self._token_to_id:
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
        return self._token_to_id[token]

    def add_corpus(self, token_lists: Iterable[List[str]]) -> None:
        """Count token occurrences from an iterable of token lists."""
        if self._frozen:
            raise RuntimeError("vocabulary is frozen")
        for tokens in token_lists:
            for token in tokens:
                self._counts[token] = self._counts.get(token, 0) + 1

    def freeze(self, min_freq: int = 1, max_size: Optional[int] = None) -> None:
        """Build the final id space from accumulated counts."""
        if self._frozen:
            raise RuntimeError("vocabulary is already frozen")
        ranked = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for token, count in ranked:
            if count < min_freq:
                continue
            if max_size is not None and self.num_known >= max_size:
                break
            self._add(token)
        self._frozen = True

    # ------------------------------------------------------------------
    @property
    def num_known(self) -> int:
        """Number of in-vocabulary ids (specials included, OOV buckets excluded)."""
        return len(self._id_to_token)

    def __len__(self) -> int:
        """Total embedding-table size: known ids plus OOV buckets."""
        return self.num_known + self.num_oov_buckets

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD_TOKEN]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[CLS_TOKEN]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SEP_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK_TOKEN]

    @property
    def col_id(self) -> int:
        return self._token_to_id[COL_TOKEN]

    @property
    def val_id(self) -> int:
        return self._token_to_id[VAL_TOKEN]

    # ------------------------------------------------------------------
    def token_to_id(self, token: str) -> int:
        """Map a token to its id, hashing unknowns into the OOV range."""
        found = self._token_to_id.get(token)
        if found is not None:
            return found
        return self.num_known + _stable_hash(token) % self.num_oov_buckets

    def encode(self, tokens: List[str]) -> List[int]:
        return [self.token_to_id(t) for t in tokens]

    def id_to_token(self, idx: int) -> str:
        """Inverse mapping; OOV bucket ids decode to ``[UNK]``."""
        if 0 <= idx < self.num_known:
            return self._id_to_token[idx]
        if self.num_known <= idx < len(self):
            return UNK_TOKEN
        raise IndexError(f"id {idx} outside vocabulary of size {len(self)}")

    def decode(self, ids: List[int]) -> List[str]:
        return [self.id_to_token(i) for i in ids]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str], num_oov_buckets: int) -> "Vocabulary":
        """Rebuild a frozen vocabulary from its id-ordered token list, as a
        checkpoint ships it; ``ValueError`` unless the list starts with the
        special tokens and holds no duplicate."""
        tokens = list(tokens)
        token_to_id = {token: i for i, token in enumerate(tokens)}
        if tokens[:len(SPECIAL_TOKENS)] != SPECIAL_TOKENS or len(token_to_id) != len(tokens):
            raise ValueError("not an id-ordered vocabulary token list")
        vocab = cls(num_oov_buckets=num_oov_buckets)
        vocab._id_to_token = tokens
        vocab._token_to_id = token_to_id
        vocab._frozen = True
        return vocab

    @classmethod
    def from_corpus(cls, token_lists: Iterable[List[str]], min_freq: int = 1,
                    max_size: Optional[int] = None, num_oov_buckets: int = 64) -> "Vocabulary":
        """One-shot construction: count then freeze."""
        vocab = cls(num_oov_buckets=num_oov_buckets)
        vocab.add_corpus(token_lists)
        vocab.freeze(min_freq=min_freq, max_size=max_size)
        return vocab
