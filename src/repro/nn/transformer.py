"""Transformer encoder stack — the substrate for the simulated pre-trained LMs.

Mirrors the BERT-family architecture the paper relies on: token embeddings +
sinusoidal position encodings, pre-norm encoder layers of multi-head
self-attention and a GELU feed-forward block, residual connections throughout.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Tensor, functional as F, get_default_dtype
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module


class PositionalEncoding(Module):
    """Fixed sinusoidal position encodings (Vaswani et al. 2017).

    ``scale`` shrinks the table so positions do not drown the token
    embeddings (which are O(0.1) here rather than the O(1) magnitudes
    Vaswani's ``sqrt(d)`` embedding scaling produces).
    """

    def __init__(self, dim: int, max_len: int = 1024, scale: float = 0.1):
        super().__init__()
        position = np.arange(max_len)[:, None].astype(np.float64)
        div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
        table = np.zeros((max_len, dim), dtype=np.float64)
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div[: dim // 2])
        self.table = (table * scale).astype(get_default_dtype())
        self.max_len = max_len

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None) -> Tensor:
        seq = x.shape[-2]
        if seq > self.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len {self.max_len}")
        if pad_mask is None:
            return x + Tensor(self.table[:seq])
        # Positions follow the *true* token order per row: the i-th valid
        # token gets position i regardless of where padding sits, so a
        # sequence padded to any width (or a segment shifted by another
        # segment's padding) receives identical encodings at its valid
        # positions.  Pad positions repeat the last valid index; they are
        # masked out of attention and pooling downstream.
        valid = np.asarray(pad_mask, dtype=bool)
        positions = np.maximum(np.cumsum(valid, axis=-1) - 1, 0)
        return x + Tensor(self.table[positions])


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder layer: MHSA + GELU feed-forward."""

    def __init__(self, dim: int, num_heads: int, ff_dim: Optional[int] = None,
                 dropout: float = 0.1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        ff_dim = ff_dim or 4 * dim
        self.attn = MultiHeadSelfAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng=rng)
        self.ff2 = Linear(ff_dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                cls_only: bool = False) -> Tensor:
        """``(batch, seq, dim)`` → ``(batch, seq, dim)``.

        ``cls_only`` computes the [CLS] row alone, ``(batch, 1, dim)``:
        ``norm1``, keys and values see every token, while the query, the
        out-projection, the feed-forward block and ``norm2`` run on row 0.
        """
        attended = self.attn(self.norm1(x), pad_mask=pad_mask, cls_only=cls_only)
        if cls_only:
            x = x[:, :1, :]
        x = x + self.drop(attended)
        x = x + self.drop(self.ff2(F.gelu(self.ff1(self.norm2(x)))))
        return x


class TransformerEncoder(Module):
    """A stack of encoder layers with position encodings and a final norm.

    ``forward`` takes pre-embedded token vectors ``(batch, seq, dim)`` plus an
    optional validity mask and returns contextualised vectors of the same
    shape (``(batch, 1, dim)`` with ``cls_only``, which runs the last layer
    on row 0 alone).  ``cls_output`` returns the position-0 vector — the
    [CLS] summary the paper uses as attribute / similarity embeddings.
    """

    def __init__(self, dim: int, num_layers: int, num_heads: int,
                 ff_dim: Optional[int] = None, dropout: float = 0.1,
                 max_len: int = 1024, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.dim = dim
        self.position = PositionalEncoding(dim, max_len=max_len)
        self.layers = [
            TransformerEncoderLayer(dim, num_heads, ff_dim=ff_dim, dropout=dropout, rng=rng)
            for _ in range(num_layers)
        ]
        self.final_norm = LayerNorm(dim)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                add_positions: bool = True, cls_only: bool = False) -> Tensor:
        if add_positions:
            x = self.position(x, pad_mask=pad_mask)
        x = self.drop(x)
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x, pad_mask=pad_mask, cls_only=cls_only and i == last)
        return self.final_norm(x)

    def cls_output(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                   add_positions: bool = True) -> Tensor:
        """Encode and return the position-0 ([CLS]) vector per sequence.

        The last layer computes row 0 alone (``cls_only``); earlier layers
        run in full because its keys and values cover all of their rows.
        """
        encoded = self.forward(x, pad_mask=pad_mask, add_positions=add_positions,
                               cls_only=True)
        return encoded[:, 0, :]

    def attention_maps(self) -> List[np.ndarray]:
        """Per-layer attention weights from the last forward pass."""
        return [layer.attn.last_attention for layer in self.layers
                if layer.attn.last_attention is not None]
