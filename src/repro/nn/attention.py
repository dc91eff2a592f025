"""Attention mechanisms: multi-head self-attention and graph attention.

Three flavours are needed by the paper:

* :class:`MultiHeadSelfAttention` — the Transformer building block (Vaswani et
  al.), used inside the language-model encoder and the summarization layers.
* :class:`GraphAttention` — a vanilla GAT layer (Velickovic et al. 2018) over
  an explicit adjacency structure, used by the GCN/GAT/HGAT baselines.
* :class:`GraphAttnPool` — the paper's ``GraphAttn(c, W, V)`` operation
  (Equation 1): a learnable context vector attends over a node set and returns
  the attention-weighted sum.  Equations 3–5 reuse it with an extra context
  embedding concatenated into the score.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor, broadcast_to, functional as F, get_default_dtype
from repro.nn.layers import Dropout, Linear, xavier_uniform
from repro.nn.module import Module, Parameter

_NEG_INF = -1e9


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads.

    Input is ``(batch, seq, dim)``; ``pad_mask`` is a boolean ``(batch, seq)``
    array with True marking *valid* positions.
    """

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        self._last_attention: Optional[np.ndarray] = None

    @property
    def last_attention(self) -> Optional[np.ndarray]:
        """Attention weights from the most recent forward pass, used for
        Figure 9 visualisation: ``(batch, heads, seq, seq)``, or
        ``(batch, heads, 1, seq)`` after a ``cls_only`` call (the [CLS]
        query row over every key)."""
        return self._last_attention

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                cls_only: bool = False) -> Tensor:
        """``(batch, seq, dim)`` → ``(batch, seq, dim)``.

        With ``cls_only`` only position 0 queries (keys and values still
        cover every token) and the output is ``(batch, 1, dim)``.
        """
        batch, seq, _ = x.shape
        rows = 1 if cls_only else seq
        q = self._split_heads(self.q_proj(x[:, :1, :] if cls_only else x),
                              batch, rows)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if pad_mask is not None:
            invalid = ~np.asarray(pad_mask, dtype=bool)
            scores = F.masked_fill(scores, invalid[:, None, None, :], _NEG_INF)
        attn = F.softmax(scores, axis=-1)
        self._last_attention = attn.data
        attn = self.drop(attn)
        context = attn @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch, rows, self.dim)
        return self.out_proj(context)


class GraphAttention(Module):
    """A single GAT layer over node features with a dense adjacency mask.

    ``forward(h, adjacency)`` where ``h`` is ``(n, in_dim)`` and ``adjacency``
    is an ``(n, n)`` boolean array (True = edge; self-loops are added
    automatically).  Multi-head outputs are concatenated.
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int = 1,
                 dropout: float = 0.0, negative_slope: float = 0.2,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError("out_dim must be divisible by num_heads")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.negative_slope = negative_slope
        self.weight = Parameter(xavier_uniform((in_dim, out_dim), rng))
        # Per-head source/destination attention vectors (GAT's "a" split in two).
        self.attn_src = Parameter(xavier_uniform((num_heads, self.head_dim), rng))
        self.attn_dst = Parameter(xavier_uniform((num_heads, self.head_dim), rng))
        self.drop = Dropout(dropout, rng=rng)
        self._last_attention: Optional[np.ndarray] = None

    @property
    def last_attention(self) -> Optional[np.ndarray]:
        return self._last_attention

    def forward(self, h: Tensor, adjacency: np.ndarray) -> Tensor:
        n = h.shape[0]
        adjacency = np.asarray(adjacency, dtype=bool) | np.eye(n, dtype=bool)
        wh = (h @ self.weight).reshape(n, self.num_heads, self.head_dim)
        # score[i, j, head] = leaky_relu(a_src . wh_i + a_dst . wh_j)
        src = (wh * self.attn_src).sum(axis=-1)  # (n, heads)
        dst = (wh * self.attn_dst).sum(axis=-1)  # (n, heads)
        scores = src.reshape(n, 1, self.num_heads) + dst.reshape(1, n, self.num_heads)
        scores = F.leaky_relu(scores, self.negative_slope)
        scores = F.masked_fill(scores, ~adjacency[:, :, None], _NEG_INF)
        attn = F.softmax(scores, axis=1)  # normalise over neighbours j
        self._last_attention = attn.data
        attn = self.drop(attn)
        # out[i, head] = sum_j attn[i, j, head] * wh[j, head]
        attn_t = attn.transpose(2, 0, 1)  # (heads, n, n)
        wh_t = wh.transpose(1, 0, 2)  # (heads, n, head_dim)
        out = (attn_t @ wh_t).transpose(1, 0, 2).reshape(n, self.num_heads * self.head_dim)
        return out


class GraphAttnPool(Module):
    """The paper's ``GraphAttn(c, W, V)`` pooling operation (Equation 1).

    Given a node set ``V`` of shape ``(m, dim)``, computes attention weights
    ``h_i = softmax_i(leaky_relu(c . (W v_i || extra)))`` and returns the tuple
    ``(pooled, weights)`` where ``pooled = Σ h_i W v_i`` has shape ``(dim,)``.

    ``extra`` is an optional context embedding (e.g. the concatenated entity
    pair in Equation 4) appended to every row before scoring; pass
    ``context_dim`` at construction to size the score vector accordingly.
    """

    def __init__(self, dim: int, context_dim: int = 0, negative_slope: float = 0.2,
                 use_projection: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = dim
        self.context_dim = context_dim
        self.negative_slope = negative_slope
        self.use_projection = use_projection
        if use_projection:
            self.weight = Parameter(xavier_uniform((dim, dim), rng))
        else:
            self.weight = None
        self.score_vec = Parameter(
            (rng.standard_normal(dim + context_dim) * 0.1).astype(get_default_dtype())
        )
        self._last_weights: Optional[np.ndarray] = None

    @property
    def last_weights(self) -> Optional[np.ndarray]:
        """Attention weights from the last call (for ablation/visualisation)."""
        return self._last_weights

    def forward(self, nodes: Tensor, extra: Optional[Tensor] = None) -> Tensor:
        if nodes.ndim != 2:
            raise ValueError(f"GraphAttnPool expects (m, dim) nodes, got {nodes.shape}")
        projected = nodes @ self.weight if self.weight is not None else nodes
        if extra is not None:
            if self.context_dim == 0:
                raise ValueError("extra context passed but context_dim=0")
            m = projected.shape[0]
            tiled = broadcast_to(extra.reshape(1, -1), (m, extra.size))
            scored_input = F.leaky_relu(_concat_rows(projected, tiled), self.negative_slope)
        else:
            scored_input = F.leaky_relu(projected, self.negative_slope)
        logits = scored_input @ self.score_vec
        weights = F.softmax(logits, axis=0)
        self._last_weights = weights.data
        pooled = weights @ projected
        return pooled


def _concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two (m, d) tensors along the feature axis."""
    from repro.autograd import concat

    return concat([a, b], axis=1)


class MaskedAttnPool(Module):
    """Batched ``GraphAttn`` pooling over padded sequences.

    The batched counterpart of :class:`GraphAttnPool`: for input
    ``(batch, seq, dim)`` with a boolean validity mask, computes per-sequence
    attention weights ``softmax(leaky_relu(W x) . c)`` and returns the
    weighted sum ``(batch, dim)``.  ``extra`` optionally appends a per-batch
    context vector to every position before scoring (Equation 4's
    ``(v_lr || S_k)`` pattern).
    """

    def __init__(self, dim: int, context_dim: int = 0, negative_slope: float = 0.2,
                 use_projection: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = dim
        self.context_dim = context_dim
        self.negative_slope = negative_slope
        if use_projection:
            self.weight = Parameter(xavier_uniform((dim, dim), rng))
        else:
            self.weight = None
        self.score_vec = Parameter(
            (rng.standard_normal(dim + context_dim) * 0.1).astype(get_default_dtype())
        )
        self._last_weights: Optional[np.ndarray] = None

    @property
    def last_weights(self) -> Optional[np.ndarray]:
        return self._last_weights

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None,
                extra: Optional[Tensor] = None) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"MaskedAttnPool expects (batch, seq, dim), got {x.shape}")
        batch, seq, _ = x.shape
        projected = x @ self.weight if self.weight is not None else x
        scored = projected
        if extra is not None:
            if self.context_dim == 0:
                raise ValueError("extra context passed but context_dim=0")
            tiled = broadcast_to(extra.reshape(batch, 1, -1),
                                 (batch, seq, extra.shape[-1]))
            scored = _concat_last(projected, tiled)
        logits = F.leaky_relu(scored, self.negative_slope) @ self.score_vec  # (batch, seq)
        if mask is not None:
            logits = F.masked_fill(logits, ~np.asarray(mask, dtype=bool), _NEG_INF)
        weights = F.softmax(logits, axis=-1)
        self._last_weights = weights.data
        return (weights.reshape(batch, seq, 1) * projected).sum(axis=1)


def _concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the final axis."""
    from repro.autograd import concat

    return concat([a, b], axis=-1)
