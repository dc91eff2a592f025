"""Contextual embedding computation (Section 4) — the WpC embeddings.

Three context levels enrich the raw word embeddings ``V^t``:

* **token-level** ``C^t = Transformer(V^t)`` — the pre-trained LM's
  contextualised outputs (self-attention captures word order and relevance);
* **attribute-level** ``C^a`` — the ``GraphAttn`` pooling of an attribute's
  token vectors (Equation 1), broadcast back to its tokens (the paper's Φ);
* **entity-level** ``C^r`` — for the collective setting: the *redundant
  context* of common tokens shared by several entities (Equations 2–3),
  applied as a negative contribution so frequent shared words stop inflating
  attribute similarity.

``WpC = V^t + C^t + Φ(C^a + C^r)``; keeping the raw embeddings in the sum is
the residual mechanism of Section 4.2.

The class exposes each stage separately (``token_context`` /
``attribute_context`` / ``redundant_context`` / ``compose``) because the
collective model needs the intermediate attribute contexts of the whole
candidate group before it can compute the redundant context.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.autograd import Tensor, broadcast_to
from repro.lm.registry import PretrainedLM
from repro.nn import MaskedAttnPool, Module


@dataclasses.dataclass(frozen=True)
class ContextFlags:
    """Which context levels are active (the Table 9 ablation knobs)."""

    token: bool = True
    attribute: bool = True
    entity: bool = True

    @classmethod
    def none(cls) -> "ContextFlags":
        return cls(token=False, attribute=False, entity=False)


class ContextualEmbedder(Module):
    """Computes WpC embeddings for one batch of attribute token sequences."""

    def __init__(self, lm: PretrainedLM, flags: ContextFlags = ContextFlags(),
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.lm = lm
        self.flags = flags
        self.attr_pool = MaskedAttnPool(lm.dim, rng=rng)       # Equation 1 (c^t, W^t)
        self.common_pool = MaskedAttnPool(lm.dim, rng=rng)     # Equation 2 (c^a, W^a)
        self.redundant_pool = MaskedAttnPool(lm.dim, context_dim=lm.dim,
                                             use_projection=False, rng=rng)  # Equation 3 (c')
        # Learnable residual gates: the LayerNormed context vectors are ~20×
        # the raw-embedding norm, so un-gated addition would drown the token
        # identity signal.  Initialised small; training adjusts the balance.
        from repro.nn import Parameter

        self.token_gate = Parameter(np.array([0.1], dtype=np.float32))
        self.attr_gate = Parameter(np.array([0.1], dtype=np.float32))

    # ------------------------------------------------------------------
    # Individual context stages
    # ------------------------------------------------------------------
    def token_context(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """C^t: the LM's contextualised token embeddings."""
        return self.lm.encode(ids, pad_mask=mask)

    def attribute_context(self, source: Tensor, mask: np.ndarray) -> Tensor:
        """C^a per sequence (Equation 1): ``(batch, dim)``."""
        return self.attr_pool(source, mask=mask)

    def redundant_context(self, source: Tensor, common_mask: np.ndarray,
                          unique_attr_context: Tensor) -> Tensor:
        """C^r per sequence (Equations 2–3), already negated: ``(batch, dim)``.

        ``common_mask`` marks positions holding tokens shared across the
        entity group; ``unique_attr_context`` is the stack V̄^a of per-key
        context embeddings ``(n_keys, dim)``.
        """
        batch = source.shape[0]
        common_context = self.common_pool(source, mask=common_mask)  # Equation 2
        n_keys, dim = unique_attr_context.shape
        stacked = broadcast_to(unique_attr_context.reshape(1, n_keys, -1),
                               (batch, n_keys, dim))
        pooled = self.redundant_pool(stacked, extra=common_context)  # Equation 3
        return -pooled

    def compose(self, raw: Tensor, token_context: Optional[Tensor],
                attr_context: Optional[Tensor]) -> Tensor:
        """WpC = V^t + g_t·C^t + g_a·Φ(C^a [+ C^r]) — gated broadcast sum."""
        wpc = raw
        if token_context is not None:
            wpc = wpc + self.token_gate * token_context
        if attr_context is not None:
            batch, _, _ = raw.shape
            # Numpy broadcasting handles the (batch, 1, dim) → (batch, seq, dim)
            # expansion inside the add; no tiled materialization needed.
            wpc = wpc + self.attr_gate * attr_context.reshape(batch, 1, -1)
        return wpc

    # ------------------------------------------------------------------
    def forward(self, ids: np.ndarray, mask: np.ndarray,
                common_mask: Optional[np.ndarray] = None,
                unique_attr_context: Optional[Tensor] = None) -> Tensor:
        """One-shot WpC computation ``(batch, seq, dim)`` honouring the flags."""
        raw = self.lm.embed(ids)  # V^t
        # C^t reuses the raw embeddings instead of re-looking them up inside
        # lm.encode (same values; halves the embedding work per batch).
        token_ctx = self.lm.encoder(raw, pad_mask=mask) if self.flags.token else None
        attr_ctx = None
        if self.flags.attribute:
            source = token_ctx if token_ctx is not None else raw
            attr_ctx = self.attribute_context(source, mask)
            if (self.flags.entity and common_mask is not None
                    and unique_attr_context is not None and common_mask.any()):
                attr_ctx = attr_ctx + self.redundant_context(
                    source, common_mask, unique_attr_context,
                )
        return self.compose(raw, token_ctx, attr_ctx)
