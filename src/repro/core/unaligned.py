"""Unaligned-attribute matching — the paper's stated future direction.

Section 8: "An interesting future direction is to extend HierGAT to the
setting of unaligned attributes."  Real integration scenarios rename and
reorder columns (``name`` vs ``title``, ``maker`` vs ``brand``), breaking
the slot-by-slot pairing HierGAT's attribute comparison layer assumes.

:class:`SoftAttributeAligner` computes a soft assignment between the two
sides' attribute embeddings, and :class:`UnalignedHierGAT` compares each left
attribute against its *aligned mixture* of right attributes instead of the
same slot index.  :func:`make_unaligned` builds an evaluation set by shuffling
and renaming the right side's schema.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, concat, functional as F, stack
from repro.core.aggregation import EntitySummarizer
from repro.core.hiergat import HierGAT, HierGATNetwork
from repro.data.schema import Entity, EntityPair, PairDataset, Split
from repro.nn import Module


def make_unaligned(pairs: Sequence[EntityPair], seed: int = 0) -> List[EntityPair]:
    """Shuffle the right side's attribute order and obfuscate its key names.

    Keeps values intact, so a model with correct alignment can still match;
    slot-indexed comparison is broken on purpose.
    """
    rng = np.random.default_rng(seed)
    out: List[EntityPair] = []
    for pair in pairs:
        attrs = list(pair.right.attributes)
        order = rng.permutation(len(attrs))
        shuffled = [(f"col{int(i)}", attrs[int(i)][1]) for i in order]
        out.append(EntityPair(
            left=pair.left,
            right=Entity(uid=pair.right.uid, attributes=tuple(shuffled),
                         source=pair.right.source),
            label=pair.label,
        ))
    return out


def make_unaligned_dataset(dataset: PairDataset, seed: int = 0) -> PairDataset:
    """Unaligned variant of a benchmark (right-side schema scrambled)."""
    split = Split(
        train=make_unaligned(dataset.split.train, seed=seed),
        valid=make_unaligned(dataset.split.valid, seed=seed + 1),
        test=make_unaligned(dataset.split.test, seed=seed + 2),
    )
    return PairDataset(
        name=dataset.name + " (unaligned)",
        domain=dataset.domain,
        pairs=split.all_pairs(),
        split=split,
        num_attributes=dataset.num_attributes,
        dirty=dataset.dirty,
    )


class SoftAttributeAligner(Module):
    """Soft assignment between two sides' attribute embeddings.

    Scores every (left slot, right slot) pair by scaled dot product of the
    attribute embeddings and softmax-normalises over right slots, yielding,
    for each left attribute, a mixture weight over the right attributes.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self._last_assignment: Optional[np.ndarray] = None

    @property
    def last_assignment(self) -> Optional[np.ndarray]:
        """(batch, K_left, K_right) soft alignment of the last forward."""
        return self._last_assignment

    def forward(self, left_attrs: List[Tensor], right_attrs: List[Tensor]) -> Tensor:
        left = stack(left_attrs, axis=1)     # (batch, K_l, dim)
        right = stack(right_attrs, axis=1)   # (batch, K_r, dim)
        scores = (left @ right.transpose(0, 2, 1)) * (1.0 / np.sqrt(self.dim))
        assignment = F.softmax(scores, axis=-1)
        self._last_assignment = assignment.data
        return assignment


class UnalignedHierGAT(HierGAT):
    """HierGAT with soft attribute alignment before comparison.

    Instead of comparing slot k against slot k, each left attribute's
    comparison partner is the alignment-weighted mixture of the right side's
    WpC sequences, computed from attribute-embedding similarity.
    """

    name = "HierGAT-UA"

    def _build(self, num_attributes: int) -> None:
        super()._build(num_attributes)
        self._aligner = SoftAttributeAligner(self._network.dim)

    def _forward(self, pairs: Sequence[EntityPair],
                 memo: Optional[dict] = None) -> Tensor:
        network: HierGATNetwork = self._network
        slots = [(
            self._encoder.encode_slot(pairs, k, "left", memo),
            self._encoder.encode_slot(pairs, k, "right", memo),
        ) for k in range(self._num_attributes)]

        left_wpcs, right_wpcs, left_masks, right_masks = [], [], [], []
        left_attrs, right_attrs = [], []
        for (left_ids, left_mask), (right_ids, right_mask) in slots:
            left_wpc = network.context(left_ids, left_mask)
            right_wpc = network.context(right_ids, right_mask)
            left_wpcs.append(left_wpc)
            right_wpcs.append(right_wpc)
            left_masks.append(left_mask)
            right_masks.append(right_mask)
            left_attrs.append(network.summarizer(left_wpc, left_mask))
            right_attrs.append(network.summarizer(right_wpc, right_mask))

        assignment = self._aligner(left_attrs, right_attrs)  # (B, K, K)

        similarities: List[Tensor] = []
        for k in range(self._num_attributes):
            # Aligned right sequence: weighted mixture of right WpC tensors.
            # Sequences are padded per-slot, so mix the *pooled* token tensors
            # padded to a common width.
            width = max(w.shape[1] for w in right_wpcs)
            mixed = None
            union_mask = np.zeros((len(pairs), width), dtype=bool)
            for j, right_wpc in enumerate(right_wpcs):
                weight = assignment[:, k, j].reshape(-1, 1, 1)
                padded = _pad_to(right_wpc, width)
                term = weight * padded
                mixed = term if mixed is None else mixed + term
                union_mask |= _pad_mask_to(right_masks[j], width)
            similarities.append(network.comparator(
                left_wpcs[k], left_masks[k], mixed, union_mask,
            ))
        entity_context = None
        if network.config.use_entity_summarization:
            left_view = EntitySummarizer.mean_view(left_attrs)
            right_view = EntitySummarizer.mean_view(right_attrs)
            entity_context = concat([left_view, right_view], axis=1)
        similarity = network.entity_comparator(similarities, entity_context)
        return network.head(similarity)


def _pad_to(wpc: Tensor, width: int) -> Tensor:
    batch, seq, dim = wpc.shape
    if seq == width:
        return wpc
    pad = Tensor(np.zeros((batch, width - seq, dim), dtype=wpc.data.dtype))
    return concat([wpc, pad], axis=1)


def _pad_mask_to(mask: np.ndarray, width: int) -> np.ndarray:
    batch, seq = mask.shape
    if seq == width:
        return mask
    return np.concatenate([mask, np.zeros((batch, width - seq), dtype=bool)], axis=1)
