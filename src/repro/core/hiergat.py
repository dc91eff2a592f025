"""HierGAT and HierGAT+ — the paper's contribution (Sections 3–5).

:class:`HierGATNetwork` assembles the pipeline of Figure 6: contextual
embedding (WpC), hierarchical aggregation (attribute/entity summarization),
and hierarchical comparison (attribute/entity comparison) on top of a
pre-trained LM.  :class:`HierGAT` is the pairwise matcher; per Section 6.1 it
disables the entity-level context and the alignment layer.  :class:`HierGATPlus`
is the collective matcher: one forward pass scores a query against its whole
candidate set, with entity-level context (Equations 2–3) and the entity
alignment layer (Equation 5).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, broadcast_to, concat, functional as F, no_grad
from repro.autograd.optim import Adam, clip_grad_norm
from repro.config import Scale, get_scale
from repro.core.aggregation import AttributeSummarizer
from repro.core.alignment import EntityAlignment
from repro.core.comparison import AttributeComparator, EntityComparator
from repro.core.context import ContextFlags, ContextualEmbedder
from repro.core.metrics import best_threshold_f1, precision_recall_f1
from repro.core.trainer import TrainConfig, TrainResult, predict_forward, train_pair_classifier
from repro.data.collective import CollectiveDataset, CollectiveQuery
from repro.data.schema import EntityPair, PairDataset
from repro.lm.checkpoint import load_checkpoint
from repro.matchers.base import Matcher, labels_of
from repro.matchers.ditto import imbalance_weight
from repro.matchers.encoding import AttributeEncoder, pad_sequences
from repro.nn import Linear, Module


@dataclasses.dataclass(frozen=True)
class HierGATConfig:
    """Model-structure options (the ablation knobs of Tables 9–11)."""

    language_model: str = "roberta"
    context: ContextFlags = ContextFlags(token=True, attribute=True, entity=True)
    comparison_mode: str = "weight_average"   # Table 10
    use_entity_summarization: bool = True     # Table 11 "Non-Sum" disables
    use_alignment: bool = True                # Table 11 "Non-Align" disables


class HierGATNetwork(Module):
    """The full HierGAT pipeline over batched attribute-slot inputs."""

    def __init__(self, lm, config: HierGATConfig, num_heads: int,
                 rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.dim = lm.dim
        self.context = ContextualEmbedder(lm, config.context, rng=rng)
        self.summarizer = AttributeSummarizer(lm.dim, num_heads, rng=rng)
        self.comparator = AttributeComparator(lm)
        self.entity_comparator = EntityComparator(lm.dim, config.comparison_mode, rng=rng)
        self.alignment = EntityAlignment(lm.dim, rng=rng)
        self.head = Linear(lm.dim, 2, rng=rng)

    # ------------------------------------------------------------------
    # Pairwise path
    # ------------------------------------------------------------------
    def forward(self, slot_inputs: List[tuple]) -> Tensor:
        """Pairwise match logits ``(batch, 2)``.

        ``slot_inputs`` is a list over the K attribute slots of
        ``((left_ids, left_mask), (right_ids, right_mask))`` padded batches.
        All K slots of both record sides are padded to one common width
        ``W`` and stacked into a single ``(2K·B, W)`` megabatch, so the
        contextual embedder, the attribute summarizer and the attribute
        comparator each run once per step.  Positional encodings follow the
        validity mask, so ``W`` shifts no valid position.  Everything after
        the contextual embedder is shared with the embedding-store serving
        path via :meth:`head_from_wpc`.
        """
        k_slots = len(slot_inputs)
        batch = slot_inputs[0][0][0].shape[0]
        sides = ([left for left, _ in slot_inputs]
                 + [right for _, right in slot_inputs])
        big_ids = _pad_stack([ids for ids, _ in sides], self.context.lm.vocab.pad_id)
        big_mask = _pad_stack([mask for _, mask in sides], False)
        wpc = self.context(big_ids, big_mask)
        return self.head_from_wpc(wpc, big_mask, k_slots, batch)

    # ------------------------------------------------------------------
    # Encoder / GAT-head split (the embedding-store serving boundary)
    # ------------------------------------------------------------------
    def encode_record_slot(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """Frozen-encoder half of the split: WpC for a batch of attribute
        sequences (the store encodes one record's K slots as one batch).

        This is everything that depends only on a single record (token
        embedding, LM encoder, token/attribute context composition) — the
        part the offline embedding store materializes per record so online
        requests skip straight to :meth:`head_from_wpc`.
        """
        return self.context(ids, mask)

    def head_from_wpc(self, wpc: Tensor, mask: np.ndarray, k_slots: int,
                      batch: int, attrs: Optional[Tensor] = None) -> Tensor:
        """Pair-level GAT head over precomputed contextual embeddings.

        ``wpc`` is the ``(2K·B, W, dim)`` stack of WpC embeddings laid out
        slot-major per side — rows ``[k·B:(k+1)·B]`` hold slot ``k`` of every
        *left* record, rows ``[K·B + k·B : ...]`` the right side — with
        ``mask`` the matching validity mask.  Runs attribute summarization,
        attribute comparison (batched across all pairs *and* slots at once),
        entity comparison, and the classification head.  ``attrs`` may supply
        precomputed attribute summaries ``(2K·B, dim)`` (the store persists
        them alongside WpC) to skip the summarizer as well.
        """
        if attrs is None:
            attrs = self.summarizer(wpc, mask)
        kb = k_slots * batch
        entity_context = None
        if self.config.use_entity_summarization:
            left_view = attrs[:kb].reshape(k_slots, batch, -1).mean(axis=0)
            right_view = attrs[kb:].reshape(k_slots, batch, -1).mean(axis=0)
            entity_context = concat([left_view, right_view], axis=1)
        return self._classify(wpc[:kb], mask[:kb], wpc[kb:], mask[kb:],
                              k_slots, entity_context)

    def _classify(self, left_wpc: Tensor, left_mask: np.ndarray,
                  right_wpc: Tensor, right_mask: np.ndarray, k_slots: int,
                  entity_context: Optional[Tensor]) -> Tensor:
        """Attribute comparison of slot-major left/right rows (all pairs and
        slots in one comparator call), entity comparison, and the head."""
        similarities_all = self.comparator(left_wpc, left_mask, right_wpc, right_mask)
        rows = similarities_all.shape[0] // k_slots
        similarities = [similarities_all[k * rows:(k + 1) * rows]
                        for k in range(k_slots)]
        return self.head(self.entity_comparator(similarities, entity_context))

    # ------------------------------------------------------------------
    # Collective path
    # ------------------------------------------------------------------
    def forward_group(self, slots: List[Tuple[np.ndarray, np.ndarray]],
                      common_masks: Optional[List[np.ndarray]] = None) -> Tensor:
        """Collective match logits ``(N, 2)`` for one query group.

        ``slots[k] = (ids, mask)`` stacks the K-th attribute of all ``M = N+1``
        group entities, the query first.  ``common_masks[k]`` marks positions
        holding tokens shared by ≥2 group entities (entity-level context).
        As in :meth:`forward`, the K slots are padded to one width ``W`` and
        stacked slot-major into a single ``(K·M, W)`` megabatch, so every
        stage runs once per group.
        """
        k_slots, m = len(slots), slots[0][0].shape[0]
        if m < 2:
            raise ValueError("a collective group needs a query and ≥1 candidate")
        n = m - 1
        flags = self.config.context
        ids = _pad_stack([ids for ids, _ in slots], self.context.lm.vocab.pad_id)
        mask = _pad_stack([mask for _, mask in slots], False)

        # Raw/token/attribute contexts for every entity and slot.
        raw = self.context.lm.embed(ids)
        token_ctx = self.context.lm.encoder(raw, pad_mask=mask) if flags.token else None
        source = token_ctx if token_ctx is not None else raw
        attr_ctx = self.context.attribute_context(source, mask) if flags.attribute else None

        # Redundant-context removal (Equations 2–3) on the rows of slots that
        # hold a common token, against V̄^a: each slot's context summed over
        # the group.
        if flags.attribute and flags.entity and common_masks is not None:
            rows = np.flatnonzero(np.repeat([c.any() for c in common_masks], m))
            if rows.size:
                unique_ctx = attr_ctx.reshape(k_slots, m, -1).sum(axis=1)
                common = _pad_stack(common_masks, False)
                redundant = self.context.redundant_context(
                    source[rows], common[rows], unique_ctx)
                # Rows outside those slots read an appended zero row.
                lookup = np.full(k_slots * m, rows.size)
                lookup[rows] = np.arange(rows.size)
                zero = Tensor(np.zeros((1, self.dim), dtype=redundant.data.dtype))
                attr_ctx = attr_ctx + concat([redundant, zero])[lookup]
        wpc = self.context.compose(raw, token_ctx, attr_ctx)
        attrs = self.summarizer(wpc, mask)

        # Entity views: the mean over slots, then alignment (Equation 5).
        entity_context = None
        if self.config.use_entity_summarization:
            views = attrs.reshape(k_slots, m, -1).mean(axis=0)
            if self.config.use_alignment:
                views = self.alignment(views)
            entity_context = concat(
                [broadcast_to(views[0:1], (n, self.dim)), views[1:]], axis=1)

        # Each slot's query row, repeated N times, against its N candidates.
        starts = np.arange(k_slots) * m
        query_rows = np.repeat(starts, n)
        cand_rows = (starts[:, None] + np.arange(1, m)).ravel()
        return self._classify(wpc[query_rows], mask[query_rows],
                              wpc[cand_rows], mask[cand_rows],
                              k_slots, entity_context)

    # ------------------------------------------------------------------
    def attribute_attention(self) -> Optional[np.ndarray]:
        """Per-attribute weights h_k of the last forward (Figure 9)."""
        return self.entity_comparator.last_weights

    def token_attention(self) -> Optional[np.ndarray]:
        """[CLS]-row token attention of the last summarizer call (Figure 9)."""
        return self.summarizer.attention_map()


def _pad_stack(arrays: Sequence[np.ndarray], fill) -> np.ndarray:
    """Stack 2-D batches row-wise, right-padding each to the widest with ``fill``."""
    width = max(a.shape[1] for a in arrays)
    out = np.full((sum(a.shape[0] for a in arrays), width), fill,
                  dtype=arrays[0].dtype)
    start = 0
    for a in arrays:
        out[start:start + a.shape[0], :a.shape[1]] = a
        start += a.shape[0]
    return out


def _common_token_masks(slot_ids: List[np.ndarray],
                        special_ids: Sequence[int]) -> List[np.ndarray]:
    """Positions holding tokens that appear in ≥2 entities of the group.

    Row ``i`` of every slot is entity ``i``; a token is common when at least
    two distinct entities hold it, in any slot.  Specials are never common.
    """
    tokens = np.concatenate([ids.ravel() for ids in slot_ids])
    rows = np.concatenate([np.indices(ids.shape)[0].ravel() for ids in slot_ids])
    keep = ~np.isin(tokens, special_ids)
    pairs = np.unique(np.stack([tokens[keep], rows[keep]], axis=1), axis=0)
    held, owners = np.unique(pairs[:, 0], return_counts=True)
    common = held[owners >= 2]
    return [np.isin(ids, common) for ids in slot_ids]


class _HierGATMatcher(Matcher):
    """State, network build and thresholded prediction shared by the
    pairwise and the collective matcher."""

    def __init__(self, config: HierGATConfig, scale: Optional[Scale],
                 seed: Optional[int]):
        self.scale = scale or get_scale()
        self.seed = self.scale.seed if seed is None else seed
        self.config = config
        self.threshold = 0.5
        self._network: Optional[HierGATNetwork] = None
        self._encoder: Optional[AttributeEncoder] = None
        self._num_attributes = 0
        self.train_result: Optional[TrainResult] = None

    def _build(self, num_attributes: int) -> None:
        rng = np.random.default_rng(self.seed)
        lm, head_state = load_checkpoint(self.config.language_model, self.scale)
        self._network = HierGATNetwork(lm, self.config, self.scale.num_heads, rng)
        # Warm-start the classifier from the pre-training head: the entity
        # similarity embedding lives in the same [CLS] space the head was
        # pre-trained on.
        self._network.head.load_state_dict(head_state)
        self._encoder = AttributeEncoder(lm.vocab,
                                         max_value_tokens=self.scale.max_tokens // 2)
        self._num_attributes = num_attributes

    def predict(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return (self.scores(pairs) >= self.threshold).astype(np.int64)


class HierGAT(_HierGATMatcher):
    """The pairwise HierGAT matcher (HG in the paper's tables).

    Per Section 6.1, the pairwise model runs without entity-level context and
    without the alignment layer; those belong to :class:`HierGATPlus`.
    """

    name = "HierGAT"

    def __init__(self, language_model: str = "roberta",
                 config: Optional[HierGATConfig] = None,
                 scale: Optional[Scale] = None, seed: Optional[int] = None):
        base = config or HierGATConfig(language_model=language_model)
        # Pairwise model: no entity-level context, no alignment.
        super().__init__(dataclasses.replace(
            base,
            context=dataclasses.replace(base.context, entity=False),
            use_alignment=False,
        ), scale, seed)

    def _forward(self, pairs: Sequence[EntityPair],
                 memo: Optional[dict] = None) -> Tensor:
        slots = []
        for k in range(self._num_attributes):
            slots.append((
                self._encoder.encode_slot(pairs, k, "left", memo),
                self._encoder.encode_slot(pairs, k, "right", memo),
            ))
        return self._network(slots)

    def fit(self, dataset: PairDataset, checkpoint_dir=None,
            resume: bool = False) -> "HierGAT":
        """Train on ``dataset``.

        With ``checkpoint_dir``, every epoch boundary is persisted
        atomically and ``resume=True`` continues a killed run
        bitwise-identically (``repro resume`` drives this path).
        """
        self._build(AttributeEncoder.num_slots(dataset.split.train))
        config = TrainConfig.from_scale(
            self.scale, seed=self.seed,
            positive_weight=imbalance_weight(dataset.split.train),
        )
        # Every epoch and validation pass encodes the same pairs: tokenise
        # each attribute once per fit.  The memo dies with the fit, so the
        # encoder that serving shares afterwards never grows it.
        memo: dict = {}
        self.train_result = train_pair_classifier(
            self._network, lambda pairs: self._forward(pairs, memo),
            dataset.split.train, dataset.split.valid, config,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )
        if dataset.split.valid:
            valid_scores = self.train_result.best_valid_scores
            if valid_scores is None:
                valid_scores = self.scores(dataset.split.valid)
            self.threshold = best_threshold_f1(valid_scores, labels_of(dataset.split.valid))
        return self

    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        if self._network is None:
            raise RuntimeError("fit() must be called first")
        return predict_forward(self._network, self._forward, pairs, self.scale.batch_size)


class HierGATPlus(_HierGATMatcher):
    """The collective model (HG+): query + N candidates scored in one graph."""

    name = "HierGAT+"

    def __init__(self, language_model: str = "roberta",
                 config: Optional[HierGATConfig] = None,
                 scale: Optional[Scale] = None, seed: Optional[int] = None):
        super().__init__(config or HierGATConfig(language_model=language_model),
                         scale, seed)

    # ------------------------------------------------------------------
    def _group_slots(self, query: CollectiveQuery):
        entities = [query.query] + list(query.candidates)
        vocab = self._encoder.vocab
        slots = [pad_sequences([self._encoder.attribute_ids(e, k) for e in entities],
                               vocab.pad_id)
                 for k in range(self._num_attributes)]
        common_masks = None
        if self.config.context.entity:
            specials = [vocab.pad_id, vocab.cls_id, vocab.sep_id, vocab.col_id, vocab.val_id]
            common_masks = _common_token_masks([ids for ids, _ in slots], specials)
        return slots, common_masks

    def _forward_group(self, query: CollectiveQuery) -> Tensor:
        slots, common_masks = self._group_slots(query)
        return self._network.forward_group(slots, common_masks)

    def _group_scores(self, query: CollectiveQuery) -> np.ndarray:
        with no_grad():
            self._network.eval()
            logits = self._forward_group(query)
            return F.softmax(logits, axis=-1).data[:, 1]

    # ------------------------------------------------------------------
    def fit(self, dataset: CollectiveDataset) -> "HierGATPlus":
        self._build(min(
            len(q.query.attributes) for q in dataset.train + dataset.valid + dataset.test
        ))
        config = TrainConfig.from_scale(
            self.scale, seed=self.seed,
            positive_weight=imbalance_weight(dataset.pairs("train")),
        )
        self.train_result = self._train(dataset, config)
        if dataset.valid:
            scores, labels = self._flat_scores(dataset.valid)
            self.threshold = best_threshold_f1(scores, labels)
        return self

    def _train(self, dataset: CollectiveDataset, config: TrainConfig) -> TrainResult:
        rng = np.random.default_rng(config.seed)
        optimizer = Adam(self._network.parameters(), lr=config.learning_rate)
        weight = np.array([1.0, config.positive_weight])
        losses: List[float] = []
        valid_f1: List[float] = []
        best_f1, best_epoch, best_state = -1.0, -1, None

        groups = list(dataset.train)
        for epoch in range(config.epochs):
            self._network.train()
            rng.shuffle(groups)
            epoch_losses = []
            for group in groups:
                if not group.candidates:
                    continue
                labels = np.asarray(group.labels)
                logits = self._forward_group(group)
                loss = F.cross_entropy(logits, labels, weight=weight)
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(optimizer.params, config.grad_clip)
                optimizer.step()
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
            f1 = self._evaluate_groups(dataset.valid) if dataset.valid else 0.0
            valid_f1.append(f1)
            if f1 >= best_f1:
                best_f1, best_epoch = f1, epoch
                best_state = self._network.state_dict()
        if best_state is not None:
            self._network.load_state_dict(best_state)
        self._network.eval()
        return TrainResult(losses=losses, valid_f1=valid_f1,
                           best_epoch=best_epoch, best_f1=best_f1)

    # ------------------------------------------------------------------
    def _flat_scores(self, queries: Sequence[CollectiveQuery]):
        scores: List[float] = []
        labels: List[int] = []
        for group in queries:
            if not group.candidates:
                continue
            scores.extend(self._group_scores(group))
            labels.extend(group.labels)
        return np.asarray(scores), labels

    def _evaluate_groups(self, queries: Sequence[CollectiveQuery]) -> float:
        scores, labels = self._flat_scores(queries)
        if not labels:
            return 0.0
        return precision_recall_f1((scores >= 0.5).astype(int), labels).f1

    def evaluate_collective(self, queries: Sequence[CollectiveQuery]):
        """P/R/F1 over all candidates of the given query groups."""
        scores, labels = self._flat_scores(queries)
        predictions = (scores >= self.threshold).astype(int)
        return precision_recall_f1(predictions, labels)

    def test_f1_collective(self, dataset: CollectiveDataset) -> float:
        return self.evaluate_collective(dataset.test).f1 * 100.0

    # Pairwise interface (scores treat each pair as a single-candidate group).
    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        if self._network is None:
            raise RuntimeError("fit() must be called first")
        out: List[float] = []
        for pair in pairs:
            group = CollectiveQuery(query=pair.left, candidates=[pair.right],
                                    labels=[pair.label])
            out.append(float(self._group_scores(group)[0]))
        return np.asarray(out)
