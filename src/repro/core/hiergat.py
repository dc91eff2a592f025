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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, broadcast_to, concat, functional as F, no_grad
from repro.autograd.optim import Adam, clip_grad_norm
from repro.config import Scale, get_scale
from repro.core.aggregation import AttributeSummarizer, EntitySummarizer
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
from repro.matchers.encoding import AttributeEncoder
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
        self.entity_summarizer = EntitySummarizer()
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
        width = max(ids.shape[1] for ids, _ in sides)
        pad_id = self.context.lm.vocab.pad_id
        big_ids = np.full((2 * k_slots * batch, width), pad_id,
                          dtype=sides[0][0].dtype)
        big_mask = np.zeros((2 * k_slots * batch, width), dtype=bool)
        for i, (ids, mask) in enumerate(sides):
            big_ids[i * batch:(i + 1) * batch, :ids.shape[1]] = ids
            big_mask[i * batch:(i + 1) * batch, :mask.shape[1]] = mask
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
        similarities_all = self.comparator(
            wpc[:kb], mask[:kb], wpc[kb:], mask[kb:])
        similarities = [similarities_all[k * batch:(k + 1) * batch]
                        for k in range(k_slots)]
        entity_context = None
        if self.config.use_entity_summarization:
            left_view = attrs[:kb].reshape(k_slots, batch, -1).mean(axis=0)
            right_view = attrs[kb:].reshape(k_slots, batch, -1).mean(axis=0)
            entity_context = concat([left_view, right_view], axis=1)
        similarity = self.entity_comparator(similarities, entity_context)
        return self.head(similarity)

    # ------------------------------------------------------------------
    # Collective path
    # ------------------------------------------------------------------
    def forward_group(self, slots: List[Tuple[np.ndarray, np.ndarray]],
                      common_masks: Optional[List[np.ndarray]] = None) -> Tensor:
        """Collective match logits ``(N, 2)`` for one query group.

        ``slots[k] = (ids, mask)`` stacks the K-th attribute of all ``M = N+1``
        group entities, the query first.  ``common_masks[k]`` marks positions
        holding tokens shared by ≥2 group entities (entity-level context).
        """
        m = slots[0][0].shape[0]
        if m < 2:
            raise ValueError("a collective group needs a query and ≥1 candidate")
        n = m - 1

        # Stage 1: raw/token/attribute contexts for every entity and slot.
        raws, token_ctxs, attr_ctxs, masks = [], [], [], []
        for ids, mask in slots:
            raw = self.context.lm.embed(ids)
            token_ctx = (self.context.lm.encoder(raw, pad_mask=mask)
                         if self.config.context.token else None)
            source = token_ctx if token_ctx is not None else raw
            attr_ctx = (self.context.attribute_context(source, mask)
                        if self.config.context.attribute else None)
            raws.append(raw)
            token_ctxs.append(token_ctx)
            attr_ctxs.append(attr_ctx)
            masks.append(mask)

        # Stage 2: unique-attribute contexts V̄^a (sum per key over the group).
        unique_ctx = None
        if self.config.context.attribute and any(a is not None for a in attr_ctxs):
            unique_ctx = concat(
                [a.sum(axis=0).reshape(1, -1) for a in attr_ctxs if a is not None], axis=0,
            )

        # Stage 3: WpC (with redundant-context removal) + attribute embeddings.
        attr_embeddings: List[Tensor] = []   # K × (M, dim)
        wpcs: List[Tensor] = []
        for k, (ids, mask) in enumerate(slots):
            attr_ctx = attr_ctxs[k]
            use_entity = (self.config.context.entity and attr_ctx is not None
                          and unique_ctx is not None and common_masks is not None)
            if use_entity and common_masks[k].any():
                source = token_ctxs[k] if token_ctxs[k] is not None else raws[k]
                attr_ctx = attr_ctx + self.context.redundant_context(
                    source, common_masks[k], unique_ctx,
                )
            wpc = self.context.compose(raws[k], token_ctxs[k], attr_ctx)
            wpcs.append(wpc)
            attr_embeddings.append(self.summarizer(wpc, mask))

        # Stage 4: entity embeddings (mean view) + alignment (Equation 5).
        entity_views = EntitySummarizer.mean_view([a for a in attr_embeddings])  # (M, dim)
        if self.config.use_alignment:
            entity_views = self.alignment(entity_views)

        # Stage 5: compare the query against each candidate, all slots.
        similarities: List[Tensor] = []
        for k, (ids, mask) in enumerate(slots):
            query = wpcs[k][0:1, :, :]
            query_wpc = broadcast_to(query, (n,) + query.shape[1:])
            query_mask = np.broadcast_to(masks[k][0:1], (n,) + masks[k].shape[1:])
            cand_wpc = wpcs[k][1:, :, :]
            cand_mask = masks[k][1:]
            similarities.append(
                self.comparator(query_wpc, query_mask, cand_wpc, cand_mask)
            )
        entity_context = None
        if self.config.use_entity_summarization:
            query_view = broadcast_to(entity_views[0:1, :],
                                      (n, entity_views.shape[1]))
            cand_views = entity_views[1:, :]
            entity_context = concat([query_view, cand_views], axis=1)
        similarity = self.entity_comparator(similarities, entity_context)
        return self.head(similarity)

    # ------------------------------------------------------------------
    def attribute_attention(self) -> Optional[np.ndarray]:
        """Per-attribute weights h_k of the last forward (Figure 9)."""
        return self.entity_comparator.last_weights

    def token_attention(self) -> Optional[np.ndarray]:
        """[CLS]-row token attention of the last summarizer call (Figure 9)."""
        return self.summarizer.attention_map()


def _common_token_masks(slot_ids: List[np.ndarray], pad_id: int,
                        special_ids: Sequence[int]) -> List[np.ndarray]:
    """Positions holding tokens that appear in ≥2 entities of the group."""
    specials = set(int(s) for s in special_ids)
    owners: Dict[int, set] = {}
    for ids in slot_ids:
        for row in range(ids.shape[0]):
            for token in set(int(t) for t in ids[row]) - specials:
                owners.setdefault(token, set()).add(row)
    common = {t for t, rows in owners.items() if len(rows) >= 2}
    masks = []
    for ids in slot_ids:
        mask = np.isin(ids, list(common)) if common else np.zeros_like(ids, dtype=bool)
        masks.append(mask)
    return masks


class HierGAT(Matcher):
    """The pairwise HierGAT matcher (HG in the paper's tables).

    Per Section 6.1, the pairwise model runs without entity-level context and
    without the alignment layer; those belong to :class:`HierGATPlus`.
    """

    name = "HierGAT"

    def __init__(self, language_model: str = "roberta",
                 config: Optional[HierGATConfig] = None,
                 scale: Optional[Scale] = None, seed: Optional[int] = None):
        self.scale = scale or get_scale()
        self.seed = self.scale.seed if seed is None else seed
        base = config or HierGATConfig(language_model=language_model)
        # Pairwise model: no entity-level context, no alignment.
        self.config = dataclasses.replace(
            base,
            context=dataclasses.replace(base.context, entity=False),
            use_alignment=False,
        )
        self.threshold = 0.5
        self._network: Optional[HierGATNetwork] = None
        self._encoder: Optional[AttributeEncoder] = None
        self._num_attributes = 0
        self.train_result: Optional[TrainResult] = None

    def _forward(self, pairs: Sequence[EntityPair]) -> Tensor:
        slots = []
        for k in range(self._num_attributes):
            slots.append((
                self._encoder.encode_slot(pairs, k, "left"),
                self._encoder.encode_slot(pairs, k, "right"),
            ))
        return self._network(slots)

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
        self.train_result = train_pair_classifier(
            self._network, self._forward,
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

    def predict(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return (self.scores(pairs) >= self.threshold).astype(np.int64)


class HierGATPlus(Matcher):
    """The collective model (HG+): query + N candidates scored in one graph."""

    name = "HierGAT+"

    def __init__(self, language_model: str = "roberta",
                 config: Optional[HierGATConfig] = None,
                 scale: Optional[Scale] = None, seed: Optional[int] = None):
        self.scale = scale or get_scale()
        self.seed = self.scale.seed if seed is None else seed
        self.config = config or HierGATConfig(language_model=language_model)
        self.threshold = 0.5
        self._network: Optional[HierGATNetwork] = None
        self._encoder: Optional[AttributeEncoder] = None
        self._num_attributes = 0
        self.train_result: Optional[TrainResult] = None

    # ------------------------------------------------------------------
    def _group_slots(self, query: CollectiveQuery):
        entities = [query.query] + list(query.candidates)
        from repro.matchers.encoding import pad_sequences

        vocab = self._encoder.vocab
        slots, slot_ids = [], []
        for k in range(self._num_attributes):
            sequences = [self._encoder.attribute_ids(e, k) for e in entities]
            ids, mask = pad_sequences(sequences, vocab.pad_id)
            slots.append((ids, mask))
            slot_ids.append(ids)
        common_masks = None
        if self.config.context.entity:
            specials = [vocab.pad_id, vocab.cls_id, vocab.sep_id, vocab.col_id, vocab.val_id]
            common_masks = _common_token_masks(slot_ids, vocab.pad_id, specials)
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
        rng = np.random.default_rng(self.seed)
        lm, head_state = load_checkpoint(self.config.language_model, self.scale)
        self._network = HierGATNetwork(lm, self.config, self.scale.num_heads, rng)
        self._network.head.load_state_dict(head_state)
        self._encoder = AttributeEncoder(lm.vocab,
                                         max_value_tokens=self.scale.max_tokens // 2)
        self._num_attributes = min(
            len(q.query.attributes) for q in dataset.train + dataset.valid + dataset.test
        )
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
                clip_grad_norm(self._network.parameters(), config.grad_clip)
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
    def predict(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return (self.scores(pairs) >= self.threshold).astype(np.int64)

    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        if self._network is None:
            raise RuntimeError("fit() must be called first")
        out: List[float] = []
        for pair in pairs:
            group = CollectiveQuery(query=pair.left, candidates=[pair.right],
                                    labels=[pair.label])
            out.append(float(self._group_scores(group)[0]))
        return np.asarray(out)
