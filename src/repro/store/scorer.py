"""Store-backed tier-1 scoring: only the pair-level GAT head runs online.

:class:`StoreBackedScorer` wraps a fitted ``HierGAT``.  For each request
chunk it assembles the precomputed WpC embeddings and attribute summaries
of every record from the :class:`~repro.store.embedstore.EmbeddingStore`
(falling through to the live encoder on a miss — counted), stacks them
into one ``(2K·B, W, dim)`` megabatch across *all pairs and slots of the
chunk*, and runs ``HierGATNetwork.head_from_wpc``: attribute comparison,
entity comparison, and the classification head.  The frozen LM encoder,
the contextual embedder, and the attribute summarizer never run on the
hot path when the store is warm.

Because stored records keep their true token length and positional
encodings are mask-based, replaying them into a batch of any padded width
reproduces the live values at every valid position; in float32 store mode
the store-backed scores are bitwise identical to scoring with the store
bypassed (see :func:`parity_report`, enforced by tests and the ``--store``
benchmark mode).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, functional as F, no_grad
from repro.data.schema import EntityPair
from repro.matchers.base import Matcher
from repro.perf.cache import instance_token, params_version
from repro.store.embedstore import (
    EmbeddingStore,
    StoredRecord,
    encode_record,
    is_record,
    stable_record_key,
    store_cache,
)


class StoreBackedScorer(Matcher):
    """A drop-in tier-1 ``Matcher`` serving the encoder half from the store.

    Scores are real match probabilities (the ``Matcher.scores`` contract);
    the decision threshold delegates to the wrapped matcher so calibration
    survives the wrap.  ``batch_size=None`` uses the matcher's configured
    batch size (what the serving tier does); benchmarks may pass a larger
    chunk to amortize the head over more pairs at once.
    """

    name = "HierGAT(store)"

    def __init__(self, matcher, store: Optional[EmbeddingStore] = None,
                 batch_size: Optional[int] = None, pad_width: int = 0):
        self.matcher = matcher
        self.store = store
        self.batch_size = batch_size
        #: Minimum padded token width of every forward chunk.  0 keeps the
        #: legacy behaviour (pad to the chunk's own maximum block length).
        #: A fixed positive width makes per-pair scores *bitwise independent
        #: of batch composition*: every chunk whose blocks fit inside
        #: ``pad_width`` runs the head at the same padded width, AND the
        #: chunk itself is padded to a full ``batch_size`` pairs (by
        #: repeating the last pair; the surplus rows are sliced off), so
        #: every forward has one fixed shape.  Fixing the token width alone
        #: is not enough: BLAS kernels pick blocking strategies by matrix
        #: size, so the same logical row can differ in its last ulp between
        #: a 3-pair and a 6-pair batch (observable at float64).  The serving
        #: cluster's cross-request batch coalescing relies on this for
        #: tier-1 parity (see serving/cluster.py).
        self.pad_width = pad_width
        #: Distinct records encoded live because the store could not serve
        #: them (every record, when there is no store).  Live encodes are
        #: kept in the ``store`` LRU, so a record counts once per weights
        #: version however many pairs and calls it appears in (a poisoned
        #: entry's re-encode counts again).
        self.live_fallbacks = 0

    @property
    def threshold(self) -> float:
        return self.matcher.threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        self.matcher.threshold = value

    @property
    def scale(self):
        """The wrapped matcher's Scale (the serving layer reads batch_size)."""
        return self.matcher.scale

    # ------------------------------------------------------------------
    def scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        network = self.matcher._network
        if network is None:
            raise RuntimeError("fit() must be called first")
        batch_size = self.batch_size or self.matcher.scale.batch_size
        network.eval()
        out: List[float] = []
        with no_grad():
            for start in range(0, len(pairs), batch_size):
                chunk = list(pairs[start:start + batch_size])
                real = len(chunk)
                if self.pad_width and real < batch_size:
                    chunk.extend([chunk[-1]] * (batch_size - real))
                logits = self._forward_chunk(network, chunk)
                probs = F.softmax(logits, axis=-1).data[:real, 1]
                out.extend(float(p) for p in probs)
        return np.asarray(out)

    def predict(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return (self.scores(pairs) >= self.threshold).astype(np.int64)

    # ------------------------------------------------------------------
    def _record(self, network, entity) -> StoredRecord:
        """Store lookup, then the live-encode cache, then the live encoder.

        ``encode_record`` is a pure per-record function, so a cached live
        encode is bitwise the one a re-encode would compute; a poisoned or
        invalid entry (fault site ``cache.entry``) is dropped and
        re-encoded.  The key pins the weights version (a bump orphans the
        entry) and this scorer (a separately built reference scorer always
        recomputes).
        """
        if self.store is not None:
            record = self.store.get(entity)
            if record is not None:
                return record
        slots = self.matcher._num_attributes
        return store_cache().get_or_compute(
            ("live", stable_record_key(entity), params_version(),
             instance_token(self)),
            lambda: self._encode_live(network, entity),
            validate=lambda value: is_record(value, slots))

    def _encode_live(self, network, entity) -> StoredRecord:
        self.live_fallbacks += 1
        return encode_record(network, self.matcher._encoder, entity,
                             self.matcher._num_attributes)

    def _forward_chunk(self, network, chunk: List[EntityPair]) -> Tensor:
        """Assemble one cross-pair megabatch and run the GAT head.

        Row layout matches ``head_from_wpc``: slot-major per side — rows
        ``[k·B:(k+1)·B]`` hold slot ``k`` of every left record, the second
        half the right side.  Stored blocks land at their true length in a
        zero-filled ``(2K·B, W, dim)`` buffer; zeros at masked positions
        are inert downstream (masked softmax underflows them to exact 0).
        """
        k_slots = self.matcher._num_attributes
        batch = len(chunk)
        sides = ([self._record(network, p.left) for p in chunk],
                 [self._record(network, p.right) for p in chunk])
        width = max(block.shape[0]
                    for records in sides
                    for record in records
                    for block in record.wpc)
        width = max(width, self.pad_width)
        total = 2 * k_slots * batch
        wpc = np.zeros((total, width, network.dim), dtype=np.float32)
        mask = np.zeros((total, width), dtype=bool)
        attrs = np.zeros((total, network.dim), dtype=np.float32)
        for side, records in enumerate(sides):
            for b, record in enumerate(records):
                for k in range(k_slots):
                    row = side * k_slots * batch + k * batch + b
                    block = record.wpc[k]
                    length = block.shape[0]
                    wpc[row, :length] = block
                    mask[row, :length] = True
                    attrs[row] = record.attrs[k]
        return network.head_from_wpc(Tensor(wpc), mask, k_slots, batch,
                                     attrs=Tensor(attrs))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {"live_fallbacks": self.live_fallbacks}
        if self.store is not None:
            out["dtype"] = self.store.dtype
            out["store"] = self.store.stats.as_dict()
        return out


def parity_report(matcher, store: EmbeddingStore,
                  pairs: Sequence[EntityPair],
                  batch_size: Optional[int] = None) -> Dict[str, object]:
    """Score ``pairs`` store-backed and live-only; report the difference.

    ``bitwise`` must be ``True`` for float32 stores (the acceptance
    invariant); quantized stores report ``max_abs_diff`` and leave the
    accuracy judgement to the ΔF1 gate.
    """
    backed = StoreBackedScorer(matcher, store=store, batch_size=batch_size)
    live = StoreBackedScorer(matcher, store=None, batch_size=batch_size)
    with_store = backed.scores(pairs)
    without = live.scores(pairs)
    diff = np.abs(with_store - without)
    return {
        "pairs": len(pairs),
        "bitwise": bool(np.array_equal(with_store, without)),
        "max_abs_diff": float(diff.max()) if diff.size else 0.0,
        "store_hits": store.stats.hits,
        "live_fallbacks": backed.live_fallbacks,
    }
