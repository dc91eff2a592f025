"""``repro.store`` — the offline embedding store and its serving scorer.

Splits HierGAT at the encoder/GAT boundary: ``repro embed`` precomputes
the frozen-encoder half (WpC token embeddings + attribute summaries) into
checksummed, memory-mapped ``.npy`` shards; online, a
:class:`StoreBackedScorer` replays them straight into the pair-level GAT
head.  See ``docs/PERFORMANCE.md`` for the serving model and the
quantization parity gate.
"""

from repro.store.embedstore import (
    DEFAULT_SHARD_SIZE,
    EmbeddingStore,
    StoreBuildError,
    StoredRecord,
    StoreStats,
    build_store,
    encode_record,
    encode_records,
    stable_record_key,
    store_cache,
    weights_digest,
)
from repro.store.quant import STORE_DTYPES, dequantize, quantize, quantized_matmul
from repro.store.scorer import StoreBackedScorer, parity_report

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "EmbeddingStore",
    "STORE_DTYPES",
    "StoreBackedScorer",
    "StoreBuildError",
    "StoredRecord",
    "StoreStats",
    "build_store",
    "dequantize",
    "encode_record",
    "encode_records",
    "parity_report",
    "quantize",
    "quantized_matmul",
    "stable_record_key",
    "store_cache",
    "weights_digest",
]
