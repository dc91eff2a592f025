"""Streaming collective resolution: crash-safe incremental clustering.

Public surface of the ``repro.resolve`` subsystem (see ``docs/RESOLVE.md``):

* :class:`~repro.resolve.stream.StreamingResolver` — the streaming
  pipeline: reorder buffer → blocker → scorer → WAL → cluster store,
  with typed retractions and the conservation invariant
  ``clustered + pending + retracted == ingested``.
* :class:`~repro.resolve.store.ClusterStore` — incremental partition
  with transitivity-conflict repair and per-merge provenance.
* :class:`~repro.resolve.wal.WriteAheadLog` — CRC-framed segments with
  atomic publication; torn tails truncate to the last valid entry; the
  shutdown checkpoint file and the compaction of the segments it covers.
* :mod:`~repro.resolve.offline` — the batch-clustering reference and
  exact-match partition metrics the correctness harness compares against.
"""

from repro.resolve.events import (
    EDGE_KINDS,
    RecordArrival,
    ReorderBuffer,
    ScoredEdge,
)
from repro.resolve.offline import (
    generate_stream_edges,
    offline_partition,
    partition_metrics,
    partitions_equal,
    truth_partition,
)
from repro.resolve.store import ClusterStore, greedy_partition, merge_tiebreak
from repro.resolve.stream import (
    JaccardScorer,
    MatcherScorer,
    ResolveConfig,
    ServiceScorer,
    StreamingResolver,
)
from repro.resolve.wal import WriteAheadLog, decode_entry, encode_entry

__all__ = [
    "EDGE_KINDS",
    "RecordArrival",
    "ReorderBuffer",
    "ScoredEdge",
    "ClusterStore",
    "greedy_partition",
    "merge_tiebreak",
    "JaccardScorer",
    "MatcherScorer",
    "ResolveConfig",
    "ServiceScorer",
    "StreamingResolver",
    "WriteAheadLog",
    "decode_entry",
    "encode_entry",
    "generate_stream_edges",
    "offline_partition",
    "partition_metrics",
    "partitions_equal",
    "truth_partition",
]
