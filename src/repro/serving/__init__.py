"""Online serving layer: admission control, deadlines, circuit breakers,
and a three-tier degradation cascade over any trained matcher — either in
one process (:class:`InferenceService`) or as a crash-tolerant
router/replica cluster with cross-request batch coalescing and a
consistent-hash-sharded blocking index (:class:`ClusterService`).

Stdlib threading + multiprocessing only; see ``docs/SERVING.md`` for the
architecture and ``repro serve`` for the entry point.
"""

from repro.serving.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerStats,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.serving.cluster import (
    MAX_PAD_WIDTH,
    ClusterConfig,
    ClusterService,
    ConsistentHashRing,
    pad_width_for,
)
from repro.serving.service import (
    InferenceService,
    MatchResponse,
    PendingResponse,
    ServiceClosed,
    ServiceOverloaded,
    ServingConfig,
)
from repro.serving.soak import (
    ClusterSoakReport,
    ReplicaKill,
    SoakReport,
    default_chaos_plan,
    default_cluster_chaos_plan,
    default_replica_fault_specs,
    run_cluster_soak,
    run_soak,
)
from repro.serving.tiers import (
    TIER_FEATURES,
    TIER_FULL,
    TIER_TFIDF,
    DegradationCascade,
    ScoringTier,
    TfidfMatcher,
    build_cascade,
)

__all__ = [
    "BreakerStats",
    "CircuitBreaker",
    "CircuitOpenError",
    "CLOSED",
    "ClusterConfig",
    "ClusterService",
    "ClusterSoakReport",
    "ConsistentHashRing",
    "DegradationCascade",
    "HALF_OPEN",
    "InferenceService",
    "MatchResponse",
    "MAX_PAD_WIDTH",
    "OPEN",
    "PendingResponse",
    "ReplicaKill",
    "ScoringTier",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServingConfig",
    "SoakReport",
    "TIER_FEATURES",
    "TIER_FULL",
    "TIER_TFIDF",
    "TfidfMatcher",
    "build_cascade",
    "default_chaos_plan",
    "default_cluster_chaos_plan",
    "default_replica_fault_specs",
    "pad_width_for",
    "run_cluster_soak",
    "run_soak",
]
