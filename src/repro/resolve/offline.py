"""Offline batch clustering reference + exact-match partition metrics.

The correctness harness for streaming collective resolution: generate the
same thresholded edges a streaming run would see (same blocker state
evolution, same scorer, same thresholds), then cluster them in one batch
— match-connected components, each component's canonical constrained
partition computed once by :func:`~repro.resolve.store.greedy_partition`.
Because the streaming store maintains exactly that partition
incrementally, ``streaming == offline`` is asserted as *exact* partition
equality, not a similarity score.

Also here: pairwise precision/recall/F1 and the exact-cluster match rate
against ground-truth clusters (built from the multi-source generator's
truth pairs), the standard ER clustering metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.data.schema import Entity, EntityPair
from repro.resolve.events import ScoredEdge
from repro.resolve.store import edge_key, greedy_partition
from repro.resolve.stream import ResolveConfig

Partition = Tuple[Tuple[str, ...], ...]


def generate_stream_edges(records: Sequence[Entity], scorer, blocker,
                          config: ResolveConfig = ResolveConfig()
                          ) -> List[ScoredEdge]:
    """The exact edge sequence a streaming run over ``records`` produces.

    One record at a time — candidates from the index built so far,
    score, threshold, then index the record — without any incremental
    cluster maintenance: the per-record reference the resolver's group
    resolution must equal.
    """
    edges: List[ScoredEdge] = []
    for record in records:
        indexed = blocker.records
        candidates = blocker.candidates(record, k=config.candidates_k)
        partners = [indexed[j] for j in candidates
                    if indexed[j].uid != record.uid]
        if partners:
            pairs = [EntityPair(left=record, right=partner, label=0)
                     for partner in partners]
            scores = np.asarray(scorer.scores(pairs), dtype=np.float64)
            tier = str(getattr(scorer, "tier", "scorer"))
            params_version = str(getattr(scorer, "params_version", "v0"))
            for partner, score in zip(partners, scores):
                if score >= config.match_threshold:
                    kind = "match"
                elif score <= config.nonmatch_threshold:
                    kind = "nonmatch"
                else:
                    continue
                edges.append(ScoredEdge(
                    u=record.uid, v=partner.uid, score=float(score),
                    kind=kind, tier=tier, params_version=params_version))
        blocker.add(record)
    return edges


def offline_partition(uids: Iterable[str], edges: Sequence[ScoredEdge],
                      seed: int = 0) -> Partition:
    """Batch-cluster ``uids`` over ``edges`` in one pass.

    Match-connected components via BFS; unconstrained components collapse
    to one cluster, constrained ones take their canonical greedy
    partition.  Records without edges stay singletons.
    """
    nodes: Set[str] = set(uids)
    match_scores: Dict[Tuple[str, str], float] = {}
    nonmatch_keys: Set[Tuple[str, str]] = set()
    adjacency: Dict[str, Set[str]] = {uid: set() for uid in nodes}
    for edge in edges:
        nodes.add(edge.u)
        nodes.add(edge.v)
        adjacency.setdefault(edge.u, set())
        adjacency.setdefault(edge.v, set())
        if edge.kind == "match":
            match_scores[edge.key] = edge.score
            adjacency[edge.u].add(edge.v)
            adjacency[edge.v].add(edge.u)
        else:
            nonmatch_keys.add(edge.key)
    assignment: Dict[str, str] = {}
    seen: Set[str] = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour in sorted(adjacency[node]):
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        seen |= component
        constraints = {key for key in nonmatch_keys
                       if key[0] in component and key[1] in component}
        if constraints:
            scores = {key: score for key, score in match_scores.items()
                      if key[0] in component and key[1] in component}
            assignment.update(
                greedy_partition(component, scores, constraints, seed))
        else:
            root = min(component)
            for member in component:
                assignment[member] = root
    by_cluster: Dict[str, List[str]] = {}
    for uid in sorted(assignment):
        by_cluster.setdefault(assignment[uid], []).append(uid)
    return tuple(tuple(members) for _, members in sorted(by_cluster.items()))


def truth_partition(uids: Iterable[str],
                    truth_pairs: Iterable[Tuple[str, str]]) -> Partition:
    """Ground-truth clusters: connected components of the truth pairs."""
    edges = [ScoredEdge(u=a, v=b, score=1.0, kind="match", tier="truth",
                        params_version="truth")
             for a, b in truth_pairs]
    return offline_partition(uids, edges)


def partitions_equal(left: Partition, right: Partition) -> bool:
    """Exact partition equality (the streaming == offline gate)."""
    return set(left) == set(right)


def _pair_set(partition: Partition) -> Set[Tuple[str, str]]:
    pairs: Set[Tuple[str, str]] = set()
    for cluster in partition:
        members = sorted(cluster)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                pairs.add(edge_key(a, b))
    return pairs


def partition_metrics(predicted: Partition,
                      truth: Partition) -> Dict[str, float]:
    """Pairwise P/R/F1 plus the exact-cluster match rate."""
    predicted_pairs = _pair_set(predicted)
    truth_pairs = _pair_set(truth)
    hits = len(predicted_pairs & truth_pairs)
    precision = hits / len(predicted_pairs) if predicted_pairs else 1.0
    recall = hits / len(truth_pairs) if truth_pairs else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    exact = len(set(predicted) & set(truth))
    return {
        "pairwise_precision": precision,
        "pairwise_recall": recall,
        "pairwise_f1": f1,
        "exact_cluster_match_rate": exact / len(truth) if truth else 1.0,
        "predicted_clusters": float(len(predicted)),
        "truth_clusters": float(len(truth)),
    }
