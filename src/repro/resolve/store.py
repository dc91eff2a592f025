"""Incremental entity-cluster store with transitivity-conflict repair.

The partition this store maintains is *defined* as a pure function of the
current edge set: per match-connected component, a greedy constrained
correlation clustering that accepts match edges in ``(-score, seeded
blake2b tie-break)`` order unless accepting one would co-locate the
endpoints of a non-match edge (:func:`greedy_partition`).  Because the
definition never references arrival order, two consequences fall out
structurally rather than by careful bookkeeping:

* the final partition is invariant under any permutation of edge
  arrivals (the determinism property suite shuffles arrivals and asserts
  bitwise-equal digests), and
* the streaming partition equals offline batch clustering over the same
  edges (the correctness harness in :mod:`repro.resolve.offline`).

Incrementally, components without internal non-match constraints are
plain connected components (a merge is a cheap relabel); only components
carrying constraints recompute their greedy partition, and a strong
non-match edge landing inside an existing cluster triggers that
recompute as a *conflict repair* (``COUNTERS.resolve_conflict_repairs``).

Fault site ``resolve.merge`` instruments every edge application:
``transient`` retries, ``kill`` propagates (the chaos soak kills
mid-stream), and ``corrupt`` mangles the affected component's partition
so the store's self-check must detect the damage and recompute from the
retained edges (``COUNTERS.resolve_merge_recomputes``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Set, Tuple

from repro.reliability import RetryPolicy, fault_point, retry_with_backoff
from repro.reliability.counters import COUNTERS
from repro.reliability.locks import named_lock
from repro.resolve.events import ScoredEdge


def edge_key(u: str, v: str) -> Tuple[str, str]:
    """Canonical undirected edge key."""
    return (u, v) if u <= v else (v, u)


def merge_tiebreak(seed: int, u: str, v: str) -> str:
    """Seeded, salt-free tie-break for equal-score edges (R001: blake2b)."""
    text = f"{seed}:{u}:{v}".encode("utf-8")
    return hashlib.blake2b(text, digest_size=8).hexdigest()


def greedy_partition(members: Set[str],
                     match_scores: Dict[Tuple[str, str], float],
                     nonmatch_keys: Set[Tuple[str, str]],
                     seed: int) -> Dict[str, str]:
    """The canonical constrained partition of one component's subgraph.

    Pure function of its arguments: match edges are accepted in
    ``(-score, tie-break)`` order into a min-uid-rooted union-find unless
    the union would co-locate a non-match edge's endpoints.  Returns
    ``uid -> cluster id`` where a cluster's id is its smallest member uid.
    """
    parent = {uid: uid for uid in members}

    def find(uid: str) -> str:
        root = uid
        while parent[root] != root:
            root = parent[root]
        while parent[uid] != root:
            parent[uid], uid = root, parent[uid]
        return root

    constraints = sorted(nonmatch_keys)
    order = sorted(match_scores.items(),
                   key=lambda item: (-item[1],
                                     merge_tiebreak(seed, *item[0])))
    for (u, v), _score in order:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        would_merge = {ru, rv}
        violated = any({find(a), find(b)} == would_merge
                       for a, b in constraints)
        if not violated:
            # Min-uid rooting keeps cluster ids canonical for free.
            parent[max(ru, rv)] = min(ru, rv)
    return {uid: find(uid) for uid in members}


class ClusterStore:
    """Thread-safe incremental cluster state over provenanced edges.

    All partition state lives under the ``resolve.store`` lock; the
    ``resolve.merge`` fault point and the global recovery counters are
    touched strictly outside it (R009/R010).
    """

    def __init__(self, seed: int = 0,
                 retry_policy: RetryPolicy = RetryPolicy()):
        self.seed = int(seed)
        self.retry_policy = retry_policy
        self._lock = named_lock("resolve.store")
        #: uid -> component root (smallest uid in the component).
        self._root: Dict[str, str] = {}
        #: component root -> member uids.
        self._members: Dict[str, Set[str]] = {}
        #: component root -> internal non-match edge keys (constraints).
        self._constraints: Dict[str, Set[Tuple[str, str]]] = {}
        #: uid -> cluster id (smallest uid in the cluster).
        self._cluster_of: Dict[str, str] = {}
        self._match: Dict[Tuple[str, str], ScoredEdge] = {}
        self._nonmatch: Dict[Tuple[str, str], ScoredEdge] = {}
        self._match_adj: Dict[str, Set[str]] = {}
        self._nonmatch_adj: Dict[str, Set[str]] = {}

    # -- registration ---------------------------------------------------
    def __contains__(self, uid: str) -> bool:
        with self._lock:
            return uid in self._root

    def __len__(self) -> int:
        with self._lock:
            return len(self._root)

    def add_record(self, uid: str) -> bool:
        """Register ``uid`` as a singleton; False if already present."""
        with self._lock:
            if uid in self._root:
                return False
            self._root[uid] = uid
            self._members[uid] = {uid}
            self._cluster_of[uid] = uid
            self._match_adj[uid] = set()
            self._nonmatch_adj[uid] = set()
            return True

    # -- edge application ------------------------------------------------
    def apply_edge(self, edge: ScoredEdge) -> None:
        """Fold one thresholded decision into the partition.

        Both endpoints must be registered (``add_record``).  Repeated
        keys overwrite their provenance — a re-scored pair supersedes the
        earlier decision.
        """
        injected = retry_with_backoff(
            lambda: fault_point("resolve.merge"),
            policy=self.retry_policy, description="cluster merge")
        with self._lock:
            for uid in (edge.u, edge.v):
                if uid not in self._root:
                    raise KeyError(f"record {uid!r} is not registered; "
                                   f"call add_record first")
            if edge.kind == "match":
                repaired = self._apply_match(edge)
            else:
                repaired = self._apply_nonmatch(edge)
            if injected == "corrupt":
                # Mangle the affected component's partition: the
                # self-check below must detect and recompute it.
                victim = min(self._members[self._root[edge.u]])
                self._cluster_of.pop(victim, None)
            recomputed = not self._check_component(self._root[edge.u])
        if repaired:
            COUNTERS.increment("resolve_conflict_repairs")
        if recomputed:
            COUNTERS.increment("resolve_merge_recomputes")

    def _apply_match(self, edge: ScoredEdge) -> bool:
        key = edge.key
        self._match[key] = edge
        self._match_adj[edge.u].add(edge.v)
        self._match_adj[edge.v].add(edge.u)
        ru, rv = self._root[edge.u], self._root[edge.v]
        if ru == rv:
            if self._constraints.get(ru):
                # A new in-component match edge can change the greedy
                # outcome only when constraints partition the component.
                self._repartition(ru)
            return False
        # Merge the two components (relabel the smaller member set).
        small, large = sorted((ru, rv), key=lambda r: len(self._members[r]))
        root = min(ru, rv)
        members = self._members.pop(large) | self._members.pop(small)
        constraints = (self._constraints.pop(large, set())
                       | self._constraints.pop(small, set()))
        for a in sorted(members):
            for b in sorted(self._nonmatch_adj[a]):
                if b in members:
                    constraints.add(edge_key(a, b))
        self._members[root] = members
        for uid in sorted(members):
            self._root[uid] = root
        if constraints:
            self._constraints[root] = constraints
            self._repartition(root)
            return True
        for uid in sorted(members):
            self._cluster_of[uid] = root
        return False

    def _apply_nonmatch(self, edge: ScoredEdge) -> bool:
        key = edge.key
        self._nonmatch[key] = edge
        self._nonmatch_adj[edge.u].add(edge.v)
        self._nonmatch_adj[edge.v].add(edge.u)
        ru, rv = self._root[edge.u], self._root[edge.v]
        if ru != rv:
            # The constraint only binds once the components merge.
            return False
        self._constraints.setdefault(ru, set()).add(key)
        if self._cluster_of[edge.u] == self._cluster_of[edge.v]:
            # Transitivity conflict: a strong non-match edge inside an
            # existing cluster.  Repair by canonical re-partition.
            self._repartition(ru)
            return True
        # Already-separated endpoints cannot change the greedy outcome:
        # every accepted merge stayed constraint-clean and every rejected
        # one stays rejected.
        return False

    def _repartition(self, root: str) -> None:
        """Recompute the canonical partition of one component (under lock)."""
        members = self._members[root]
        scores: Dict[Tuple[str, str], float] = {}
        for a in sorted(members):
            for b in sorted(self._match_adj[a]):
                if a < b and b in members:
                    scores[(a, b)] = self._match[(a, b)].score
        assignment = greedy_partition(
            members, scores, self._constraints.get(root, set()), self.seed)
        for uid in sorted(members):
            self._cluster_of[uid] = assignment[uid]

    def _check_component(self, root: str) -> bool:
        """Self-check one component; recompute from edges when damaged."""
        members = self._members.get(root, set())
        covered = all(self._cluster_of.get(uid) in members
                      for uid in members)
        if covered:
            return True
        self._repartition(root)
        return False

    # -- retraction -------------------------------------------------------
    def retract(self, uid: str) -> bool:
        """Un-merge ``uid``: remove it and its edges, re-form its component.

        Equivalent to replaying the retained edge set minus the record's
        edges: the surviving members split into match-connected
        components and each recomputes its canonical partition.
        """
        with self._lock:
            if uid not in self._root:
                return False
            root = self._root.pop(uid)
            members = self._members.pop(root)
            members.discard(uid)
            self._constraints.pop(root, None)
            self._cluster_of.pop(uid, None)
            for other in sorted(self._match_adj.pop(uid)):
                self._match_adj[other].discard(uid)
                self._match.pop(edge_key(uid, other), None)
            for other in sorted(self._nonmatch_adj.pop(uid)):
                self._nonmatch_adj[other].discard(uid)
                self._nonmatch.pop(edge_key(uid, other), None)
            for component in self._split_components(members):
                new_root = min(component)
                self._members[new_root] = component
                for member in sorted(component):
                    self._root[member] = new_root
                constraints = {
                    edge_key(a, b)
                    for a in sorted(component)
                    for b in sorted(self._nonmatch_adj[a]) if b in component}
                if constraints:
                    self._constraints[new_root] = constraints
                    self._repartition(new_root)
                else:
                    for member in sorted(component):
                        self._cluster_of[member] = new_root
        COUNTERS.increment("records_retracted")
        return True

    def _split_components(self, members: Set[str]) -> List[Set[str]]:
        """Match-connected components of ``members`` (deterministic order)."""
        seen: Set[str] = set()
        components: List[Set[str]] = []
        for start in sorted(members):
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbour in sorted(self._match_adj[node]):
                    if neighbour in members and neighbour not in component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            seen |= component
            components.append(component)
        return components

    # -- checkpoint --------------------------------------------------------
    def checkpoint_state(self) -> Dict[str, object]:
        """The retained edges and each record's component root and
        cluster id, read under one lock (the rest of the state is derived
        from these on :meth:`restore`)."""
        with self._lock:
            return {
                "edges": list(self._match.values())
                + list(self._nonmatch.values()),
                "partition": [(uid, root, self._cluster_of[uid])
                              for uid, root in self._root.items()],
            }

    def restore(self, partition: List[List[str]],
                edges: List[ScoredEdge]) -> None:
        """Load :meth:`checkpoint_state` output into this empty store: no
        edge is re-applied and no component re-partitioned.

        A component's constraints are its internal non-match edges, the
        invariant every mutation above maintains.
        """
        with self._lock:
            if self._root:
                raise ValueError("restore needs an empty ClusterStore")
            for uid, root, cluster in partition:
                self._root[uid] = root
                self._cluster_of[uid] = cluster
                self._members.setdefault(root, set()).add(uid)
                self._match_adj[uid] = set()
                self._nonmatch_adj[uid] = set()
            for edge in edges:
                key = edge.key
                if edge.kind == "match":
                    self._match[key] = edge
                    adjacency = self._match_adj
                else:
                    self._nonmatch[key] = edge
                    adjacency = self._nonmatch_adj
                    root = self._root[edge.u]
                    if self._root[edge.v] == root:
                        self._constraints.setdefault(root, set()).add(key)
                adjacency[edge.u].add(edge.v)
                adjacency[edge.v].add(edge.u)

    # -- inspection -------------------------------------------------------
    def assign(self, uid: str) -> Optional[str]:
        """The cluster id ``uid`` currently resolves to (None if unknown)."""
        with self._lock:
            return self._cluster_of.get(uid)

    def clusters(self) -> Tuple[Tuple[str, ...], ...]:
        """The full partition: sorted tuple of sorted member tuples."""
        with self._lock:
            by_cluster: Dict[str, List[str]] = {}
            for uid in sorted(self._cluster_of):
                by_cluster.setdefault(self._cluster_of[uid], []).append(uid)
        return tuple(tuple(members)
                     for _, members in sorted(by_cluster.items()))

    def edges(self) -> Tuple[ScoredEdge, ...]:
        """Every retained edge (provenance dump), in canonical key order."""
        with self._lock:
            retained = list(self._match.items()) + list(self._nonmatch.items())
        return tuple(edge for _, edge in sorted(retained,
                                                key=lambda item: item[0]))

    def digest(self) -> str:
        """Hash of the full cluster state (partition + edge provenance).

        Two stores with bitwise-identical state — the crash-resume
        acceptance check — produce equal digests.
        """
        clusters = self.clusters()
        payload = {
            "clusters": [list(c) for c in clusters],
            "edges": [edge.to_dict() for edge in self.edges()],
            "seed": self.seed,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(text.encode("utf-8"),
                               digest_size=16).hexdigest()

    def state_size(self) -> int:
        """Serialized size in bytes of the digestable state (benchmarks)."""
        payload = {
            "clusters": [list(c) for c in self.clusters()],
            "edges": [edge.to_dict() for edge in self.edges()],
        }
        return len(json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode("utf-8"))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "records": len(self._root),
                "components": len(self._members),
                "clusters": len(set(self._cluster_of.values())),
                "match_edges": len(self._match),
                "nonmatch_edges": len(self._nonmatch),
                "constrained_components": len(self._constraints),
            }
