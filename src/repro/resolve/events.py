"""Typed stream events and the bounded reorder buffer.

The streaming resolver consumes a record stream that may arrive out of
order (multi-source ingestion interleaves shards with different lags).
:class:`ReorderBuffer` restores sequence order under a hard capacity
bound: contiguous runs release as soon as they complete, and when the
buffer would exceed its capacity the smallest buffered sequence number is
force-released past the gap (late stragglers for a skipped slot release
immediately on arrival).  The release order is a pure function of the
arrival order, which is what lets the WAL replay reconstruct the exact
pre-crash buffer state (see :mod:`repro.resolve.wal`).

:class:`ScoredEdge` is the unit of clustering provenance: one thresholded
pairwise decision with the score, the decision kind, and the serving tier
and parameter version that produced it.  Edges are what the WAL logs,
what the cluster store retains per merge, and what a retraction removes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.data.schema import Entity

#: Edge decision kinds: ``match`` (score above the match threshold) and
#: ``nonmatch`` (score below the non-match threshold — a transitivity
#: constraint).  Mid-band scores produce no edge (the scorer abstains).
EDGE_KINDS = ("match", "nonmatch")


@dataclasses.dataclass(frozen=True)
class ScoredEdge:
    """One thresholded pairwise decision, with full provenance."""

    u: str
    v: str
    score: float
    kind: str
    tier: str = "scorer"
    params_version: str = "v0"

    def __post_init__(self):
        if self.kind not in EDGE_KINDS:
            raise ValueError(
                f"unknown edge kind {self.kind!r}; choose from {EDGE_KINDS}")

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical undirected key: endpoints in sorted order."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def to_dict(self) -> Dict[str, object]:
        return {"u": self.u, "v": self.v, "score": self.score,
                "kind": self.kind, "tier": self.tier,
                "params_version": self.params_version}

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "ScoredEdge":
        return cls(u=str(raw["u"]), v=str(raw["v"]),
                   score=float(raw["score"]), kind=str(raw["kind"]),
                   tier=str(raw.get("tier", "scorer")),
                   params_version=str(raw.get("params_version", "v0")))


@dataclasses.dataclass(frozen=True)
class RecordArrival:
    """One stream arrival: a sequence number plus the record itself."""

    seq: int
    record: Entity


class ReorderBuffer:
    """Bounded buffer releasing records in sequence order.

    Not internally locked: the owning resolver serializes access under
    its ``resolve.stream`` lock.  Behaviour contract (all deterministic
    in the arrival order):

    * a contiguous run starting at ``next_seq`` releases immediately;
    * once more than ``capacity`` records are held behind a gap, the
      smallest held sequence number is force-released and the gap is
      skipped (``next_seq`` jumps forward);
    * an arrival for an already-skipped slot (``seq < next_seq``)
      releases immediately, by itself.
    """

    def __init__(self, capacity: int = 64, next_seq: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._held: Dict[int, Entity] = {}
        self._next_seq = int(next_seq)

    def __len__(self) -> int:
        return len(self._held)

    @property
    def next_seq(self) -> int:
        """The next sequence number an in-order release is waiting on."""
        return self._next_seq

    def offer(self, seq: int, record: Entity) -> List[RecordArrival]:
        """Accept one arrival; returns the releases it unlocks, in order."""
        seq = int(seq)
        if seq < self._next_seq:
            # Late arrival for a slot that was already force-released past.
            return [RecordArrival(seq, record)]
        self._held[seq] = record
        released: List[RecordArrival] = []
        self._release_contiguous(released)
        while len(self._held) > self.capacity:
            # A gap is blocking an over-full buffer: skip to the smallest
            # held sequence and release the run it starts.
            self._next_seq = min(self._held)
            self._release_contiguous(released)
        return released

    def drain(self) -> List[RecordArrival]:
        """Release everything held, in sequence order (stream shutdown)."""
        released = [RecordArrival(seq, self._held[seq])
                    for seq in sorted(self._held)]
        self._held.clear()
        if released:
            self._next_seq = max(released[-1].seq + 1, self._next_seq)
        return released

    def _release_contiguous(self, out: List[RecordArrival]) -> None:
        while self._next_seq in self._held:
            out.append(RecordArrival(self._next_seq,
                                     self._held.pop(self._next_seq)))
            self._next_seq += 1
