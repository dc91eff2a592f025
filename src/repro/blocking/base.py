"""The ``Blocker`` interface: the pipeline/serving swap point for blocking.

Every blocker — the classic keyword-overlap and TF-IDF baselines as well as
the ANN indexes in :mod:`repro.blocking.ann` — implements the same three
operations:

* ``fit(table)`` — (re)build the index over a table of records,
* ``candidates(record, k)`` — up to ``k`` likely-matching indexed records,
* ``add(record)`` — append one record to the index *incrementally*, for
  online blocking in the serving layer (``add_many(records)`` appends a
  batch, exactly as repeated ``add`` would).

Contracts, enforced by the shared conformance suite
(``tests/test_blocking_contract.py``):

* **Determinism** — two fresh builds with the same seed over the same table
  answer every query identically (R001: no hidden RNG, no hash-salted
  iteration order).
* **Sorted emission** — ``candidates`` returns strictly increasing indices
  with no duplicates; ranking decides *membership* of the top-``k`` set,
  index order decides *emission* order.
* **No self-pairs** — a record already in the index is never its own
  candidate (matched by ``uid``).
* **Incremental-add parity** — ``add(record)`` followed by any query is
  bitwise-equivalent to rebuilding the index with the record included.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # annotation-only: repro.data.collective imports this
    from repro.data.schema import Entity  # package via blocking.tfidf.


class Blocker(abc.ABC):
    """Candidate generation over one indexed table of records."""

    #: Short name used in benchmark output and conformance-test ids.
    name: str = "blocker"

    @abc.abstractmethod
    def fit(self, table: Sequence[Entity]) -> "Blocker":
        """(Re)build the index over ``table``; returns ``self``."""

    @abc.abstractmethod
    def candidates(self, record: Entity, k: int = 16) -> List[int]:
        """Indices of up to ``k`` likely matches, strictly increasing.

        Records whose ``uid`` equals ``record.uid`` are excluded, so a
        query with an indexed record never yields a self-pair.
        """

    @abc.abstractmethod
    def add(self, record: Entity) -> int:
        """Incrementally index ``record``; returns its index.

        Must be exactly equivalent to rebuilding the index with ``record``
        appended to the fitted table (bitwise candidate-set parity).
        """

    def add_many(self, records: Sequence[Entity]) -> None:
        """Index ``records`` in order, as repeated :meth:`add` would."""
        for record in records:
            self.add(record)

    @property
    @abc.abstractmethod
    def records(self) -> Sequence[Entity]:
        """The indexed records, in index order."""

    def __len__(self) -> int:
        return len(self.records)


def candidate_pairs(
    blocker: Blocker,
    table_a: Sequence[Entity],
    table_b: Optional[Sequence[Entity]] = None,
    k: int = 16,
) -> List[Tuple[int, int]]:
    """Cross-table blocking: ``(i, j)`` index pairs via ``blocker``.

    When ``table_b`` is given the blocker is (re)fitted over it; otherwise
    the blocker's existing index is queried.  Pairs come out sorted by
    ``(i, j)`` — ``candidates`` already emits sorted ``j`` per query.
    """
    if table_b is not None:
        blocker.fit(table_b)
    out: List[Tuple[int, int]] = []
    for i, record in enumerate(table_a):
        for j in blocker.candidates(record, k=k):
            out.append((i, j))
    return out
