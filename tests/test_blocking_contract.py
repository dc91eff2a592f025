"""Blocker conformance suite: one battery, every blocker.

Runs the same contract checks against all three blockers — keyword
overlap, TF-IDF and MinHash/LSH — so a new blocker only has to register a
factory here to inherit the full battery:

* determinism across two fresh same-seed builds,
* candidates sorted strictly increasing, no duplicates, no self-pairs,
* ``add(record)`` then ``candidates(...)`` bitwise-equal to rebuilding the
  index with the record included (incremental-add parity), and likewise
  for a batched ``add_many(records)``,
* graceful behaviour on empty / single-record tables and invalid ``k``.
"""

import numpy as np
import pytest

from repro.blocking import (Blocker, MinHashLSHBlocker, OverlapBlocker,
                            TfidfBlocker, candidate_pairs)
from repro.data.schema import Entity


#: name -> zero-argument factory producing a *fresh* blocker.  Factories,
#: not instances: determinism is asserted across two independent builds.
FACTORIES = {
    "overlap": lambda: OverlapBlocker(min_shared_tokens=1),
    "tfidf": TfidfBlocker,
    "lsh": lambda: MinHashLSHBlocker(seed=7, num_perm=32, bands=16),
}


@pytest.fixture(params=sorted(FACTORIES), ids=sorted(FACTORIES))
def make_blocker(request):
    return FACTORIES[request.param]


def _table(n=40, seed=11):
    """Records with deliberate near-duplicates so candidates exist."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(25)]
    out = []
    for i in range(n):
        tokens = [words[int(j)] for j in rng.choice(len(words), size=5,
                                                    replace=False)]
        out.append(Entity.from_dict(f"r{i}", {"title": " ".join(tokens),
                                              "brand": tokens[0]}))
        if i % 4 == 0:  # a close variant of every fourth record
            out.append(Entity.from_dict(
                f"r{i}-dup", {"title": " ".join(tokens[:4] + ["extra"]),
                              "brand": tokens[0]}))
    return out


TABLE = _table()


class TestBlockerConformance:
    def test_is_a_blocker(self, make_blocker):
        assert isinstance(make_blocker(), Blocker)

    def test_deterministic_across_fresh_builds(self, make_blocker):
        first = make_blocker().fit(TABLE)
        second = make_blocker().fit(TABLE)
        for record in TABLE:
            assert first.candidates(record, k=8) \
                == second.candidates(record, k=8)

    def test_candidates_sorted_unique_in_range(self, make_blocker):
        blocker = make_blocker().fit(TABLE)
        for record in TABLE:
            got = blocker.candidates(record, k=8)
            assert got == sorted(set(got))
            assert len(got) <= 8
            assert all(0 <= j < len(TABLE) for j in got)

    def test_no_self_pairs(self, make_blocker):
        blocker = make_blocker().fit(TABLE)
        for i, record in enumerate(TABLE):
            assert i not in blocker.candidates(record, k=len(TABLE))

    def test_some_candidates_found(self, make_blocker):
        # Not a recall claim — just that the battery exercises non-empty
        # emission: the table contains near-duplicates every blocker finds.
        blocker = make_blocker().fit(TABLE)
        assert any(blocker.candidates(record, k=8) for record in TABLE)

    def test_incremental_add_equals_rebuild(self, make_blocker):
        extra = Entity.from_dict("fresh", {"title": "w0 w1 w2 w3 extra",
                                           "brand": "w0"})
        incremental = make_blocker().fit(TABLE)
        assert incremental.add(extra) == len(TABLE)
        rebuilt = make_blocker().fit(TABLE + [extra])
        for record in TABLE + [extra]:
            assert incremental.candidates(record, k=8) \
                == rebuilt.candidates(record, k=8)

    def test_add_from_empty_equals_fit(self, make_blocker):
        grown = make_blocker().fit([])
        for record in TABLE[:12]:
            grown.add(record)
        fitted = make_blocker().fit(TABLE[:12])
        for record in TABLE[:12]:
            assert grown.candidates(record, k=4) \
                == fitted.candidates(record, k=4)

    def test_add_many_after_fit_equals_fit(self, make_blocker):
        head, tail = TABLE[:20], TABLE[20:]
        grown = make_blocker().fit(head)
        grown.add_many(tail)
        fitted = make_blocker().fit(TABLE)
        assert [r.uid for r in grown.records] == [r.uid for r in TABLE]
        for record in TABLE:
            assert grown.candidates(record, k=8) \
                == fitted.candidates(record, k=8)

    def test_records_in_index_order(self, make_blocker):
        blocker = make_blocker().fit(TABLE)
        assert [r.uid for r in blocker.records] == [r.uid for r in TABLE]
        assert len(blocker) == len(TABLE)

    def test_refit_resets(self, make_blocker):
        blocker = make_blocker().fit(TABLE)
        blocker.fit(TABLE[:5])
        assert len(blocker) == 5
        for record in TABLE[:5]:
            assert all(j < 5 for j in blocker.candidates(record, k=8))

    def test_empty_table(self, make_blocker):
        blocker = make_blocker().fit([])
        assert len(blocker) == 0
        assert blocker.candidates(TABLE[0], k=4) == []

    def test_single_record_table(self, make_blocker):
        blocker = make_blocker().fit(TABLE[:1])
        got = blocker.candidates(TABLE[0], k=4)       # self: excluded
        assert got == []
        near = Entity.from_dict("q", dict(TABLE[0].attributes))
        assert blocker.candidates(near, k=4) in ([], [0])

    def test_invalid_k_rejected(self, make_blocker):
        blocker = make_blocker().fit(TABLE[:4])
        with pytest.raises(ValueError):
            blocker.candidates(TABLE[0], k=0)

    def test_candidate_pairs_sorted(self, make_blocker):
        pairs = candidate_pairs(make_blocker(), TABLE[:10], TABLE, k=4)
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs))
