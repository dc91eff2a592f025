"""Approximate-nearest-neighbour blocking: MinHash/LSH.

The classic blockers in this package score candidates against the *whole*
indexed table (TF-IDF) or touch every colliding token pair (overlap), which
caps datasets at toy size.  :class:`MinHashLSHBlocker` generates candidates
from hash-bucket collisions instead, so indexing is streaming (``add`` is
O(1) amortized per record), no all-pairs structure is ever materialized,
and a query touches only the records it collides with.  Its minhash
signatures run over token (or character n-gram) shingles and are banded
into LSH buckets; the collision probability for Jaccard similarity ``s`` is
the classic ``1 - (1 - s^r)^b`` S-curve (:func:`collision_probability`).

The banded-index machinery lives in :class:`_BandedNNIndex`, which keeps
the :class:`~repro.blocking.base.Blocker` contracts: seeded determinism,
sorted duplicate-free emission, uid-based self-pair exclusion, and bitwise
``add == rebuild`` parity (a record's signature row depends only on the
record and the seed, never on the rest of the corpus).

Reliability: every query passes the registered ``blocking.index`` fault
site.  Signature rows carry a per-row checksum; a corrupt row detected
while ranking raises :class:`~repro.reliability.faults.CorruptDataFault`
internally, the index is rebuilt from its retained records
(``COUNTERS.blocking_index_rebuilds``), and the query is re-answered from
the rebuilt index.  ``checkpoint_state``/``restore`` save and reload an
index from its records and signature rows without recomputing a signature
(the streaming resolver's shutdown checkpoint).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocking.base import Blocker
from repro.data.schema import Entity
from repro.perf.cache import params_version
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import CorruptDataFault, fault_point
from repro.text.tokenizer import tokenize

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)
#: Signature value for a record with no shingles (all such records collide).
_EMPTY_SIG = np.uint64((1 << 31) - 1)
#: XOR mask the ``corrupt`` fault kind applies to the signature matrix.
_CORRUPT_MASK = np.uint64(0xA5A5A5A5A5A5A5A5)
#: Records per vectorized indexing chunk.
_CHUNK = 4096


@functools.lru_cache(maxsize=1 << 20)
def token_hash(token: str) -> int:
    """Stable 64-bit hash of a token (blake2b — process-salt-free, R001)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def collision_probability(similarity: float, rows_per_band: int,
                          bands: int) -> float:
    """P(two records share ≥1 LSH bucket) at signature similarity ``s``.

    For MinHash, ``similarity`` is the Jaccard similarity of the shingle
    sets; each band of ``r`` rows matches with probability ``s^r``, so the
    collision probability is ``1 - (1 - s^r)^b``.
    """
    s = min(max(float(similarity), 0.0), 1.0)
    return 1.0 - (1.0 - s ** rows_per_band) ** bands


class _BandedNNIndex(Blocker):
    """Banded-signature machinery for an ANN blocker.

    Subclasses define a fixed-width ``uint64`` signature row per record
    (:meth:`_row_batch`), how rows map to band bucket values
    (:meth:`_band_values`), and how many components of a collided row
    agree with a query row (:meth:`_agreement`).  This base owns the
    growable row matrix, the per-row checksums, the bucket table,
    incremental ``add``, and the corrupt-index → rebuild recovery path.
    """

    #: uint64 columns per signature row (set by subclass __init__).
    row_width: int

    def __init__(self, seed: int, bands: int):
        self.seed = int(seed)
        self.bands = int(bands)
        self._reset()

    # -- subclass API ---------------------------------------------------
    def _row_batch(self, entities: Sequence[Entity]) -> np.ndarray:
        """(n, row_width) uint64 signature rows; pure per-record function."""
        raise NotImplementedError

    def _band_values(self, rows: np.ndarray) -> np.ndarray:
        """(n, bands) uint64 bucket values for signature rows."""
        raise NotImplementedError

    def _agreement(self, rows: np.ndarray, qrow: np.ndarray) -> np.ndarray:
        """int64 counts of agreeing components (higher = closer)."""
        raise NotImplementedError

    # -- state ----------------------------------------------------------
    def _reset(self) -> None:
        self._rows = np.zeros((0, self.row_width), dtype=np.uint64)
        self._sums = np.zeros(0, dtype=np.uint64)
        self._n = 0
        self._buckets: Dict[Tuple[int, int], List[int]] = {}
        #: uid -> indices of the records indexed under it (self-exclusion).
        self._uid_ids: Dict[str, List[int]] = {}
        #: ``(records, params_version, rows, bands)`` of the last query, so
        #: the ``candidates_many(rs)`` → ``add_many(rs)`` sequence of a
        #: streaming resolver computes the signatures once (rows are a pure
        #: function of the record and the weights, see :meth:`_row_batch`).
        self._last: Optional[
            Tuple[List[Entity], int, np.ndarray, np.ndarray]] = None
        self._records: List[Entity] = []

    @property
    def records(self) -> Sequence[Entity]:
        return self._records

    def __len__(self) -> int:
        return self._n

    def _ensure_capacity(self, extra: int) -> None:
        need = self._n + extra
        if need <= len(self._rows):
            return
        cap = max(need, 2 * len(self._rows), 1024)
        rows = np.zeros((cap, self.row_width), dtype=np.uint64)
        rows[:self._n] = self._rows[:self._n]
        self._rows = rows
        sums = np.zeros(cap, dtype=np.uint64)
        sums[:self._n] = self._sums[:self._n]
        self._sums = sums

    # -- building -------------------------------------------------------
    def fit(self, table: Sequence[Entity]) -> "_BandedNNIndex":
        self._reset()
        self._extend(list(table))
        return self

    def add(self, record: Entity) -> int:
        self._extend([record])
        return self._n - 1

    def add_many(self, records: Sequence[Entity]) -> None:
        """Streaming bulk ``add`` (the 1M-record build path)."""
        self._extend(list(records))

    def _signatures(self, chunk: List[Entity]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Signature rows and band values of ``chunk``; the records of
        the last query reuse that query's."""
        last = self._last
        if (last is not None and last[0] == chunk
                and last[1] == params_version()):
            return last[2], last[3]
        rows = self._row_batch(chunk)
        return rows, self._band_values(rows)

    def _extend(self, entities: List[Entity]) -> None:
        for start in range(0, len(entities), _CHUNK):
            chunk = entities[start:start + _CHUNK]
            self._append(chunk, *self._signatures(chunk))

    def _append(self, chunk: Sequence[Entity], rows: np.ndarray,
                bands: np.ndarray) -> None:
        """Index ``chunk`` under its signature rows and band values."""
        self._ensure_capacity(len(chunk))
        base = self._n
        self._rows[base:base + len(chunk)] = rows
        # uint64 row checksum (wrapping sum): the cheap read-side
        # integrity check the corrupt-fault recovery test relies on.
        self._sums[base:base + len(chunk)] = rows.sum(
            axis=1, dtype=np.uint64)
        for record_id, entity, values in zip(
                itertools.count(base), chunk, bands.tolist()):
            for key in enumerate(values):
                self._buckets.setdefault(key, []).append(record_id)
            self._uid_ids.setdefault(entity.uid, []).append(record_id)
        self._records.extend(chunk)
        self._n += len(chunk)

    # -- checkpoint -----------------------------------------------------
    def index_params(self) -> Dict[str, object]:
        """The constructor parameters a saved index is only valid for."""
        raise NotImplementedError

    def checkpoint_state(self) -> Tuple[List[Entity], np.ndarray]:
        """The indexed records and a copy of their signature rows."""
        return list(self.records), self._rows[:self._n].copy()

    def restore(self, records: Sequence[Entity], rows: np.ndarray) -> None:
        """Rebuild the index from :meth:`checkpoint_state` output without
        recomputing a signature: the checksums, bucket table and uid map
        are derived from the saved rows."""
        if rows.shape != (len(records), self.row_width):
            raise ValueError(
                f"{type(self).__name__}: {rows.shape} signature rows for "
                f"{len(records)} records of width {self.row_width}")
        self._reset()
        for start in range(0, len(records), _CHUNK):
            chunk_rows = rows[start:start + _CHUNK]
            self._append(records[start:start + _CHUNK], chunk_rows,
                         self._band_values(chunk_rows))

    # -- querying -------------------------------------------------------
    def candidates(self, record: Entity, k: int = 16) -> List[int]:
        return self.candidates_many([record], k)[0]

    def candidates_many(self, records: Sequence[Entity],
                        k: int = 16) -> List[List[int]]:
        """Candidates of each record as if the records before it in
        ``records`` were already indexed.

        Entry i equals ``candidates(records[i], k)`` after
        ``add(records[0]) … add(records[i-1])``: an id ``len(self) + j``
        names ``records[j]``, the index its ``add`` will give it.  One
        signature batch, one fault check and one pass over the collided
        rows serve the whole group, and an ``add_many(records)`` right
        after reuses the signatures.
        """
        if k <= 0:
            raise ValueError("k must be >= 1")
        records = list(records)
        if not records:
            return []
        rows = self._row_batch(records)
        bands = self._band_values(rows)
        kind = fault_point("blocking.index", op="query", size=self._n)
        if kind == "corrupt":
            # Contract of the ``corrupt`` kind: the call site mangles its
            # own data so the *reader-side* detection path is exercised.
            if self._n:
                self._rows[:self._n] ^= _CORRUPT_MASK
        uids = [record.uid for record in records]
        try:
            found = self._query(rows, bands, uids, k)
        except CorruptDataFault:
            self._rebuild()
            found = self._query(rows, bands, uids, k)
        self._last = (records, params_version(), rows, bands)
        return found

    def _query(self, qrows: np.ndarray, qbands: np.ndarray,
               uids: List[str], k: int) -> List[List[int]]:
        n, size = self._n, len(qrows)
        # Every (member i, id) pair is one int64 key ``i * span + id``:
        # ids (indexed, or ``n + j`` for member j) are < span, so one sort
        # groups the keys by member and orders each member's ids.
        span = n + size
        get = self._buckets.get
        collided: List[List[int]] = []
        counts: List[int] = []
        for values in qbands.tolist():
            hit = [ids for ids in map(get, enumerate(values)) if ids]
            collided.extend(hit)
            counts.append(sum(map(len, hit)))
        keys = np.fromiter(itertools.chain.from_iterable(collided),
                           dtype=np.int64, count=sum(counts))
        if size > 1:
            keys += np.repeat(np.arange(0, size * span, span), counts)
            # Earlier members whose bands meet member i's: the buckets
            # their ``add`` would have put them in.
            meet = (qbands[:, None, :] == qbands[None, :, :]).any(axis=2)
            member, earlier = np.nonzero(np.tril(meet, -1))
            if len(member):
                keys = np.concatenate((keys, member * span + n + earlier))
                # The slots ``_append`` fills for the group, so one take
                # and one checksum pass cover members and indexed rows.
                self._ensure_capacity(size)
                self._rows[n:span] = qrows
                self._sums[n:span] = qrows.sum(axis=1, dtype=np.uint64)
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        # Self-exclusion: records indexed under the member's uid, and
        # earlier members with the same uid.
        own: List[int] = []
        group_ids: Dict[str, List[int]] = {}
        for i, uid in enumerate(uids):
            mine = group_ids.setdefault(uid, [])
            for ids in (self._uid_ids.get(uid, ()), mine):
                own.extend(i * span + j for j in ids)
            mine.append(n + i)
        if own:
            keys = keys[np.isin(keys, own, invert=True)]
        if not len(keys):
            return [[] for _ in uids]
        ids = keys % span
        rows = self._rows.take(ids, axis=0)
        # Unsigned adds wrap mod 2^64 in any order, so this equals the
        # checksum ``_append`` stored.
        if not np.array_equal(np.einsum("ij->i", rows),
                              self._sums.take(ids)):
            raise CorruptDataFault(
                f"{type(self).__name__}: signature-row checksum mismatch "
                f"(index corrupt); rebuilding from retained records")
        bounds = np.searchsorted(
            keys, np.arange(0, (size + 1) * span, span)).tolist()
        found: List[List[int]] = []
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi - lo > k:
                # Top-k by (agreement desc, index asc) in one int64 key;
                # a member's ids are unique and < span.  Emission is
                # sorted by index (R001).
                key = ids[lo:hi] - self._agreement(rows[lo:hi],
                                                   qrows[i]) * span
                found.append(np.sort(np.partition(key, k - 1)[:k]
                                     % span).tolist())
            else:
                found.append(ids[lo:hi].tolist())
        return found

    # -- recovery -------------------------------------------------------
    def _rebuild(self) -> None:
        self.fit(self._records)
        COUNTERS.increment("blocking_index_rebuilds")


class MinHashLSHBlocker(_BandedNNIndex):
    """MinHash signatures over token shingles, banded into LSH buckets.

    ``num_perm`` hash permutations are simulated with seeded multiply-shift
    universal hashing over stable 64-bit token hashes; signatures are banded
    into ``bands`` bands of ``num_perm // bands`` rows.  Candidates are
    records sharing at least one band bucket, ranked by how many signature
    components agree (``num_perm`` × the estimated Jaccard similarity).

    Parameter guidance (see docs/BLOCKING.md): more bands → higher recall
    at lower precision; :meth:`collision_probability` gives the exact
    retrieval curve for a target Jaccard similarity.
    """

    name = "lsh"

    def __init__(self, seed: int = 0, num_perm: int = 32, bands: int = 16,
                 char_ngrams: Optional[int] = None):
        if num_perm < 1 or bands < 1 or num_perm % bands:
            raise ValueError("num_perm must be a positive multiple of bands")
        if char_ngrams is not None and char_ngrams < 1:
            raise ValueError("char_ngrams must be >= 1")
        self.num_perm = int(num_perm)
        self.rows_per_band = int(num_perm // bands)
        self.char_ngrams = char_ngrams
        self.row_width = self.num_perm
        rng = np.random.default_rng(seed)
        # Odd multipliers < 2^63 and additive offsets for multiply-shift.
        self._mult = rng.integers(1, 1 << 62, size=num_perm,
                                  dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        self._offset = rng.integers(0, 1 << 62, size=num_perm, dtype=np.uint64)
        super().__init__(seed=seed, bands=bands)

    def collision_probability(self, similarity: float) -> float:
        """P(bucket collision) at Jaccard similarity ``similarity``."""
        return collision_probability(similarity, self.rows_per_band, self.bands)

    def index_params(self) -> Dict[str, object]:
        return {"seed": self.seed, "num_perm": self.num_perm,
                "bands": self.bands, "char_ngrams": self.char_ngrams}

    # -- signatures -----------------------------------------------------
    def _shingle_hashes(self, entity: Entity) -> np.ndarray:
        text = entity.text()
        if self.char_ngrams is None:
            shingles = set(tokenize(text))
        else:
            joined = " ".join(tokenize(text))
            n = self.char_ngrams
            shingles = {joined[i:i + n] for i in range(max(len(joined) - n + 1, 0))}
        if not shingles:
            return np.zeros(0, dtype=np.uint64)
        return np.array([token_hash(s) for s in sorted(shingles)],
                        dtype=np.uint64)

    def _row_batch(self, entities: Sequence[Entity]) -> np.ndarray:
        hash_arrays = [self._shingle_hashes(e) for e in entities]
        lengths = np.array([len(h) for h in hash_arrays], dtype=np.int64)
        sigs = np.full((len(entities), self.num_perm), _EMPTY_SIG,
                       dtype=np.uint64)
        # (T, P) multiply-shift values; uint64 arithmetic wraps mod 2^64.
        vals = (np.concatenate(hash_arrays)[:, None] * self._mult
                + self._offset) >> np.uint64(33)
        # One minimum per non-empty record, over its own segment of vals.
        nonempty = lengths > 0
        sigs[nonempty] = np.minimum.reduceat(
            vals, (np.cumsum(lengths) - lengths)[nonempty], axis=0)
        return sigs

    def _band_values(self, rows: np.ndarray) -> np.ndarray:
        r = self.rows_per_band
        chunks = rows.reshape(len(rows), self.bands, r)
        folded = chunks[:, :, 0] ^ _FNV_OFFSET
        folded *= _FNV_PRIME
        for i in range(1, r):
            folded ^= chunks[:, :, i]
            folded *= _FNV_PRIME
        return folded

    def _agreement(self, rows: np.ndarray, qrow: np.ndarray) -> np.ndarray:
        # Equal components as bool bytes, counted a word at a time: the
        # widest unsigned word (<= 8 bytes) that divides the row width.
        width = min(self.num_perm & -self.num_perm, 8)
        equal = (rows == qrow).view(np.dtype(f"u{width}"))
        return np.einsum("ij->i", np.bitwise_count(equal).astype(np.int64))

