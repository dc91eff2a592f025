"""The offline embedding store: frozen-encoder record embeddings on disk.

``repro embed`` materializes the frozen-encoder half of a fitted HierGAT —
the per-record WpC token embeddings plus the per-attribute summary vectors
— into memory-mapped ``.npy`` shards, so online requests skip straight to
the pair-level GAT head (see :class:`repro.store.scorer.StoreBackedScorer`
and ``HierGATNetwork.head_from_wpc``).

Layout of a store directory::

    manifest.json        dtype, dim, weights digest, checksums, row index
    shard-0000.npy       stacked WpC rows (total_tokens, dim), store dtype
    attrs-0000.npy       attribute summaries (records, K, dim), float32

Every record-slot occupies a contiguous row block in its shard; the
manifest maps ``stable_record_key(entity)`` to ``(shard, [offset, length]
per slot, scale per slot, attrs row)``.  Records are stored at their *true*
token length — mask-based positional encodings (see
``repro.nn.transformer.PositionalEncoding``) make the encoder outputs
width-invariant, so stored rows can be replayed into padded batches of any
width without changing any valid value.

Consistency and failure handling:

* **Staleness** — the manifest records a digest of the network weights and
  reads are keyed by :func:`repro.perf.cache.params_version`: the moment
  any optimizer step or ``load_state_dict`` bumps the version, every
  ``get`` misses (counted as ``stale_misses``) until the store is rebuilt
  and re-bound (R005: weight-derived artifacts thread the version).
* **Corruption** — shard files carry CRC32 checksums verified on first
  open; a damaged shard (fault site ``store.read``) is quarantined and all
  of its records fall through to the live encoder, counted in
  ``StoreStats.corrupt_shards`` / ``COUNTERS.store_corrupt_shards``.
* **Partial writes** — every file is written to a ``*.tmp.<pid>`` sibling
  and published with ``os.replace`` (fault site ``store.build`` sits
  between the two), so a build killed mid-write leaves no visible shard;
  leftovers are discarded (``COUNTERS.store_build_discards``) by the next
  build and a re-run of ``repro embed`` completes the store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.autograd import no_grad
from repro.matchers.encoding import pad_sequences
from repro.perf.cache import get_cache, instance_token, params_version
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import fault_point
from repro.reliability.retry import retry_with_backoff
from repro.store.quant import STORE_DTYPES, dequantize, quantize, quantized_matmul

MANIFEST_NAME = "manifest.json"
#: Records per shard file; small by production standards, but the point is
#: exercising the multi-shard paths at CI scale.
DEFAULT_SHARD_SIZE = 256
#: Records stacked into one encoder call by :func:`encode_records`.  Batching
#: is where the build's speed comes from; the bound keeps its peak memory
#: flat (stacking a 600-record store at once costs ~50 MB more RSS).
ENCODE_CHUNK = 64


class StoreBuildError(RuntimeError):
    """Raised when a store build produces an inconsistent artifact."""


class _Quarantined(Exception):
    """A record's shard failed its checksum: the record falls through live."""


def store_cache():
    """The bounded LRU fronting shard reads (perf cache registry name ``store``)."""
    return get_cache("store")


def stable_record_key(entity) -> str:
    """Process-independent record identity: uid + digest of attribute text.

    The store outlives processes, so its keys digest the full attribute
    payload rather than use Python's salted ``hash()``.
    """
    payload = repr(entity.attributes).encode("utf-8")
    return f"{entity.uid}:{hashlib.sha1(payload).hexdigest()[:16]}"


def weights_digest(network) -> str:
    """Digest of every network parameter — the store's staleness fingerprint."""
    digest = hashlib.sha1()
    state = network.state_dict()
    for name in sorted(state):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(state[name]).tobytes())
    return digest.hexdigest()


@dataclasses.dataclass
class StoredRecord:
    """One record's precomputed encoder outputs, dequantized to float32.

    ``wpc[k]`` is the ``(true_length_k, dim)`` WpC block of attribute slot
    ``k``; ``attrs`` stacks the K attribute summary vectors ``(K, dim)``.
    """

    wpc: List[np.ndarray]
    attrs: np.ndarray


def is_record(value, slots: int) -> bool:
    """Cache-entry check: a :class:`StoredRecord` with ``slots`` slots, not a
    poisoned or mangled payload (``LRUCache.get_or_compute``'s ``validate``)."""
    return (isinstance(value, StoredRecord) and len(value.wpc) == slots
            and isinstance(value.attrs, np.ndarray)
            and value.attrs.shape[0] == slots)


@dataclasses.dataclass
class StoreStats:
    """Per-store serving counters (reported by ``InferenceService.stats``).

    Counts are per lookup.  A missed record is encoded live only once per
    scorer and weights version however often it is looked up; that count
    is ``StoreBackedScorer.live_fallbacks``.
    """

    #: Lookups served from the store (shard read or fronting LRU).
    hits: int = 0
    #: Lookups of records absent from the store.
    misses: int = 0
    #: Misses caused by a quarantined (checksum-failed) shard.
    corrupt_misses: int = 0
    #: Misses because the weights moved past the built ``params_version``.
    stale_misses: int = 0
    #: Distinct shards quarantined after checksum failure.
    corrupt_shards: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


def encode_records(network, encoder, entities: Sequence,
                   num_attributes: int) -> List[StoredRecord]:
    """Run the frozen-encoder half for many records, each at true length.

    A record's padded width is its longest slot, exactly the width its K
    slots would pad to on their own.  Records are grouped by that width
    and each group is stacked, at most :data:`ENCODE_CHUNK` records at a
    time, into one ``(K·B, W)`` batch: one encoder and one summarizer call
    per chunk.  Each slot's WpC block is then cut back to its true length.

    This is both the offline build path (:func:`build_store`) *and*, with
    one record, the online store-miss fallback (:func:`encode_record`).
    In float32 store mode a hit therefore returns exactly the bytes a miss
    computes, for two reasons: every record is encoded at its own width
    whatever batch it lands in, and the rows of a batch are independent
    (every encoder and summarizer op is per sequence, so a row's values
    do not depend on which rows share its batch).  ``tests/test_store.py``
    pins both against a per-record reference.
    """
    sequences = [[encoder.attribute_ids(entity, k) for k in range(num_attributes)]
                 for entity in entities]
    by_width: Dict[int, List[int]] = {}
    for i, slots in enumerate(sequences):
        by_width.setdefault(max(len(seq) for seq in slots), []).append(i)
    records: List[Optional[StoredRecord]] = [None] * len(sequences)
    with no_grad():
        network.eval()
        for members in by_width.values():
            for start in range(0, len(members), ENCODE_CHUNK):
                chunk = members[start:start + ENCODE_CHUNK]
                ids, mask = pad_sequences(
                    [seq for i in chunk for seq in sequences[i]],
                    encoder.vocab.pad_id)
                wpc = network.encode_record_slot(ids, mask)
                attrs = network.summarizer(wpc, mask).data
                for row, i in enumerate(chunk):
                    base = row * num_attributes
                    records[i] = StoredRecord(
                        wpc=[np.array(wpc.data[base + k, :len(seq)],
                                      dtype=np.float32)
                             for k, seq in enumerate(sequences[i])],
                        attrs=np.array(attrs[base:base + num_attributes],
                                       dtype=np.float32))
    return records


def encode_record(network, encoder, entity, num_attributes: int) -> StoredRecord:
    """:func:`encode_records` for one record (the live store-miss path)."""
    return encode_records(network, encoder, [entity], num_attributes)[0]


# ----------------------------------------------------------------------
# Atomic file publication (the ``store.build`` fault site)
# ----------------------------------------------------------------------
def _publish_bytes(directory: Path, name: str, data: bytes) -> int:
    """Write ``data`` to ``directory/name`` atomically; return its CRC32.

    The bytes land in a ``*.tmp.<pid>`` sibling first and become visible
    only through ``os.replace``.  The ``store.build`` fault site sits
    between write and rename: an injected ``kill`` leaves a partial
    artifact that no manifest ever references, and injected ``transient``
    failures are absorbed by retry-with-backoff.
    """
    path = directory / name
    tmp = directory / f"{name}.tmp.{os.getpid()}"

    def attempt() -> None:
        with open(tmp, "wb") as fh:
            fh.write(data)
        fault_point("store.build", file=name)
        os.replace(tmp, path)

    retry_with_backoff(attempt, description=f"store publish {name}")
    return zlib.crc32(data)


def _array_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _discard_partial_writes(directory: Path) -> None:
    """Remove ``*.tmp.*`` leftovers of interrupted builds (counted)."""
    for stale in directory.glob("*.tmp.*"):
        stale.unlink()
        COUNTERS.increment("store_build_discards")


def _audit_scales(index_rows, shard_array: np.ndarray,
                  probe_weight: np.ndarray, dtype: str) -> None:
    """Check persisted scale factors through the fused projection.

    The whole shard goes through ``probe_weight`` (the context
    attribute-pool projection) twice, with every row carrying its
    record-slot's scale: once fused (:func:`quantized_matmul`) and once
    dequantize-then-matmul.  The two must agree; a persisted scale that is
    not a usable factor for its rows (non-finite, say) shows up here
    before the shard is ever served.
    """
    tolerance = 1e-3 if dtype == "int8" else 1e-2
    lengths = [length for entry in index_rows for _, length in entry["rows"]]
    scales = [scale for entry in index_rows for scale in entry["scales"]]
    row_scale = np.repeat(np.asarray(scales, dtype=np.float32),
                          lengths)[:, None]
    fused = quantized_matmul(shard_array, row_scale, probe_weight)
    exact = (shard_array.astype(np.float32) * row_scale) @ probe_weight
    if not np.allclose(fused, exact, atol=tolerance, rtol=tolerance):
        raise StoreBuildError(
            f"scale audit failed for dtype {dtype!r}: fused projection "
            f"diverged from the dequantized reference")


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
def build_store(directory, matcher, entities: Iterable,
                dtype: str = "float32",
                shard_size: int = DEFAULT_SHARD_SIZE) -> "EmbeddingStore":
    """Materialize the frozen-encoder embeddings of ``entities`` on disk.

    ``matcher`` is a fitted ``HierGAT``; duplicate records (same
    :func:`stable_record_key`) are encoded once.  Returns the freshly
    built store, already bound to the matcher's network.
    """
    if dtype not in STORE_DTYPES:
        raise ValueError(f"unknown store dtype {dtype!r}; choose from {STORE_DTYPES}")
    network = matcher._network
    encoder = matcher._encoder
    num_attributes = matcher._num_attributes
    if network is None or encoder is None:
        raise RuntimeError("matcher must be fitted before building a store")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _discard_partial_writes(directory)

    unique = {}
    for entity in entities:
        unique.setdefault(stable_record_key(entity), entity)
    keys = list(unique)

    index: Dict[str, dict] = {}
    checksums: Dict[str, int] = {}
    probe = np.ascontiguousarray(network.context.attr_pool.weight.data,
                                 dtype=np.float32)
    for shard_id, start in enumerate(range(0, max(len(keys), 1), shard_size)):
        shard_keys = keys[start:start + shard_size]
        records = encode_records(network, encoder,
                                 [unique[key] for key in shard_keys],
                                 num_attributes)
        blocks: List[np.ndarray] = []
        shard_index: List[dict] = []
        offset = 0
        for row, (key, record) in enumerate(zip(shard_keys, records)):
            slot_rows, scales = [], []
            for k in range(num_attributes):
                stored, scale = quantize(record.wpc[k], dtype)
                blocks.append(stored)
                slot_rows.append([offset, stored.shape[0]])
                offset += stored.shape[0]
                scales.append(scale)
            entry = {"shard": shard_id, "rows": slot_rows,
                     "scales": scales, "attrs_row": row}
            index[key] = entry
            shard_index.append(entry)
        if blocks:
            shard_array = np.concatenate(blocks, axis=0)
            attrs_array = np.stack([r.attrs for r in records]).astype(np.float32)
        else:
            shard_array = np.zeros((0, network.dim), dtype=np.float32)
            attrs_array = np.zeros((0, num_attributes, network.dim),
                                   dtype=np.float32)
        _audit_scales(shard_index, shard_array, probe, dtype)
        shard_name = f"shard-{shard_id:04d}.npy"
        attrs_name = f"attrs-{shard_id:04d}.npy"
        checksums[shard_name] = _publish_bytes(
            directory, shard_name, _array_bytes(shard_array))
        checksums[attrs_name] = _publish_bytes(
            directory, attrs_name, _array_bytes(attrs_array))

    manifest = {
        "format": 1,
        "dtype": dtype,
        "dim": network.dim,
        "num_attributes": num_attributes,
        "records": len(keys),
        "weights_digest": weights_digest(network),
        "checksums": checksums,
        "index": index,
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    _publish_bytes(directory, MANIFEST_NAME, payload)

    store = EmbeddingStore.open(directory)
    store.bind(network)
    return store


# ----------------------------------------------------------------------
# Read side
# ----------------------------------------------------------------------
class EmbeddingStore:
    """Read-only view of a built store directory, fronted by a bounded LRU.

    ``get(entity)`` returns a :class:`StoredRecord` or ``None`` (absent /
    stale / corrupt shard) — callers fall through to the live encoder on
    ``None`` and every outcome is counted in :attr:`stats`.  The fronting
    LRU lives in the global perf-cache registry under the name ``store``;
    its keys include :func:`params_version`, so a weight bump orphans every
    cached entry along with the shards themselves.
    """

    def __init__(self, directory, manifest: dict):
        self.directory = Path(directory)
        self.manifest = manifest
        self.stats = StoreStats()
        self._arrays: Dict[str, Optional[np.ndarray]] = {}
        self._corrupt: set = set()
        self._bound_version: Optional[int] = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory) -> "EmbeddingStore":
        """Load a store's manifest; raises ``FileNotFoundError`` if absent
        (which is exactly what a build killed before manifest publication
        looks like — partial shards are invisible without it)."""
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        with open(path, "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
        return cls(directory, manifest)

    @property
    def dtype(self) -> str:
        return self.manifest["dtype"]

    @property
    def records(self) -> int:
        return self.manifest["records"]

    def __len__(self) -> int:
        return len(self.manifest["index"])

    # ------------------------------------------------------------------
    def bind(self, network) -> bool:
        """Pin the store to the current weights if the digest matches.

        Binding records the current :func:`params_version`; every ``get``
        re-checks it, so the store self-invalidates the moment training or
        a weight load bumps the version.  Returns ``False`` (store serves
        nothing) when the network's weights are not the ones the store was
        built from.
        """
        if weights_digest(network) == self.manifest["weights_digest"]:
            self._bound_version = params_version()
            return True
        self._bound_version = None
        return False

    def valid(self) -> bool:
        """True while bound weights are current (no bump since ``bind``)."""
        return (self._bound_version is not None
                and params_version() == self._bound_version)

    # ------------------------------------------------------------------
    def get(self, entity) -> Optional[StoredRecord]:
        """The record's stored embeddings, or ``None`` to fall through live."""
        if not self.valid():
            self.stats.stale_misses += 1
            return None
        key = stable_record_key(entity)
        entry = self.manifest["index"].get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        # A poisoned or invalid fronting-LRU entry (fault site
        # ``cache.entry``) is dropped and re-read from the shard.
        slots = len(entry["rows"])
        try:
            record = store_cache().get_or_compute(
                ("store", key, params_version(), instance_token(self)),
                lambda: self._read(entry),
                validate=lambda value: is_record(value, slots))
        except _Quarantined:
            self.stats.misses += 1
            self.stats.corrupt_misses += 1
            return None
        self.stats.hits += 1
        return record

    # ------------------------------------------------------------------
    def _read(self, entry: dict) -> StoredRecord:
        shard_id = entry["shard"]
        shard = self._open_verified(f"shard-{shard_id:04d}.npy")
        attrs = self._open_verified(f"attrs-{shard_id:04d}.npy")
        if shard is None or attrs is None:
            raise _Quarantined(shard_id)
        wpc: List[np.ndarray] = []
        for (offset, length), scale in zip(entry["rows"], entry["scales"]):
            block = np.array(shard[offset:offset + length])
            wpc.append(dequantize(block, float(scale)))
        attr = np.array(attrs[entry["attrs_row"]], dtype=np.float32)
        return StoredRecord(wpc=wpc, attrs=attr)

    def _open_verified(self, name: str) -> Optional[np.ndarray]:
        """Checksum-verified, memory-mapped shard (``store.read`` fault site).

        The CRC of the on-disk bytes must match the manifest before the
        file is mapped; a mismatch — real damage or an injected ``corrupt``
        fault — quarantines the shard for the store's lifetime and its
        records fall through to the live encoder.
        """
        if name in self._corrupt:
            return None
        cached = self._arrays.get(name)
        if cached is not None:
            return cached
        path = self.directory / name

        def read_crc():
            kind = fault_point("store.read", shard=name)
            crc = 0
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    crc = zlib.crc32(chunk, crc)
            return crc, kind

        crc, kind = retry_with_backoff(read_crc, description=f"store read {name}")
        if kind == "corrupt":
            # Reader-side damage per the fault contract: the bytes we just
            # summed are treated as flipped, so the checksum gate must trip.
            crc ^= 0x1
        if crc != self.manifest["checksums"][name]:
            self._corrupt.add(name)
            self.stats.corrupt_shards += 1
            COUNTERS.increment("store_corrupt_shards")
            return None
        array = np.load(path, mmap_mode="r")
        self._arrays[name] = array
        return array
