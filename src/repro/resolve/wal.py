"""Crash-safe write-ahead log for the incremental cluster store.

The log is a directory of segment files.  Entries append to the active
``wal-<index>.open`` file (one CRC32-framed JSON line per entry, flushed
once per commit through one handle kept open while the segment is
active; :meth:`WriteAheadLog.commit_many` writes a group of entries with
one flush);
when a segment reaches ``segment_entries`` entries it is *published* —
atomically renamed to ``wal-<index>.seg`` via ``os.replace``, the same
tmp-then-replace discipline as ``repro.store``.
A reader therefore only ever sees either a fully published segment or
the single active file whose tail may be torn by a crash.

Entry framing is ``"<crc32:08x> <json>"`` with the JSON serialized with
sorted keys, so the byte stream for a given entry sequence is unique and
a resumed run that logs the same decisions produces bitwise-identical
segments.  :meth:`WriteAheadLog.replay` validates every checksum; on the
first torn or corrupt entry it truncates the log back to the last valid
entry (rewriting the damaged file through a ``*.tmp.<pid>`` sibling and
deleting everything after it), counts the repair in
``COUNTERS.wal_truncations``, and returns the surviving prefix.

Segments are numbered from the highest index on disk, so a log whose
oldest segments were compacted away keeps appending after its tail.

The directory also holds at most one **checkpoint** file
(``resolver.ckpt``, which the segment scan ignores): a CRC-checked
snapshot of whatever state its writer passes, plus a *watermark* — the
last segment the snapshot covers.  :meth:`WriteAheadLog.write_checkpoint`
streams it to a ``*.tmp.<pid>`` sibling and publishes it with
``os.replace``; only then does :meth:`WriteAheadLog.compact` delete the
covered segments, and :meth:`WriteAheadLog.replay` skips any segment at
or below a watermark, so a crash at any point leaves a consistent
(checkpoint, tail) pair.

Fault site ``resolve.wal`` fires once per entry, also inside a group
commit: ``transient``
faults are absorbed by retry-with-backoff, ``kill`` simulates dying
before the entry reached disk (the lost suffix is re-offered on resume),
and ``corrupt`` writes a torn line so the reader-side truncation path is
exercised, per the :mod:`repro.reliability.faults` contract.  Fault site
``resolve.checkpoint`` fires once per checkpoint write, with the body on
disk and the trailer not yet written: ``kill`` leaves an unpublished tmp
file, and ``corrupt`` tears the tmp file and abandons it.  Fault site
``resolve.compact`` fires before each covered segment is deleted:
``kill`` leaves covered segments on disk (replay skips them, the next
compaction deletes them), and ``corrupt`` tears the covered segment
instead of deleting it, which replay must never read.
"""

from __future__ import annotations

import itertools
import json
import os
import weakref
import zlib
from typing import IO, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.reliability import RetryPolicy, fault_point, retry_with_backoff
from repro.reliability.counters import COUNTERS
from repro.reliability.faults import CorruptDataFault
from repro.reliability.locks import named_lock

#: Published (immutable) segment suffix.
SEGMENT_SUFFIX = ".seg"
#: Active (appendable, possibly torn-tailed) segment suffix.
OPEN_SUFFIX = ".open"
#: The checkpoint file (no segment suffix, so the scan ignores it).
CHECKPOINT_NAME = "resolver.ckpt"
_CHECKPOINT_MAGIC = b"repro-resolve-checkpoint 1\n"
#: Trailer: CRC32 of every byte before it, as ``"<crc32:08x>\n"``.
_TRAILER_BYTES = 9
#: List items serialized per ``json.dumps`` call while streaming a part.
_JSON_CHUNK = 2048


def _segment_index(path: str) -> int:
    """The ``<index>`` of a ``wal-<index>.seg``/``.open`` path."""
    return int(os.path.basename(path)[4:].split(".", 1)[0])


def encode_entry(entry: Dict[str, object]) -> str:
    """One log line: CRC32 of the canonical JSON payload, then the payload."""
    payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


def decode_entry(line: str) -> Optional[Dict[str, object]]:
    """Parse one log line; ``None`` for a torn or corrupt line."""
    if len(line) < 10 or line[8] != " ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    try:
        decoded = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return decoded if isinstance(decoded, dict) else None


class WriteAheadLog:
    """Append-only CRC-framed log with atomic segment publication.

    File IO serializes behind the dedicated ``resolve.wal.io`` lock
    (R009: a ``*.io`` lock exists precisely to keep disk writes off the
    hot state locks); the ``resolve.wal`` fault point fires outside it.
    """

    def __init__(self, directory: str, segment_entries: int = 256,
                 retry_policy: RetryPolicy = RetryPolicy()):
        if segment_entries < 1:
            raise ValueError(
                f"segment_entries must be >= 1, got {segment_entries}")
        self.directory = directory
        self.segment_entries = int(segment_entries)
        self.retry_policy = retry_policy
        self._io = named_lock("resolve.wal.io")
        #: Append handle on the active segment; its finalizer closes it
        #: when the log is closed, published or abandoned (a log left
        #: behind after a ``kill`` fault leaks no file).
        self._handle: Optional[IO[str]] = None
        self._handle_finalizer: Optional[weakref.finalize] = None
        self._next_index = 0
        os.makedirs(directory, exist_ok=True)
        with self._io:
            self._scan()

    # -- directory state -----------------------------------------------
    def _scan(self) -> None:
        """Adopt the on-disk state: published segments, active file, tmps."""
        self._close_handle()
        published: List[str] = []
        open_files: List[str] = []
        for name in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, name)
            if ".tmp." in name:
                # A crashed truncation repair left its scratch file behind;
                # the original it meant to replace is still intact.
                os.remove(path)
            elif name.endswith(SEGMENT_SUFFIX):
                published.append(path)
            elif name.endswith(OPEN_SUFFIX):
                open_files.append(path)
        self._segments = published
        self._open_path = open_files[-1] if open_files else None
        self._open_count = 0
        if self._open_path is not None:
            with open(self._open_path, "r", encoding="utf-8") as fh:
                self._open_count = sum(1 for _ in fh)
        # Number on from the highest name on disk, so a new segment sorts
        # after the tail when a compaction deleted the oldest ones, and
        # never below a number handed out before (a truncation repair
        # may have deleted the newest).
        self._next_index = max(
            [self._next_index]
            + [_segment_index(path) + 1 for path in published + open_files])

    def _paths(self) -> List[str]:
        """Every log file in entry order (published first, then active)."""
        paths = list(self._segments)
        if self._open_path is not None:
            paths.append(self._open_path)
        return paths

    @property
    def segments(self) -> Tuple[str, ...]:
        """Published (immutable) segment paths, in order."""
        with self._io:
            return tuple(self._segments)

    def entry_count(self) -> int:
        with self._io:
            total = self._open_count
            for path in self._segments:
                with open(path, "r", encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
            return total

    # -- append ---------------------------------------------------------
    def commit(self, entry: Dict[str, object]) -> None:
        """Durably append one entry (flushed before returning)."""
        self.commit_many([entry])

    def commit_many(self, entries: Iterable[Dict[str, object]]) -> None:
        """Durably append ``entries`` in order with one write and one
        flush (group commit).

        The ``resolve.wal`` fault point fires once per entry, in order,
        so the bytes on disk are those of one :meth:`commit` per entry:
        ``transient`` faults retry that entry, ``kill`` propagates with
        the entries before it written and flushed and none after it (the
        killed entry is simply lost, like a real pre-write crash), and
        ``corrupt`` tears that entry's line so replay must truncate.
        """
        lines: List[str] = []
        try:
            for entry in entries:
                line = encode_entry(entry)
                kind = retry_with_backoff(
                    lambda: fault_point("resolve.wal"),
                    policy=self.retry_policy, description="WAL append")
                lines.append(line[:len(line) // 2] if kind == "corrupt"
                             else line)
        finally:
            if lines:
                retry_with_backoff(lambda: self._write_lines(lines),
                                   policy=self.retry_policy,
                                   description="WAL append")

    def _write_lines(self, lines: List[str]) -> None:
        with self._io:
            for line in lines:
                if self._open_path is None:
                    self._open_path = os.path.join(
                        self.directory,
                        f"wal-{self._next_index:08d}{OPEN_SUFFIX}")
                    self._next_index += 1
                    self._open_count = 0
                if self._handle is None:
                    self._handle = open(self._open_path, "a",
                                        encoding="utf-8")
                    self._handle_finalizer = weakref.finalize(
                        self, self._handle.close)
                self._handle.write(line + "\n")
                self._open_count += 1
                if self._open_count >= self.segment_entries:
                    self._publish_open()   # closing the handle flushes it
            if self._handle is not None:
                self._handle.flush()

    def _publish_open(self) -> None:
        """Atomically promote the active file to an immutable segment."""
        self._close_handle()
        final = self._open_path[:-len(OPEN_SUFFIX)] + SEGMENT_SUFFIX
        os.replace(self._open_path, final)
        self._segments.append(final)
        self._open_path = None
        self._open_count = 0

    def close(self) -> int:
        """Publish a non-empty active segment so a clean log is all ``.seg``.

        An empty active file is deleted.  Returns the watermark that
        covers every entry committed so far: the index of the last
        segment published (-1 for a log that never had one).
        """
        with self._io:
            if self._open_path is not None:
                if self._open_count > 0:
                    self._publish_open()
                else:
                    self._close_handle()
                    os.remove(self._open_path)
                    self._open_path = None
            self._close_handle()
            return self._next_index - 1

    def _close_handle(self) -> None:
        if self._handle_finalizer is not None:
            self._handle_finalizer()  # closes the handle, once
        self._handle = None
        self._handle_finalizer = None

    # -- replay ---------------------------------------------------------
    def replay(self, after: int = -1) -> List[Dict[str, object]]:
        """Read every entry of the segments numbered above ``after``;
        truncate at the first invalid one.

        ``after`` is a checkpoint's watermark: the segments it covers are
        never read, even if a crash left them on disk.  Returns the valid
        prefix.  A detected torn/corrupt entry repairs the log in place —
        the damaged file is rewritten to its valid prefix through a tmp +
        ``os.replace``, later files are deleted — and increments
        ``COUNTERS.wal_truncations`` exactly once.
        """
        truncated = False
        with self._io:
            entries: List[Dict[str, object]] = []
            paths = [path for path in self._paths()
                     if _segment_index(path) > after]
            for position, path in enumerate(paths):
                with open(path, "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                valid: List[str] = []
                bad = False
                for line in lines:
                    entry = decode_entry(line)
                    if entry is None:
                        bad = True
                        break
                    valid.append(line)
                    entries.append(entry)
                if bad:
                    truncated = True
                    self._truncate_at(paths, position, valid)
                    break
        if truncated:
            COUNTERS.increment("wal_truncations")
        return entries

    def _truncate_at(self, paths: List[str], position: int,
                     valid_lines: List[str]) -> None:
        """Repair: keep ``valid_lines`` of ``paths[position]``, drop the rest."""
        damaged = paths[position]
        for path in paths[position + 1:]:
            os.remove(path)
        if valid_lines:
            tmp = f"{damaged}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                for line in valid_lines:
                    fh.write(line + "\n")
            os.replace(tmp, damaged)
        else:
            os.remove(damaged)
        self._scan()

    # -- checkpoint and compaction ----------------------------------------
    def write_checkpoint(self, parts: List[Tuple[str, object]]) -> bool:
        """Stream ``parts`` to the checkpoint file and publish it atomically.

        Each part is a dict (one JSON line), a ``uint64`` array (raw
        little-endian bytes), or a callable returning an iterable (one
        JSON array line, serialized a chunk at a time so no whole-file
        blob is built; a ``transient`` retry calls it again).  Returns
        False when an injected ``corrupt`` fault tore the tmp file, which
        is then left unpublished.
        """
        path = os.path.join(self.directory, CHECKPOINT_NAME)
        tmp = f"{path}.tmp.{os.getpid()}"
        manifest = [[name, "array", list(value.shape)]
                    if isinstance(value, np.ndarray) else [name, "json"]
                    for name, value in parts]

        def attempt() -> bool:
            crc = 0
            with open(tmp, "wb") as fh:
                def emit(data) -> None:
                    nonlocal crc
                    crc = zlib.crc32(data, crc)
                    fh.write(data)

                emit(_CHECKPOINT_MAGIC)
                emit(_json_line(manifest))
                for _, value in parts:
                    if isinstance(value, np.ndarray):
                        emit(np.ascontiguousarray(value, dtype="<u8")
                             .reshape(-1).view(np.uint8))
                    elif isinstance(value, dict):
                        emit(_json_line(value))
                    else:
                        _emit_json_array(emit, value())
                if fault_point("resolve.checkpoint") == "corrupt":
                    fh.truncate(fh.tell() // 2)
                    return False
                fh.write(f"{crc:08x}\n".encode("ascii"))
            os.replace(tmp, path)
            return True

        return retry_with_backoff(attempt, policy=self.retry_policy,
                                  description="WAL checkpoint")

    def read_checkpoint(self) -> Optional[Dict[str, object]]:
        """The published checkpoint's parts (None if there is none).

        The CRC over the whole file is checked before any part is
        parsed: a damaged checkpoint raises
        :class:`~repro.reliability.faults.CorruptDataFault` naming the
        file and is never loaded partially.
        """
        path = os.path.join(self.directory, CHECKPOINT_NAME)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        end = len(data) - _TRAILER_BYTES
        try:
            crc = int(data[end:end + 8], 16)
        except ValueError:
            crc = None
        if (end < len(_CHECKPOINT_MAGIC)
                or not data.startswith(_CHECKPOINT_MAGIC)
                or data[-1:] != b"\n"
                or crc != zlib.crc32(memoryview(data)[:end])):
            raise CorruptDataFault(
                f"checkpoint {path} failed its CRC check; refusing to "
                f"load it")
        offset = len(_CHECKPOINT_MAGIC)

        def json_line():
            nonlocal offset
            stop = data.index(b"\n", offset, end)
            value = json.loads(data[offset:stop])
            offset = stop + 1
            return value

        parts: Dict[str, object] = {}
        for spec in json_line():
            name, kind = spec[0], spec[1]
            if kind == "array":
                shape = tuple(spec[2])
                count = int(np.prod(shape))
                parts[name] = np.frombuffer(
                    data, dtype="<u8", count=count,
                    offset=offset).reshape(shape)
                offset += 8 * count
            else:
                parts[name] = json_line()
        return parts

    def compact(self, watermark: int) -> None:
        """Delete the published segments at or below ``watermark``.

        Call only once a checkpoint covering them is published.  Also
        raises the next segment number above the watermark, so a log
        compacted to nothing never reuses a covered number.
        """
        with self._io:
            self._next_index = max(self._next_index, watermark + 1)
            covered = [path for path in self._segments
                       if _segment_index(path) <= watermark]
        for path in covered:
            kind = retry_with_backoff(
                lambda: fault_point("resolve.compact"),
                policy=self.retry_policy, description="WAL compaction")
            with self._io:
                if kind == "corrupt":
                    with open(path, "r+b") as fh:
                        fh.truncate(os.path.getsize(path) // 2)
                    continue
                os.remove(path)
                self._segments.remove(path)


def _json_line(value) -> bytes:
    return (json.dumps(value, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def _emit_json_array(emit: Callable[[bytes], None],
                     items: Iterable[object]) -> None:
    """Write ``items`` as one JSON array line, a chunk at a time."""
    emit(b"[")
    iterator = iter(items)
    first = True
    while True:
        chunk = list(itertools.islice(iterator, _JSON_CHUNK))
        if not chunk:
            break
        text = json.dumps(chunk, separators=(",", ":"))[1:-1]
        emit((text if first else "," + text).encode("utf-8"))
        first = False
    emit(b"]\n")
