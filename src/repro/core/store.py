"""Crash-safe persistence: the on-disk proof store and the run journal.

The batch layer's alpha-equivalence cache (:mod:`repro.core.cache`) is worth
38-80x on warm workloads and, until this module, died with the coordinating
process — a SIGKILLed nightly campaign restarted from zero.  This module is
the durability tier under it, plus the checkpoint journal the campaign
drivers use for ``--resume``.

Both artifacts share one **append-only record framing**:

.. code-block:: text

    file   := header record*
    header := b"SLPSTORE" version:u16le kind:u16le           (12 bytes)
    record := magic:4 length:u32le crc32:u32le digest:16 payload

* ``magic`` (``b"\\xabRC1"``) makes records *resynchronisable*: after a bad
  region, scanning forward for the next magic that heads a CRC-valid record
  distinguishes a torn tail (nothing valid follows — truncate) from mid-file
  corruption (valid records follow — quarantine and rebuild).
* ``crc32`` covers the payload, so a flipped bit is detected rather than
  deserialised.
* ``digest`` is a 16-byte key fingerprint, letting :class:`ProofStore` build
  its key index on open *without* unpickling a single payload.
* ``length`` is sanity-capped; a corrupted length cannot make the scanner
  allocate gigabytes or walk off the file.

**Recovery state machine** (``open()`` → usable store, never an exception
for file damage):

1. missing file → create (header only);
2. unreadable / wrong-magic / wrong-kind header → quarantine the file
   (rename to ``<path>.corrupt-N``) and start fresh;
3. scan records; all valid → done;
4. damage with **no** valid record after it → torn tail: truncate to the end
   of the last valid record (the classic crash-mid-append);
5. damage **with** valid records after it → mid-file corruption: quarantine
   the damaged file and rebuild a fresh one from every salvaged record.

**Concurrency**: writers hold an exclusive ``fcntl.flock`` on a sidecar
``<path>.lock`` file (stable across the rename games above); readers take it
shared while scanning appended tails.  Several ``slp`` processes can
therefore share one store: each sees the others' appends on its next refresh,
and recovery/compaction are serialised.  On platforms without :mod:`fcntl`
the locks degrade to no-ops (single-process use stays correct).

**Durability**: every append, truncation and rebuild is ``fsync``\\ ed before
it counts as done.

**Compaction**: updated keys leave dead records behind; when the dead ratio
passes :data:`COMPACT_DEAD_RATIO` the store rewrites live records into a temp
file and atomically ``os.replace``\\ s it over the old one.

**Chaos**: a :class:`~repro.core.faults.DiskFaultPlan` (or the
``SLP_DISK_FAULT_PLAN`` environment variable) disturbs appends with
deterministic torn writes, bit flips and ENOSPC — the recovery paths above
are exercised by the fault suite on every CI run, not once a year by a power
cut.
"""

from __future__ import annotations

import errno
import hashlib
import io
import os
import pickle
import struct
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.faults import DiskFaultPlan, DiskFaultSpec, InjectedDiskFault

try:  # pragma: no cover - import guard exercised only on exotic platforms
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "JournalMismatch",
    "ProofStore",
    "RunJournal",
    "StoreStatistics",
]

_HEADER_MAGIC = b"SLPSTORE"
_HEADER_STRUCT = struct.Struct("<8sHH")  # magic, format version, file kind
_HEADER_SIZE = _HEADER_STRUCT.size
_FORMAT_VERSION = 1

_KIND_PROOF_STORE = 1
_KIND_RUN_JOURNAL = 2

_RECORD_MAGIC = b"\xabRC1"
_FRAME_STRUCT = struct.Struct("<4sII16s")  # magic, payload length, crc32, key digest
_FRAME_SIZE = _FRAME_STRUCT.size

#: Sanity cap on a single record's payload: a corrupted length field must not
#: make the scanner allocate unbounded memory.  Proof-cache entries are a few
#: KB; 64 MB is orders of magnitude of headroom.
_MAX_PAYLOAD = 64 * 1024 * 1024

#: Compaction thresholds: a :meth:`ProofStore.put` that leaves at least
#: ``COMPACT_MIN_RECORDS`` records, of which at least ``COMPACT_DEAD_RATIO``
#: are superseded, rewrites the store.  Read when used, so a test can
#: monkeypatch them.
COMPACT_DEAD_RATIO = 0.5
COMPACT_MIN_RECORDS = 64


class JournalMismatch(ValueError):
    """A ``--resume`` journal belongs to a different run configuration."""


def _key_digest(key: Any) -> bytes:
    """A stable 16-byte fingerprint of a canonical cache key.

    ``repr`` of the key (nested tuples of ints and strings) is deterministic
    across processes and Python versions in a way pickled bytes are not
    (pickle memoisation depends on object identity).  The digest is only an
    index accelerator — :meth:`ProofStore.get` verifies the full key stored
    in the payload, so a collision degrades to a miss, never a wrong answer.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).digest()[:16]


def _frame(payload: bytes, digest: bytes) -> bytes:
    return (
        _FRAME_STRUCT.pack(_RECORD_MAGIC, len(payload), zlib.crc32(payload), digest)
        + payload
    )


def _parse_frame(data: bytes, offset: int) -> Optional[Tuple[bytes, bytes, int]]:
    """Parse one record at ``offset`` of ``data``.

    Returns ``(digest, payload, end_offset)`` or ``None`` when no valid
    record starts there (bad magic, insane length, short read, CRC mismatch).
    """
    end = offset + _FRAME_SIZE
    if end > len(data):
        return None
    magic, length, crc, digest = _FRAME_STRUCT.unpack_from(data, offset)
    if magic != _RECORD_MAGIC or length > _MAX_PAYLOAD:
        return None
    payload_end = end + length
    if payload_end > len(data):
        return None
    payload = data[end:payload_end]
    if zlib.crc32(payload) != crc:
        return None
    return digest, payload, payload_end


def _find_valid_record_after(data: bytes, start: int) -> bool:
    """Is there any CRC-valid record strictly after ``start``?

    Distinguishes a torn tail (no) from mid-file corruption (yes).  The
    search is a byte scan for the record magic; each candidate is fully
    validated, so garbage that merely contains the magic bytes does not count.
    """
    position = data.find(_RECORD_MAGIC, start + 1)
    while position != -1:
        if _parse_frame(data, position) is not None:
            return True
        position = data.find(_RECORD_MAGIC, position + 1)
    return False


class _ScanResult:
    """Everything one pass over a record file learns."""

    def __init__(self) -> None:
        self.records: List[Tuple[bytes, int, int, bytes]] = []  # digest, offset, end, payload
        self.end_offset: int = _HEADER_SIZE  # end of the last valid record
        self.damage_offset: Optional[int] = None
        self.corrupt_midfile: bool = False


def _scan(data: bytes) -> _ScanResult:
    """Walk ``data`` (header already validated) record by record."""
    result = _ScanResult()
    offset = _HEADER_SIZE
    while offset < len(data):
        parsed = _parse_frame(data, offset)
        if parsed is None:
            result.damage_offset = offset
            result.corrupt_midfile = _find_valid_record_after(data, offset)
            break
        digest, payload, end = parsed
        result.records.append((digest, offset, end, payload))
        offset = end
    result.end_offset = offset
    return result


class _FileLock:
    """Advisory lock on a sidecar file, surviving renames of the data file."""

    def __init__(self, path: str):
        self.path = path
        self._fd: Optional[int] = None

    def _handle(self) -> Optional[int]:
        if fcntl is None:
            return None
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        return self._fd

    def acquire(self, exclusive: bool) -> None:
        fd = self._handle()
        if fd is not None:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)

    def release(self) -> None:
        if fcntl is not None and self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None


class _Locked:
    """``with store._locked(exclusive):`` — scoped advisory locking."""

    def __init__(self, lock: _FileLock, exclusive: bool):
        self._lock = lock
        self._exclusive = exclusive

    def __enter__(self) -> None:
        self._lock.acquire(self._exclusive)

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class StoreStatistics:
    """Counters a record file accumulates over its lifetime (one process)."""

    def __init__(self) -> None:
        self.appends = 0
        self.append_errors = 0
        self.reads = 0
        self.read_errors = 0
        self.decode_errors = 0
        self.torn_truncations = 0
        self.quarantines = 0
        self.compactions = 0
        self.refreshes = 0

    def to_json(self) -> Dict[str, int]:
        return dict(self.__dict__)


class _RecordFile:
    """The shared append-only framed file under both artifacts.

    Subclasses fix the header ``kind`` and interpret payloads; this class
    owns opening, recovery, locking, appending, refreshing and fault
    injection.  All damage handling happens here so the "never raises on a
    damaged file" property is one implementation, tested once, inherited by
    both the proof store and the run journal.
    """

    _FILE_KIND = 0  # subclasses override

    def __init__(
        self,
        path: str,
        fault_plan: Optional[DiskFaultPlan] = None,
    ):
        self.path = path
        self.statistics = StoreStatistics()
        self._fault_plan = fault_plan if fault_plan is not None else DiskFaultPlan.from_env()
        self._operation = 0  # append counter the fault plan indexes
        self._lock = _FileLock(path + ".lock")
        self._fd: Optional[io.BufferedRandom] = None
        self._ino: Optional[int] = None
        self._offset = _HEADER_SIZE
        self._broken = False  # a torn write "killed" this handle (chaos mode)
        self._closed = False
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with _Locked(self._lock, exclusive=True):
            self._open_and_recover()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Flush and release the file handle and the lock (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._fd is not None:
            try:
                self._fd.flush()
                os.fsync(self._fd.fileno())
            except (OSError, ValueError):
                pass
            try:
                self._fd.close()
            except OSError:
                pass
            self._fd = None
        self._lock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- opening and recovery (exclusive lock held) ------------------------
    def _header_bytes(self) -> bytes:
        return _HEADER_STRUCT.pack(_HEADER_MAGIC, _FORMAT_VERSION, self._FILE_KIND)

    def _create_fresh(self) -> None:
        fd = open(self.path, "w+b")
        fd.write(self._header_bytes())
        fd.flush()
        os.fsync(fd.fileno())
        self._adopt(fd, _HEADER_SIZE)
        self._on_reset()

    def _adopt(self, fd: io.BufferedRandom, offset: int) -> None:
        if self._fd is not None and self._fd is not fd:
            try:
                self._fd.close()
            except OSError:
                pass
        self._fd = fd
        self._ino = os.fstat(fd.fileno()).st_ino
        self._offset = offset

    def _quarantine(self) -> str:
        """Rename the damaged file aside (first free ``<path>.corrupt-N``)."""
        number = 0
        while True:
            candidate = "{}.corrupt-{}".format(self.path, number)
            if not os.path.exists(candidate):
                break
            number += 1
        os.replace(self.path, candidate)
        self.statistics.quarantines += 1
        return candidate

    def _open_and_recover(self) -> None:
        """Open ``self.path``, repairing or quarantining damage as needed."""
        if not os.path.exists(self.path):
            self._create_fresh()
            return
        try:
            fd = open(self.path, "r+b")
        except OSError:
            # Unreadable file (permissions churn, stale directory entry):
            # move it aside and start fresh rather than crash the prover.
            try:
                self._quarantine()
            except OSError:
                pass
            self._create_fresh()
            return
        data = fd.read()
        header_ok = len(data) >= _HEADER_SIZE and data[:_HEADER_SIZE] == self._header_bytes()
        if not header_ok:
            fd.close()
            self._quarantine()
            self._create_fresh()
            return
        scan = _scan(data)
        if scan.damage_offset is None:
            self._load(fd, scan)
            return
        if not scan.corrupt_midfile:
            # Torn tail: everything before the damage is intact; cut the tear.
            fd.truncate(scan.damage_offset)
            fd.flush()
            os.fsync(fd.fileno())
            self.statistics.torn_truncations += 1
            self._load(fd, scan)
            return
        # Mid-file corruption: salvage every valid record (before *and* after
        # the damage — resync via the record magic), rebuild a fresh file.
        salvaged = list(scan.records)
        position = scan.damage_offset + 1
        while True:
            position = data.find(_RECORD_MAGIC, position)
            if position == -1:
                break
            parsed = _parse_frame(data, position)
            if parsed is None:
                position += 1
                continue
            digest, payload, end = parsed
            salvaged.append((digest, position, end, payload))
            position = end
        fd.close()
        self._quarantine()
        rebuilt = open(self.path, "w+b")
        rebuilt.write(self._header_bytes())
        self._on_reset()
        offset = _HEADER_SIZE
        for digest, _, _, payload in salvaged:
            framed = _frame(payload, digest)
            rebuilt.write(framed)
            self._on_record(digest, offset, offset + len(framed), payload)
            offset += len(framed)
        rebuilt.flush()
        os.fsync(rebuilt.fileno())
        self._adopt(rebuilt, offset)

    def _load(self, fd: io.BufferedRandom, scan: _ScanResult) -> None:
        """Adopt ``fd`` and rebuild the in-memory view from ``scan``'s
        records; appends go after the last of them."""
        self._adopt(fd, scan.end_offset)
        self._on_reset()
        for digest, offset, end, payload in scan.records:
            self._on_record(digest, offset, end, payload)

    # -- subclass hooks ----------------------------------------------------
    def _on_reset(self) -> None:
        """The in-memory view is being rebuilt from scratch."""

    def _on_record(self, digest: bytes, offset: int, end: int, payload: bytes) -> None:
        """One valid record was observed at ``[offset, end)``."""

    # -- refreshing (sees other processes' appends) ------------------------
    def _refresh_locked(self) -> None:
        """Fold in whatever changed on disk since our last look.

        Read-only: damage observed here (e.g. another process is mid-append)
        is *not* repaired — repair belongs to ``open()`` under an exclusive
        lock; the refresh simply stops at the last valid record and retries
        on the next call.
        """
        assert self._fd is not None
        try:
            stat = os.stat(self.path)
        except OSError:
            return
        if stat.st_ino != self._ino:
            # The file was compacted or rebuilt under us; re-read it whole.
            try:
                fd = open(self.path, "r+b")
            except OSError:
                return
            data = fd.read()
            if len(data) < _HEADER_SIZE or data[:_HEADER_SIZE] != self._header_bytes():
                fd.close()
                return
            self._load(fd, _scan(data))
            self.statistics.refreshes += 1
            return
        if stat.st_size <= self._offset:
            return
        self._fd.seek(self._offset)
        tail = self._fd.read(stat.st_size - self._offset)
        offset = 0
        while offset < len(tail):
            parsed = _parse_frame(tail, offset)
            if parsed is None:
                break
            digest, payload, end = parsed
            self._on_record(
                digest, self._offset + offset, self._offset + end, payload
            )
            offset = end
        self._offset += offset
        self.statistics.refreshes += 1

    def refresh(self) -> None:
        """Pick up records other processes appended since the last look."""
        if self._fd is None or self._broken:
            return
        with _Locked(self._lock, exclusive=False):
            self._refresh_locked()

    # -- appending ---------------------------------------------------------
    def _append_locked(self, digest: bytes, payload: bytes) -> Tuple[int, int]:
        """Append one framed record at EOF; returns its ``(offset, end)``.

        Raises ``OSError`` on failure (injected or real).  A *real* partial
        write is repaired by truncating back to the pre-append offset; an
        injected torn write deliberately leaves the tear and marks this
        handle broken — simulating the process dying mid-write, which is the
        scenario the next ``open()`` must recover from.
        """
        assert self._fd is not None
        self._refresh_locked()  # appends go after everyone else's records
        framed = _frame(payload, digest)
        spec = self._next_fault()
        start = self._offset
        if spec is not None and spec.kind == "enospc":
            self.statistics.append_errors += 1
            raise InjectedDiskFault(errno.ENOSPC, "injected disk-full on append")
        if spec is not None and spec.kind == "bitflip":
            rng = self._fault_plan.corruption_rng(self._operation - 1)
            position = rng.randrange(len(framed))
            flipped = bytearray(framed)
            flipped[position] ^= 1 << rng.randrange(8)
            framed = bytes(flipped)
        if spec is not None and spec.kind == "torn":
            cut = max(1, min(len(framed) - 1, int(len(framed) * spec.fraction)))
            self._fd.seek(start)
            self._fd.write(framed[:cut])
            self._fd.flush()
            self._broken = True  # this handle is "dead"; recovery is open()'s job
            self.statistics.append_errors += 1
            raise InjectedDiskFault(errno.EIO, "injected torn write (handle now dead)")
        try:
            self._fd.seek(start)
            self._fd.write(framed)
            self._fd.flush()
            os.fsync(self._fd.fileno())
        except OSError:
            self.statistics.append_errors += 1
            try:  # undo the partial append so the file stays clean
                self._fd.truncate(start)
            except OSError:
                self._broken = True  # cannot even repair: stop writing
            raise
        self._offset = start + len(framed)
        self.statistics.appends += 1
        return start, self._offset

    def _next_fault(self) -> Optional[DiskFaultSpec]:
        operation = self._operation
        self._operation += 1
        if self._fault_plan is None:
            return None
        return self._fault_plan.fault_at(operation)

    def _read_payload(self, offset: int, end: int) -> Optional[bytes]:
        """Re-read and re-verify one record's payload (bit rot surfaces here)."""
        if self._fd is None:
            return None
        try:
            self._fd.seek(offset)
            raw = self._fd.read(end - offset)
        except OSError:
            self.statistics.read_errors += 1
            return None
        parsed = _parse_frame(raw, 0)
        if parsed is None:
            self.statistics.read_errors += 1
            return None
        self.statistics.reads += 1
        return parsed[1]

    @property
    def broken(self) -> bool:
        """True when an (injected) torn write retired this handle."""
        return self._broken


# ---------------------------------------------------------------------------
# The proof store.
# ---------------------------------------------------------------------------


class ProofStore(_RecordFile):
    """The on-disk tier of the proof cache: canonical key -> pickled entry.

    Payloads are pickles of ``(key, verdict_value, proof, counterexample,
    statistics)`` in the *canonical* vocabulary (``c1..cn``), exactly what
    the in-memory cache stores — so a disk hit renames back the same way a
    memory hit does and callers cannot tell them apart.  The key index maps
    16-byte key digests to record extents; lookups verify the full key after
    unpickling, so digest collisions are misses, never wrong answers.

    ``get``/``put`` never raise for file damage: unreadable or undecodable
    records count as misses (with counters), append failures propagate as
    ``OSError`` for the caching tier to swallow.  The store is usable from
    several processes at once (advisory locking; see the module docstring).
    """

    _FILE_KIND = _KIND_PROOF_STORE

    def __init__(self, path: str, fault_plan: Optional[DiskFaultPlan] = None):
        self._index: Dict[bytes, Tuple[int, int]] = {}
        self._records = 0
        super().__init__(path, fault_plan=fault_plan)

    # -- framing hooks -----------------------------------------------------
    def _on_reset(self) -> None:
        self._index = {}
        self._records = 0

    def _on_record(self, digest: bytes, offset: int, end: int, payload: bytes) -> None:
        self._index[digest] = (offset, end)  # later records win (append-only updates)
        self._records += 1

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    @property
    def dead_records(self) -> int:
        return self._records - len(self._index)

    # -- lookup / store ----------------------------------------------------
    def get(self, key: Any) -> Optional[Tuple[Any, ...]]:
        """The stored ``(verdict_value, proof, counterexample, statistics)``
        tuple for ``key``, or ``None``.

        A miss against the in-memory index triggers one refresh (another
        process may have appended the entry since we last looked) before
        giving up.  Damaged or undecodable records are misses.
        """
        if self._broken:
            return None
        digest = _key_digest(key)
        location = self._index.get(digest)
        if location is None:
            self.refresh()
            location = self._index.get(digest)
            if location is None:
                return None
        payload = self._read_payload(*location)
        if payload is None:
            return None
        try:
            stored = pickle.loads(payload)
            stored_key, verdict_value, proof, counterexample, statistics = stored
        except Exception:
            self.statistics.decode_errors += 1
            return None
        if stored_key != key:  # digest collision: a miss, never a wrong answer
            return None
        return verdict_value, proof, counterexample, statistics

    def put(
        self,
        key: Any,
        verdict_value: str,
        proof: Any,
        counterexample: Any,
        statistics: Any,
    ) -> None:
        """Append one entry (raises ``OSError`` on write failure)."""
        if self._broken:
            raise InjectedDiskFault(errno.EIO, "store handle retired by a torn write")
        payload = pickle.dumps(
            (key, verdict_value, proof, counterexample, statistics),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = _key_digest(key)
        with _Locked(self._lock, exclusive=True):
            offset, end = self._append_locked(digest, payload)
            self._on_record(digest, offset, end, payload)  # supersedes older records
            if (
                self._records >= COMPACT_MIN_RECORDS
                and self.dead_records / self._records >= COMPACT_DEAD_RATIO
            ):
                self._compact_locked()

    # -- compaction --------------------------------------------------------
    def compact(self) -> None:
        """Rewrite the store with only live records (atomic replace)."""
        if self._fd is None or self._broken:
            return
        with _Locked(self._lock, exclusive=True):
            self._refresh_locked()
            self._compact_locked()

    def _compact_locked(self) -> None:
        assert self._fd is not None
        live: List[Tuple[bytes, bytes]] = []
        for digest, (offset, end) in sorted(self._index.items(), key=lambda kv: kv[1]):
            payload = self._read_payload(offset, end)
            if payload is not None:
                live.append((digest, payload))
        temp_path = self.path + ".compact"
        try:
            with open(temp_path, "wb") as temp:
                temp.write(self._header_bytes())
                for digest, payload in live:
                    temp.write(_frame(payload, digest))
                temp.flush()
                os.fsync(temp.fileno())
            os.replace(temp_path, self.path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return  # compaction is an optimisation; failing it is not an error
        fd = open(self.path, "r+b")
        self._adopt(fd, _HEADER_SIZE)
        self._on_reset()
        offset = _HEADER_SIZE
        for digest, payload in live:
            end = offset + _FRAME_SIZE + len(payload)
            self._on_record(digest, offset, end, payload)
            offset = end
        self._offset = offset
        self.statistics.compactions += 1


# ---------------------------------------------------------------------------
# The run journal.
# ---------------------------------------------------------------------------


def _json_payload(record: Dict[str, Any]) -> bytes:
    import json

    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _json_load(payload: bytes) -> Optional[Dict[str, Any]]:
    import json

    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return decoded if isinstance(decoded, dict) else None


class RunJournal(_RecordFile):
    """The campaign checkpoint log: one JSON record per completed unit of work.

    The first record is the run's **metadata** (seed, workload digest,
    options); :meth:`open_run` validates it on resume so a journal can never
    silently replay into a differently-configured campaign.  Subsequent
    records are task completions appended as they happen — after a SIGKILL,
    whatever was journaled is exactly what ``--resume`` skips.

    Records that fail to decode as JSON objects are dropped (counted), which
    composes with the framing-level recovery: a journal truncated at *any*
    byte offset replays to a prefix of its records.
    """

    _FILE_KIND = _KIND_RUN_JOURNAL

    def __init__(self, path: str, fault_plan: Optional[DiskFaultPlan] = None):
        self._entries: List[Dict[str, Any]] = []
        super().__init__(path, fault_plan=fault_plan)

    def _on_reset(self) -> None:
        self._entries = []

    def _on_record(self, digest: bytes, offset: int, end: int, payload: bytes) -> None:
        record = _json_load(payload)
        if record is None:
            self.statistics.decode_errors += 1
            return
        self._entries.append(record)

    @property
    def entries(self) -> List[Dict[str, Any]]:
        """Every decoded record, in append order (metadata first)."""
        return list(self._entries)

    def append(self, record: Dict[str, Any]) -> None:
        """Journal one record (raises ``OSError`` on write failure)."""
        if self._broken:
            raise InjectedDiskFault(errno.EIO, "journal handle retired by a torn write")
        payload = _json_payload(record)
        digest = hashlib.sha256(payload).digest()[:16]
        with _Locked(self._lock, exclusive=True):
            self._append_locked(digest, payload)
        self._entries.append(record)

    # -- the campaign-facing API -------------------------------------------
    @classmethod
    def open_run(
        cls,
        path: str,
        meta: Dict[str, Any],
        resume: bool,
        fault_plan: Optional[DiskFaultPlan] = None,
    ) -> Tuple["RunJournal", List[Dict[str, Any]]]:
        """Open (or start) a checkpointed run; returns ``(journal, completed)``.

        A fresh run writes ``meta`` as the first record and returns no
        completions.  A resumed run validates the journaled metadata against
        ``meta`` — any difference raises :class:`JournalMismatch`, because
        replaying completions into a different workload would corrupt the
        report — and returns the completed-task records.  Starting a fresh
        run over an existing journal with completions also raises (pass
        ``resume=True`` or use a new directory; silently discarding finished
        work would be worse than either).
        """
        journal = cls(path, fault_plan=fault_plan)
        entries = journal.entries
        if not resume:
            if entries:
                journal.close()
                raise JournalMismatch(
                    "{}: journal already holds {} record(s); resume it or use a "
                    "fresh run directory".format(path, len(entries))
                )
            journal.append({"t": "meta", **meta})
            return journal, []
        if not entries:
            # Resuming a run that never journaled anything (killed before the
            # meta record survived) degrades to a fresh run.
            journal.append({"t": "meta", **meta})
            return journal, []
        head, completed = entries[0], entries[1:]
        journaled_meta = {k: v for k, v in head.items() if k != "t"}
        if head.get("t") != "meta" or journaled_meta != meta:
            journal.close()
            raise JournalMismatch(
                "{}: journal belongs to a different run (journaled {!r}, "
                "requested {!r})".format(path, journaled_meta, meta)
            )
        return journal, completed

    def tasks(self) -> Iterator[Dict[str, Any]]:
        """Every journaled record after the metadata head."""
        for record in self._entries:
            if record.get("t") != "meta":
                yield record
