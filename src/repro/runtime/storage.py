"""File-backed stable storage with synchronous durability.

Each node keeps one append-only log, ``wal.log``, opened once with
``O_APPEND``.  A store appends one frame ::

    [payload length u32 | crc32(payload) u32 | pickle((key, record))]

(little-endian) and calls ``fdatasync``: one write and one journal
commit per causal log of the paper.
A delete appends a *tombstone* -- the same frame with ``None`` for the
record -- so a truncated key cannot resurface after a crash.  Reading
the log back, the last frame of a key wins.  Records are serialized
with :mod:`pickle` (library-internal data only; nothing here parses
untrusted input).

Every mutation comes in two halves, so a host can keep the disk off its
event loop: the *file* half (:meth:`~FileStableStorage.write_file`,
:meth:`~FileStableStorage.unlink_file`, :meth:`~FileStableStorage.
compact_file`, :meth:`~FileStableStorage.scan_files`) touches only the
directory and the file-side bookkeeping and may run on a storage
thread; the *memory* half (:meth:`~FileStableStorage.apply_store`,
:meth:`~FileStableStorage.apply_delete`, :meth:`~FileStableStorage.
adopt`) updates the in-memory view and counters and belongs to the
thread that reads them.  :meth:`~FileStableStorage.store`,
:meth:`~FileStableStorage.delete` and :meth:`~FileStableStorage.
reload_from_disk` are the two halves back to back.  File halves of one
directory must not overlap: they share the log's end.

Compaction rewrites the live records to ``wal.new``, fsyncs it and
renames it over ``wal.log`` (the only rename left), so a crash at any
step leaves either the old log or the new one, both complete.  A log
is worth compacting (:attr:`~FileStableStorage.compactable`) when dead
frames -- overwritten records, tombstones and what they removed --
outnumber live ones and it holds at least ``_COMPACT_MIN`` frames,
which bounds recovery's read-back to about twice the live records.

Startup is quarantine-and-continue.  A tail that does not parse -- a
short header, a frame running past the end of the file -- is a store
that crashed before it was durable and was therefore never
acknowledged: the file is cut back to the last good frame before
anything is appended behind it.  A frame in the middle whose checksum
fails is skipped, counted in ``records_quarantined`` and logged instead
of aborting recovery, and the log is rewritten without it.  Bytes
dropped either way are first copied aside as ``wal.<n>.corrupt``; a
leftover ``wal.new`` is deleted.  Losing a single local record is a
fault the protocols already tolerate -- they never rely on one copy of
anything -- so refusing to start would turn a recoverable storage fault
into a permanent crash.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import StorageError

_LOG = "wal.log"
_NEW = "wal.new"
_HEADER = struct.Struct("<II")

#: Minimum frames in the log before dead ones trigger a compaction.
_COMPACT_MIN = 64

logger = logging.getLogger(__name__)


def _frame(key: str, record: Optional[Tuple[Any, ...]]) -> bytes:
    """One log frame; ``record`` ``None`` is ``key``'s tombstone."""
    payload = pickle.dumps((key, record))
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class FileStableStorage:
    """Durable key-record storage rooted at a directory."""

    _fd = -1  # so close() is safe on an instance whose __init__ raised

    def __init__(self, root: Path):
        self._root = Path(root)
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create storage dir {self._root}: {exc}")
        self._records: Dict[str, Tuple[Any, ...]] = {}
        # File side: the log's descriptor, what replaying it would
        # yield, and its length in frames and bytes.  Owned by whoever
        # runs the file halves; the counters are read from anywhere.
        self._durable: Dict[str, Tuple[Any, ...]] = {}
        self.log_records = 0
        self.log_bytes = 0
        self.records_quarantined = 0
        self.reload_from_disk()
        self.stores_completed = 0
        self.bytes_logged = 0

    def close(self) -> None:
        """Close the log.  Everything acknowledged is already on disk."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    __del__ = close

    @property
    def records(self) -> Dict[str, Tuple[Any, ...]]:
        """In-memory view of the durable records (kept in sync)."""
        return self._records

    @property
    def compactable(self) -> bool:
        """Whether dead frames outnumber live ones in a log worth rewriting."""
        frames = self.log_records
        return frames >= _COMPACT_MIN and (frames - len(self._durable)) * 2 > frames

    # -- file half -------------------------------------------------------------

    def scan_files(self) -> Dict[str, Tuple[Any, ...]]:
        """Replay the log and leave it ready for appends (file half of a reload)."""
        self.close()
        path = self._root / _LOG
        durable = self._durable
        durable.clear()
        frames = skipped = pos = 0
        try:
            (self._root / _NEW).unlink(missing_ok=True)  # compaction that crashed
            created = not path.exists()
            self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            if created:
                self._sync_dir()
            data = memoryview(path.read_bytes())
            size = len(data)
            while size - pos >= _HEADER.size:
                length, crc = _HEADER.unpack_from(data, pos)
                start = pos + _HEADER.size
                end = start + length
                # No frame is empty; a zero length is a zero-filled tail.
                if length == 0 or end > size:
                    break
                payload = data[start:end]
                if zlib.crc32(payload) != crc:
                    self._set_aside(data[pos:end], f"checksum mismatch at byte {pos}")
                    skipped += 1
                else:
                    key, record = pickle.loads(payload)
                    frames += 1
                    if record is None:
                        durable.pop(key, None)
                    else:
                        durable[key] = record
                pos = end
            self.log_records, self.log_bytes = frames, pos
            self.records_quarantined += skipped
            if pos < size:
                self._set_aside(data[pos:], f"unparsable tail at byte {pos}")
                os.ftruncate(self._fd, pos)
            if skipped:
                self._rewrite()
        except OSError as exc:
            raise StorageError(f"cannot load {path}: {exc}")
        return dict(durable)

    def _set_aside(self, junk: bytes, why: str) -> None:
        """Keep bytes the log is about to lose, and keep starting up."""
        n = 0
        while (target := self._root / f"wal.{n}.corrupt").exists():
            n += 1
        try:
            target.write_bytes(junk)
            saved = f"saved as {target.name}"
        except OSError as exc:
            saved = f"not saved ({exc})"  # recovery matters more
        logger.warning(
            "dropped %d bytes of %s (%s), %s; recovery continues without them",
            len(junk), self._root / _LOG, why, saved,
        )

    def _sync_dir(self) -> None:
        dir_fd = os.open(self._root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def _append(self, key: str, record: Optional[Tuple[Any, ...]]) -> None:
        frame = _frame(key, record)
        try:
            _write_all(self._fd, frame)
            os.fdatasync(self._fd)
        except OSError as exc:
            # Part of the frame may be in the file; a later append
            # behind it would be unreachable when the log is replayed.
            try:
                os.ftruncate(self._fd, self.log_bytes)
            except OSError:
                pass
            what = "delete" if record is None else "store"
            raise StorageError(f"{what} of {key!r} failed: {exc}")
        self.log_records += 1
        self.log_bytes += len(frame)

    def write_file(self, key: str, record: Tuple[Any, ...]) -> None:
        """Put ``record`` on disk: one appended frame + ``fdatasync``."""
        self._append(key, record)
        self._durable[key] = record

    def unlink_file(self, key: str) -> None:
        """Remove ``key`` from the log, durably like :meth:`write_file`.

        The tombstone is synced, so a truncated record cannot resurface
        after a crash.  A key the log does not hold costs nothing.
        """
        if key in self._durable:
            self._append(key, None)
            del self._durable[key]

    def compact_file(self) -> None:
        """Rewrite the log as exactly its live records, if it has dead frames."""
        if self.log_records > len(self._durable):
            try:
                self._rewrite()
            except OSError as exc:
                raise StorageError(f"compaction of {self._root / _LOG} failed: {exc}")

    def _rewrite(self) -> None:
        new = self._root / _NEW
        log = b"".join(_frame(key, record) for key, record in self._durable.items())
        fd = os.open(new, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            _write_all(fd, log)
            os.fsync(fd)
            os.replace(new, self._root / _LOG)
        except OSError:
            os.close(fd)
            raise
        # The descriptor followed the rename: it is the log now.
        os.close(self._fd)
        self._fd = fd
        self.log_records, self.log_bytes = len(self._durable), len(log)
        self._sync_dir()

    # -- memory half -----------------------------------------------------------

    def adopt(self, records: Dict[str, Tuple[Any, ...]]) -> None:
        """Make ``records`` the in-memory view (memory half of a reload).

        In place: the host's :class:`~repro.protocol.base.StableView`
        holds this dictionary for the life of the process.
        """
        self._records.clear()
        self._records.update(records)

    def apply_store(self, key: str, record: Tuple[Any, ...], size: int) -> None:
        """Account a store whose frame is on disk (``size`` is billed bytes)."""
        self._records[key] = record
        self.stores_completed += 1
        self.bytes_logged += size

    def apply_delete(self, key: str) -> None:
        """Drop ``key`` from the in-memory view."""
        self._records.pop(key, None)

    def retrieve(self, key: str) -> Optional[Tuple[Any, ...]]:
        """Read the last durable record under ``key`` (or ``None``)."""
        return self._records.get(key)

    def record_size(self, key: str) -> int:
        """Bytes of the live record under ``key`` on disk (0 if absent)."""
        record = self._records.get(key)
        return 0 if record is None else len(pickle.dumps((key, record)))

    # -- both halves, back to back ---------------------------------------------

    def store(self, key: str, record: Tuple[Any, ...], size: int) -> None:
        """Synchronously persist ``record`` under ``key``.

        Returns only once the bytes are on disk: the ``store``
        primitive of the model.
        """
        self.write_file(key, record)
        self.apply_store(key, record, size)
        if self.compactable:
            self.compact_file()

    def delete(self, key: str) -> None:
        """Remove the record under ``key`` (checkpoint truncation).

        Deleting a missing key is a no-op.
        """
        self.apply_delete(key)
        self.unlink_file(key)

    def reload_from_disk(self) -> None:
        """Drop the in-memory view and re-read the log.

        Used by crash emulation: a "recovering" node must see exactly
        what is durable, not what its previous incarnation cached.
        """
        self.adopt(self.scan_files())
