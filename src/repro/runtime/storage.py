"""File-backed stable storage with synchronous durability.

A log is one file, ``wal.log``: frames ::

    [payload length u32 | crc32(payload) u32 | pickle((key, record))]

(little-endian) from its first byte, then zeros up to a multiple of
``_SEGMENT`` bytes.  The zeros are written, durably, when a segment is
made -- when the log is created, when it grows and when it is
compacted -- so a frame overwrites blocks the file already owns.  The
descriptor is opened ``O_DSYNC``: an append is one ``pwrite`` of its
frames at :attr:`~FileLog.log_bytes`, durable when it returns, and
since it changes neither the file's size nor its extents it costs the
disk's write and no filesystem journal commit -- one causal log of the
paper at the disk's floor, however many stores it carries.
A delete writes a *tombstone* -- the same frame with ``None`` for the
record -- so a truncated key cannot resurface after a crash.  Reading
the log back, the last frame of a key wins.  Records are serialized
with :mod:`pickle` (library-internal data only; nothing here parses
untrusted input).

A log may have many owners -- a live cluster's nodes share one, each
under its own key prefix ``"<pid>/"`` (the idiom of :meth:`~repro.
protocol.base.StableView.scoped`) -- so storage comes in two halves.
The *file* half, :class:`FileLog`, is one per file: :meth:`~FileLog.
append`, :meth:`~FileLog.unlink_file`, :meth:`~FileLog.compact_file`
and :meth:`~FileLog.scan_files` run when the host's queue
(:attr:`~FileLog.jobs`) reaches them, one at a time, as they share
the log's end.  The *memory* half, :class:`LogView`, is one per owner:
:meth:`~LogView.apply_store`, :meth:`~LogView.apply_delete` and
:meth:`~LogView.adopt` run as the completion of a job that landed, so
the view shows a record only once it is durable.  A store's frame is
encoded by :func:`encode_frame` when it is queued.
:class:`FileStableStorage` is a log with one owner and no prefix: its
``store``, ``delete`` and ``reload_from_disk`` are the two halves back
to back.

A frame that does not fit in the zeros left makes room first.  When
dead frames -- overwritten records, tombstones and what they removed --
outnumber live ones, the log is compacted: the live frames and fresh
zeros are written to ``wal.new`` through an ``O_DSYNC`` descriptor,
which is renamed over ``wal.log`` (the only rename left) before the
directory is fsynced, so a crash at any step leaves either the old log
or the new one, both complete.
Otherwise the file grows by one segment of zeros.  Recovery's read-back
stays within about twice the live frames, or one segment.

Startup is quarantine-and-continue.  A zero length ends the log: the
zeros behind it are the segment, not data.  The last append may have
crashed before it was durable and was therefore never acknowledged: a
frame running past the end of the file, or one whose checksum fails
with nothing but zeros behind it.  Its bytes are zeroed, durably,
before anything is written at its offset.  A frame whose checksum
fails with more frames behind it is skipped, counted in
``records_quarantined`` and logged instead of aborting recovery, and
the log is rewritten without it.  Non-zero bytes dropped either way are
first copied aside as ``wal.<n>.corrupt``; a leftover ``wal.new`` is
deleted.  Losing a single local record is a fault the protocols
already tolerate -- they never rely on one copy of anything -- so
refusing to start would turn a recoverable storage fault into a
permanent crash.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import StorageError

_LOG = "wal.log"
_NEW = "wal.new"
_HEADER = struct.Struct("<II")

#: The log file is zero-filled to a multiple of this many bytes.
_SEGMENT = 64 * 1024

logger = logging.getLogger(__name__)


def encode_frame(key: str, record: Optional[Tuple[Any, ...]]) -> bytes:
    """``key``'s log frame; ``record`` ``None`` is its tombstone."""
    payload = pickle.dumps((key, record))
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _segments(size: int) -> int:
    """``size`` bytes rounded up to whole segments, at least one."""
    return max(_SEGMENT, -(-size // _SEGMENT) * _SEGMENT)


def _pwrite_all(fd: int, data: bytes, at: int) -> None:
    done = os.pwrite(fd, data, at)
    while done < len(data):
        done += os.pwrite(fd, memoryview(data)[done:], at + done)


class FileLog:
    """The file half: the log at ``root``, opened by :meth:`scan_files`."""

    _fd = -1  # so close() is safe on an instance whose __init__ raised

    def __init__(self, root: Path):
        self._root = Path(root)
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create storage dir {self._root}: {exc}")
        # The log's descriptor, the live frame of every key a replay
        # would yield, the log's length in frames and bytes, and the
        # file's.  Owned by whoever runs the file halves; the counters
        # are read from anywhere.
        self._durable: Dict[str, bytes] = {}
        self.log_records = 0
        self.log_bytes = 0
        self._size = 0
        self.records_quarantined = 0
        #: The host's queue of file halves, ``(done, job, args)`` in
        #: issue order; the live node drains it (``RuntimeNode._drain``).
        self.jobs: List[tuple] = []

    def close(self) -> None:
        """Close the log.  Everything acknowledged is already on disk."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    __del__ = close

    def scan_files(self) -> Dict[str, Tuple[Any, ...]]:
        """Replay the log and leave it ready for writes: every owner's records."""
        self.close()
        path = self._root / _LOG
        durable = self._durable
        durable.clear()
        records: Dict[str, Tuple[Any, ...]] = {}
        frames = skipped = pos = 0
        try:
            (self._root / _NEW).unlink(missing_ok=True)  # compaction that crashed
            created = not path.exists()
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_DSYNC, 0o644)
            if created:
                self._sync_dir()
            data = path.read_bytes()
            size = len(data)
            used = len(data.rstrip(b"\0"))  # zeros from here on
            view = memoryview(data)
            while pos < used and size - pos >= _HEADER.size:
                length, crc = _HEADER.unpack_from(view, pos)
                start = pos + _HEADER.size
                end = start + length
                if length == 0 or end > size:
                    break
                payload = view[start:end]
                if zlib.crc32(payload) != crc:
                    if end >= used:
                        break  # the torn last store
                    self._set_aside(view[pos:end], f"checksum mismatch at byte {pos}")
                    skipped += 1
                else:
                    key, record = pickle.loads(payload)
                    frames += 1
                    if record is None:
                        durable.pop(key, None)
                        records.pop(key, None)
                    else:
                        durable[key] = bytes(view[pos:end])
                        records[key] = record
                pos = end
            self.log_records, self.log_bytes, self._size = frames, pos, size
            self.records_quarantined += skipped
            if pos < used:
                self._set_aside(view[pos:used], f"torn store at byte {pos}")
            segments = _segments(size)
            if skipped:
                self._rewrite()
            elif pos < used or size != segments:
                # Zero the torn store and fill the last segment.
                start = pos if pos < used else size
                _pwrite_all(self._fd, bytes(segments - start), start)
                self._size = segments
        except OSError as exc:
            raise StorageError(f"cannot load {path}: {exc}")
        return records

    def _set_aside(self, junk: memoryview, why: str) -> None:
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

    def append(self, frames: List[Tuple[str, bytes]]) -> None:
        """Put stores' ``(key, encode_frame(key, ...))`` on disk, in order.

        One ``O_DSYNC`` write for all of them: durable when it returns.
        """
        self._append(b"".join(frame for _, frame in frames), [key for key, _ in frames], "store")
        self._durable.update(frames)

    def _append(self, data: bytes, keys: List[str], what: str) -> None:
        while self.log_bytes + len(data) > self._size:
            self._make_room()
        at = self.log_bytes
        try:
            _pwrite_all(self._fd, data, at)
        except OSError as exc:
            # Part of the frames may be in the file, and the next frame
            # goes to the same offset: were it shorter, the rest of these
            # would be read back as frames behind it.
            try:
                _pwrite_all(self._fd, bytes(len(data)), at)
            except OSError:
                pass
            raise StorageError(f"{what} of {', '.join(map(repr, keys))} failed: {exc}")
        self.log_records += len(keys)
        self.log_bytes = at + len(data)

    def _make_room(self) -> None:
        """Compact the log if dead frames outnumber live ones, else grow it."""
        frames = self.log_records
        if (frames - len(self._durable)) * 2 > frames:
            self.compact_file()
            return
        try:
            _pwrite_all(self._fd, bytes(_SEGMENT), self._size)
        except OSError as exc:
            raise StorageError(f"growing {self._root / _LOG} failed: {exc}")
        self._size += _SEGMENT

    def unlink_file(self, key: str) -> None:
        """Remove ``key`` from the log, durably like :meth:`append`.

        The tombstone is durable, so a truncated record cannot resurface
        after a crash.  A key the log does not hold costs nothing.
        """
        if key in self._durable:
            self._append(encode_frame(key, None), [key], "delete")
            del self._durable[key]

    def compact_file(self) -> None:
        """Rewrite the log as exactly its live frames, if it has dead ones."""
        if self.log_records > len(self._durable):
            try:
                self._rewrite()
            except OSError as exc:
                raise StorageError(f"compaction of {self._root / _LOG} failed: {exc}")

    def _rewrite(self) -> None:
        new = self._root / _NEW
        log = b"".join(self._durable.values())
        size = _segments(len(log))
        fd = os.open(new, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_DSYNC, 0o644)
        try:
            _pwrite_all(fd, log + bytes(size - len(log)), 0)
            os.replace(new, self._root / _LOG)
        except OSError:
            os.close(fd)
            raise
        # The descriptor followed the rename: it is the log now.
        os.close(self._fd)
        self._fd = fd
        self.log_records, self.log_bytes, self._size = len(self._durable), len(log), size
        self._sync_dir()


class LogView:
    """The memory half: one owner's records, logged under ``prefix``, held without it."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._records: Dict[str, Tuple[Any, ...]] = {}
        self.stores_completed = 0
        self.bytes_logged = 0
        #: Stores queued and never written: their owner crashed first.
        self.stores_lost_to_crash = 0

    @property
    def records(self) -> Dict[str, Tuple[Any, ...]]:
        """In-memory view of the durable records (kept in sync)."""
        return self._records

    def adopt(self, records: Dict[str, Tuple[Any, ...]]) -> None:
        """Make this owner's share of ``records`` (a scan's) the view.

        In place: the host's :class:`~repro.protocol.base.StableView`
        holds this dictionary for the life of the process.
        """
        prefix, cut = self.prefix, len(self.prefix)
        self._records.clear()
        self._records.update(
            (key[cut:], record) for key, record in records.items() if key.startswith(prefix)
        )

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
        return 0 if record is None else len(pickle.dumps((self.prefix + key, record)))


class FileStableStorage(FileLog, LogView):
    """A log with one owner: both halves of durable storage at ``root``."""

    def __init__(self, root: Path):
        FileLog.__init__(self, root)
        LogView.__init__(self)
        self.reload_from_disk()

    def store(self, key: str, record: Tuple[Any, ...], size: int) -> None:
        """Synchronously persist ``record`` under ``key``.

        Returns only once the bytes are on disk: the ``store``
        primitive of the model.
        """
        self.append([(key, encode_frame(key, record))])
        self.apply_store(key, record, size)

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
