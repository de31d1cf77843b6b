"""File-backed stable storage with synchronous durability.

Each record is one file under the node's directory, written via a
temporary file + ``fsync`` + atomic rename so that a torn write can
never corrupt the previous record -- mirroring the simulator's
semantics where an in-flight store that crashes leaves the old record
intact.  Records are serialized with :mod:`pickle` (library-internal
data only; nothing here parses untrusted input).

Every mutation comes in two halves, so a host can keep the disk off its
event loop: the *file* half (:meth:`~FileStableStorage.write_file`,
:meth:`~FileStableStorage.unlink_file`, :meth:`~FileStableStorage.
scan_files`) touches only the directory and may run on a storage
thread; the *memory* half (:meth:`~FileStableStorage.apply_store`,
:meth:`~FileStableStorage.apply_delete`, :meth:`~FileStableStorage.
adopt`) updates the in-memory view and counters and belongs to the
thread that reads them.  :meth:`~FileStableStorage.store`,
:meth:`~FileStableStorage.delete` and :meth:`~FileStableStorage.
reload_from_disk` are the two halves back to back.  File halves of one
directory must not overlap: stores of one key share a temporary file.

Startup is quarantine-and-continue: leftover ``.tmp`` files (a crash
before the atomic rename) are deleted, and a record file that fails to
read or decode is renamed aside with a ``.corrupt`` extension and
logged instead of aborting recovery.  Losing a single local record is
a fault the protocols already tolerate -- they never rely on one copy
of anything -- so refusing to start would turn a recoverable storage
fault into a permanent crash.
"""

from __future__ import annotations

import logging
import os
import pickle
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import StorageError

_SUFFIX = ".rec"
_QUARANTINE_SUFFIX = ".corrupt"

logger = logging.getLogger(__name__)


class FileStableStorage:
    """Durable key-record storage rooted at a directory."""

    def __init__(self, root: Path):
        self._root = Path(root)
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create storage dir {self._root}: {exc}")
        self._records: Dict[str, Tuple[Any, ...]] = {}
        self.records_quarantined = 0
        self.reload_from_disk()
        self.stores_completed = 0
        self.bytes_logged = 0

    @property
    def records(self) -> Dict[str, Tuple[Any, ...]]:
        """In-memory view of the durable records (kept in sync)."""
        return self._records

    def _path(self, key: str) -> Path:
        # Sanitizing alone could collide two keys ("a/written" vs
        # "a_written"), which matters now that register instances
        # prefix their keys; a content hash keeps filenames unique.
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in key)
        digest = zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF
        return self._root / f"{safe}.{digest:08x}{_SUFFIX}"

    def scan_files(self) -> Dict[str, Tuple[Any, ...]]:
        """Read every record file back (file half of a reload)."""
        # A .tmp file is a store that crashed before its atomic rename;
        # the previous record (if any) is intact, the partial write is
        # garbage.
        records: Dict[str, Tuple[Any, ...]] = {}
        for tmp in self._root.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                pass
        for path in self._root.glob(f"*{_SUFFIX}"):
            try:
                with open(path, "rb") as handle:
                    key, record = pickle.load(handle)
            except (OSError, pickle.PickleError, EOFError, ValueError) as exc:
                self._quarantine(path, exc)
                continue
            records[key] = record
        return records

    def adopt(self, records: Dict[str, Tuple[Any, ...]]) -> None:
        """Make ``records`` the in-memory view (memory half of a reload).

        In place: the host's :class:`~repro.protocol.base.StableView`
        holds this dictionary for the life of the process.
        """
        self._records.clear()
        self._records.update(records)

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move an unreadable record aside and keep starting up."""
        target = path.with_name(path.name + _QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            target = path  # could not even rename; leave it in place
        self.records_quarantined += 1
        logger.warning(
            "quarantined corrupt record %s -> %s (%s); recovery continues "
            "without it", path.name, target.name, exc,
        )

    def store(self, key: str, record: Tuple[Any, ...], size: int) -> None:
        """Synchronously persist ``record`` under ``key``.

        Returns only once the bytes are on disk: the ``store``
        primitive of the model.
        """
        self.write_file(key, record)
        self.apply_store(key, record, size)

    def write_file(self, key: str, record: Tuple[Any, ...]) -> None:
        """Put ``record`` on disk: write + fsync + rename + directory fsync."""
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        payload = pickle.dumps((key, record))
        try:
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            dir_fd = os.open(self._root, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            raise StorageError(f"store of {key!r} failed: {exc}")

    def apply_store(self, key: str, record: Tuple[Any, ...], size: int) -> None:
        """Account a store whose file is on disk (``size`` is billed bytes)."""
        self._records[key] = record
        self.stores_completed += 1
        self.bytes_logged += size

    def retrieve(self, key: str) -> Optional[Tuple[Any, ...]]:
        """Read the last durable record under ``key`` (or ``None``)."""
        return self._records.get(key)

    def record_size(self, key: str) -> int:
        """Bytes of the live record under ``key`` on disk (0 if absent)."""
        record = self._records.get(key)
        return 0 if record is None else len(pickle.dumps((key, record)))

    def delete(self, key: str) -> None:
        """Remove the record under ``key`` (checkpoint truncation).

        Deleting a missing key is a no-op.
        """
        self.apply_delete(key)
        self.unlink_file(key)

    def apply_delete(self, key: str) -> None:
        """Drop ``key`` from the in-memory view."""
        self._records.pop(key, None)

    def unlink_file(self, key: str) -> None:
        """Remove ``key``'s file, durably like :meth:`write_file`.

        The unlink is followed by a directory fsync, so a truncated
        record cannot resurface after a crash.
        """
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise StorageError(f"delete of {key!r} failed: {exc}")
        dir_fd = os.open(self._root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def reload_from_disk(self) -> None:
        """Drop the in-memory view and re-read the files.

        Used by crash emulation: a "recovering" node must see exactly
        what is durable, not what its previous incarnation cached.
        """
        self.adopt(self.scan_files())
