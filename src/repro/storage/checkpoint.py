"""Two-phase checkpoint records for stable storage.

The crash-recovery protocols log ever-growing per-register state
(``writing``/``written`` records for every register instance a process
hosts), and recovery replays all of it.  A *checkpoint* bounds both:
the host periodically snapshots the durable records of its quiescent
register slots, persists the snapshot, and truncates the superseded
log entries.  Recovery then restores from snapshot + log suffix
instead of the full log (see ``docs/recovery.md``).

Torn checkpoints are the failure mode to design against: a crash while
the snapshot is being written must leave the process recoverable from
either the *old* snapshot or the *new* one, never a mix.  Following
the coordinated tentative/permanent discipline of Koo-Toueg, a
checkpoint is persisted in two phases:

1. store the snapshot under :data:`TENTATIVE_KEY`;
2. once that is durable, store the identical snapshot under
   :data:`PERMANENT_KEY`;
3. once *that* is durable, the checkpoint is committed: truncate the
   captured log entries and discard the tentative record.

Only :data:`PERMANENT_KEY` counts at recovery.  A crash between
phases leaves a stray tentative record next to the previous permanent
one; recovery ignores it (the truncations it would have justified
never happened, so the log suffix is still complete), and the next
checkpoint overwrites it.

This module owns the record format and the pure helpers; the node host
(:mod:`repro.protocol.host`) owns the sequence, and its drivers the
scheduling and the actual stores.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

Record = Tuple[Any, ...]

#: Reserved key prefix for checkpoint machinery records.  Register
#: slots never use "/" in their own key suffixes except as the
#: host-assigned register prefix, and no register may be named "ckpt".
KEY_PREFIX = "ckpt/"

#: Phase-1 snapshot record: written first, ignored at recovery.
TENTATIVE_KEY = KEY_PREFIX + "tentative"

#: Phase-2 snapshot record: the only one recovery reads.
PERMANENT_KEY = KEY_PREFIX + "permanent"

#: Billable framing bytes per snapshot record and per captured entry
#: (key, lengths, sequence number) -- same spirit as the per-record
#: overhead the protocols bill on their own stores.
SNAPSHOT_OVERHEAD = 32
ENTRY_OVERHEAD = 24


def is_checkpoint_key(key: str) -> bool:
    """Whether ``key`` belongs to the checkpoint machinery itself."""
    return key.startswith(KEY_PREFIX)


def build_snapshot_record(
    seq: int, captured: Dict[str, Record], sizes: Dict[str, int]
) -> Record:
    """Encode captured records as one storable snapshot record.

    Each entry carries the billed size of the original store so that,
    after recovery, the next checkpoint can re-bill carried-forward
    entries without the original stores.  The entry list is sorted by
    key so the record -- and therefore its billed size and every
    downstream trace -- is independent of dict iteration order.
    """
    entries = tuple(
        (key, record, sizes.get(key, 0))
        for key, record in sorted(captured.items())
    )
    return (seq, entries)


def load_snapshot(
    record: Any,
) -> Tuple[int, Dict[str, Record], Dict[str, int]]:
    """Decode a snapshot record into ``(seq, records, sizes)``.

    ``None`` (no checkpoint ever committed) decodes as sequence 0 with
    no records, so callers need no special case for first boot.
    """
    if record is None:
        return 0, {}, {}
    seq, entries = record
    records = {key: rec for key, rec, _ in entries}
    sizes = {key: size for key, _, size in entries}
    return seq, records, sizes


def snapshot_store_size(entry_sizes: Iterable[int]) -> int:
    """Billable size in bytes of storing a snapshot.

    ``entry_sizes`` are the billed sizes of the captured records (the
    hosts track what each original store cost); the snapshot pays
    those again plus per-entry and per-record framing.
    """
    total = SNAPSHOT_OVERHEAD
    for size in entry_sizes:
        total += size + ENTRY_OVERHEAD
    return total


def capturable_keys(
    keys: Iterable[str], idle_prefixes: Iterable[str]
) -> List[str]:
    """Select the live record keys a checkpoint may capture.

    A key is capturable when it belongs to a register slot that is
    *idle* (no operation in flight and recovery complete) -- captured
    as the slot's prefix -- and is not a checkpoint record itself.
    The default (anonymous) register slot uses the empty prefix, which
    owns every key without a "/" separator; named slots own keys under
    ``"<register>/"``.
    """
    prefixes = set(idle_prefixes)
    selected: List[str] = []
    for key in keys:
        if is_checkpoint_key(key):
            continue
        head, sep, _ = key.rpartition("/")
        prefix = head + sep if sep else ""
        if prefix in prefixes:
            selected.append(key)
    return selected
