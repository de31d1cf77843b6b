"""Process and operation identifiers.

Processes are numbered ``0 .. n-1``; the number doubles as the tiebreak
component of timestamps (:class:`repro.common.timestamps.Tag`).
Operations get globally unique ids so that histories, traces and the
causal-log accounting can refer to a specific operation execution even
when the same process runs many reads and writes.  An id is a named
``(pid, seq)`` tuple.
"""

from __future__ import annotations

import itertools
import threading
from typing import NamedTuple

ProcessId = int
"""A process identifier: a small non-negative integer."""


class OperationId(NamedTuple):
    """Unique id of one operation execution.

    ``pid`` is the invoking process; ``seq`` is a per-run monotonically
    increasing counter handed out by :func:`make_operation_id`.  Ids are
    ordered so they can key sorted containers deterministically.

    Ids key the hottest dicts in the engine (causal-depth tracking,
    recorder indexes, quorum rounds), so they are tuples: hashing,
    equality and ordering run in C.  The price is that an id also
    equals the plain ``(pid, seq)`` pair.
    """

    pid: ProcessId
    seq: int

    def __str__(self) -> str:
        return f"op(p{self.pid}#{self.seq})"


_COUNTER = itertools.count()
_COUNTER_LOCK = threading.Lock()


def make_operation_id(pid: ProcessId) -> OperationId:
    """Mint a fresh :class:`OperationId` for process ``pid``.

    Thread-safe: a lock keeps the counter safe whichever thread mints,
    though the simulator and the live runtime each invoke operations
    from a single thread.
    """
    with _COUNTER_LOCK:
        seq = next(_COUNTER)
    return tuple.__new__(OperationId, (pid, seq))
