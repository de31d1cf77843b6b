"""Recording histories from a live run.

The simulator's nodes (and the live runtime's nodes, on their
caller-driven selector loop) report
invocations, replies, crashes and recoveries to a
:class:`HistoryRecorder`, which timestamps and appends them to a
:class:`~repro.history.history.History`.  The recorder also keeps the
per-operation metadata that the checkers and metrics want but that does
not belong in the formal history: the tag each operation used and its
measured causal-log count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.common.ids import OperationId, ProcessId
from repro.common.timestamps import Tag
from repro.history.events import Crash, Invoke, Recover, Reply
from repro.history.history import History

_new = tuple.__new__

Clock = Callable[[], float]


@dataclass
class OperationMeta:
    """Side-channel facts about one operation (not part of the history)."""

    tag: Optional[Tag] = None
    causal_logs: Optional[int] = None
    #: Register instance the operation targeted (``None`` for the
    #: classic single-register runs); the KV layer records the key here
    #: so histories can be partitioned per register afterwards.
    register: Optional[str] = None


class HistoryRecorder:
    """Builds a :class:`History` plus per-operation metadata from a run."""

    def __init__(self, clock: Clock):
        self._clock = clock
        self.history = History()
        self.meta: Dict[OperationId, OperationMeta] = {}

    def record_invoke(
        self, op: OperationId, pid: ProcessId, kind: str, value: Any = None
    ) -> None:
        self.history.append(_new(Invoke, (self._clock(), pid, op, kind, value)))
        self._meta_of(op)

    def record_reply(
        self, op: OperationId, pid: ProcessId, kind: str, result: Any = None
    ) -> None:
        self.history.append(_new(Reply, (self._clock(), pid, op, kind, result)))

    def record_crash(self, pid: ProcessId) -> None:
        self.history.append(_new(Crash, (self._clock(), pid)))

    def record_recovery(self, pid: ProcessId) -> None:
        self.history.append(_new(Recover, (self._clock(), pid)))

    def _meta_of(self, op: OperationId) -> OperationMeta:
        """``op``'s metadata, made on first use (``setdefault`` would
        build a throwaway one on every call)."""
        meta = self.meta.get(op)
        if meta is None:
            meta = self.meta[op] = OperationMeta()
        return meta

    def record_tag(self, op: OperationId, tag: Tag) -> None:
        """Attach the tag an operation decided/returned (white-box data)."""
        self._meta_of(op).tag = tag

    def record_causal_logs(self, op: OperationId, depth: int) -> None:
        """Attach the measured causal-log count of an operation."""
        self._meta_of(op).causal_logs = depth

    def record_register(self, op: OperationId, register: Optional[str]) -> None:
        """Attach the register instance an operation targeted."""
        self._meta_of(op).register = register

    def causal_logs(self, op: OperationId) -> Optional[int]:
        meta = self.meta.get(op)
        return meta.causal_logs if meta else None

    def tag_of(self, op: OperationId) -> Optional[Tag]:
        meta = self.meta.get(op)
        return meta.tag if meta else None

    def register_of(self, op: OperationId) -> Optional[str]:
        meta = self.meta.get(op)
        return meta.register if meta else None
