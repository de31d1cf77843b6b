"""Histories and operation records.

A :class:`History` is the ordered event sequence of one run.  It offers
the derived views the checkers need: operation records (matched
invocation/reply pairs, pending invocations), per-process local
histories, and the well-formedness test of Section III-A.

Incremental contract
--------------------

A history is **append-only**: events are only ever added at the end
(via :meth:`History.append` or the constructor), never removed or
reordered.  The derived views exploit that:

* :meth:`operations` keeps a cached record list and the set of open
  invocations, and folds only the events appended since the previous
  call into it -- one cheap scan per *new* event instead of a full
  reconstruction per call;
* :meth:`assert_well_formed` keeps one per-process state machine and
  likewise advances it only over the new suffix, so re-validating a
  grown history is O(new events);
* :meth:`completed_operations` / :meth:`pending_operations` memoize
  their filtered views against the history length.

Malformed input is still reported lazily, exactly as the from-scratch
scans did: :meth:`append` never raises, and the first violation is
raised (every time) by the view that would have detected it --
duplicate invocations and unmatched replies by :meth:`operations`,
local-history violations by :meth:`assert_well_formed`.  Since events
are append-only, a history that became malformed stays malformed, so
the cached diagnostic is permanent.

The views hand out fresh list copies; the cached records themselves are
immutable (:class:`OperationRecord` is a tuple), so callers can hold on
to them across appends.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.ids import OperationId, ProcessId
from repro.history.events import (
    KINDS,
    Crash,
    HistoryEvent,
    Invoke,
    Record,
    Recover,
    Reply,
)

# Per-process well-formedness states (Section III-A).
_IDLE = 0  # may invoke or crash (also the initial state)
_BUSY = 1  # an invocation is open
_DOWN = 2  # crashed, awaiting recovery


_new = tuple.__new__


class OperationRecord(
    Record,
    namedtuple(
        "OperationRecord",
        ("op", "pid", "kind", "value", "invoke_index", "invoke_time",
         "reply_index", "reply_time", "result"),
    ),
):
    """One operation execution reconstructed from a history.

    ``reply_index``/``reply_time``/``result`` are ``None`` for pending
    invocations (the invoking process crashed, or the run was cut
    short).  Only :meth:`History._fold_records` builds records, each
    with ``tuple.__new__`` and every field.
    """

    __slots__ = ()

    @property
    def pending(self) -> bool:
        """Whether the invocation has no matching reply."""
        return self.reply_index is None

    @property
    def latency(self) -> Optional[float]:
        """Invocation-to-reply duration, or ``None`` if pending."""
        if self.reply_time is None:
            return None
        return self.reply_time - self.invoke_time

    def __str__(self) -> str:
        op_text = f"W({self.value!r})" if self.kind == "write" else "R()"
        if self.pending:
            return f"p{self.pid} {op_text} pending"
        if self.kind == "read":
            return f"p{self.pid} {op_text} -> {self.result!r}"
        return f"p{self.pid} {op_text} -> ok"


class MalformedHistoryError(ValueError):
    """The event sequence violates well-formedness (Section III-A)."""


class History:
    """An ordered, append-only sequence of history events."""

    def __init__(self, events: Optional[Sequence[HistoryEvent]] = None):
        self._events: List[HistoryEvent] = list(events) if events else []
        # -- operations() cache: folded up to event _records_scanned.
        self._records: List[OperationRecord] = []
        self._open: Dict[OperationId, int] = {}  # op -> index in _records
        self._records_scanned = 0
        self._records_error: Optional[str] = None
        # -- memoized filtered views, keyed by history length.
        self._completed_memo: Optional[Tuple[int, List[OperationRecord]]] = None
        self._pending_memo: Optional[Tuple[int, List[OperationRecord]]] = None
        # -- well-formedness cache: per-pid state machines.
        self._wf_states: Dict[ProcessId, int] = {}
        self._wf_open: Dict[ProcessId, OperationId] = {}
        self._wf_scanned = 0
        self._wf_error: Optional[str] = None

    # -- construction ------------------------------------------------------

    def append(self, event: HistoryEvent) -> None:
        """Add ``event`` at the end of the history."""
        self._events.append(event)

    # -- basic access ------------------------------------------------------

    @property
    def events(self) -> List[HistoryEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[HistoryEvent]:
        return iter(self._events)

    # -- derived views ---------------------------------------------------------

    def operations(self) -> List[OperationRecord]:
        """All operation executions, in invocation order.

        Raises :class:`MalformedHistoryError` if a reply has no open
        matching invocation.
        """
        self._fold_records()
        if self._records_error is not None:
            raise MalformedHistoryError(self._records_error)
        return list(self._records)

    def _fold_records(self) -> None:
        """Fold events appended since the last call into the record cache."""
        if self._records_error is not None:
            return
        events = self._events
        records = self._records
        open_invocations = self._open
        index = self._records_scanned
        try:
            while index < len(events):
                event = events[index]
                if isinstance(event, Invoke):
                    time, pid, op, kind, value = event
                    if op in open_invocations:
                        raise MalformedHistoryError(f"duplicate invocation of {op}")
                    open_invocations[op] = len(records)
                    records.append(_new(OperationRecord, (
                        op, pid, kind, value, index, time, None, None, None,
                    )))
                elif isinstance(event, Reply):
                    slot = open_invocations.pop(event.op, None)
                    if slot is None:
                        raise MalformedHistoryError(
                            f"reply without matching invocation: {event.op}"
                        )
                    records[slot] = _new(OperationRecord, (
                        *records[slot][:6], index, event.time, event.result,
                    ))
                index += 1
        except MalformedHistoryError as error:
            # Append-only: the history can never become well-matched
            # again, so the diagnostic is cached permanently.
            self._records_error = str(error)
            raise
        finally:
            self._records_scanned = index

    def pending_operations(self) -> List[OperationRecord]:
        """Operations whose invocation has no matching reply."""
        records = self.operations()
        memo = self._pending_memo
        if memo is None or memo[0] != len(self._events):
            self._pending_memo = (
                len(self._events),
                [record for record in records if record.pending],
            )
        return list(self._pending_memo[1])

    def completed_operations(self) -> List[OperationRecord]:
        """Operations with a matching reply."""
        records = self.operations()
        memo = self._completed_memo
        if memo is None or memo[0] != len(self._events):
            self._completed_memo = (
                len(self._events),
                [record for record in records if not record.pending],
            )
        return list(self._completed_memo[1])

    # -- well-formedness ------------------------------------------------------

    def is_well_formed(self) -> bool:
        """Check Section III-A well-formedness of every local history.

        (a) a local history starts with an invocation or a crash,
        (b) a crash can only be followed by a matching recovery,
        (c) an invocation can only be followed by a crash or a reply.
        """
        try:
            self.assert_well_formed()
        except MalformedHistoryError:
            return False
        return True

    def assert_well_formed(self) -> None:
        """Like :meth:`is_well_formed`, raising a diagnostic on failure.

        Incremental: only the events appended since the previous call
        are validated (the first violation, once found, is permanent).
        """
        if self._wf_error is None and self._wf_scanned < len(self._events):
            self._wf_error = self._scan_well_formedness()
        if self._wf_error is not None:
            raise MalformedHistoryError(self._wf_error)

    def _scan_well_formedness(self) -> Optional[str]:
        """Advance the per-pid state machines; return the first violation."""
        events = self._events
        states = self._wf_states
        open_ops = self._wf_open
        index = self._wf_scanned
        try:
            while index < len(events):
                event = events[index]
                pid = event.pid
                state = states.get(pid, _IDLE)
                if isinstance(event, Invoke):
                    if state == _BUSY:
                        return (
                            f"p{pid}: invocation while {open_ops[pid]} is open"
                        )
                    if state == _DOWN:
                        return f"p{pid}: invocation while crashed"
                    states[pid] = _BUSY
                    open_ops[pid] = event.op
                elif isinstance(event, Reply):
                    if state != _BUSY or event.op != open_ops.get(pid):
                        return (
                            f"p{pid}: reply {event.op} does not match "
                            f"open invocation"
                        )
                    states[pid] = _IDLE
                    open_ops.pop(pid, None)
                elif isinstance(event, Crash):
                    if state == _DOWN:
                        return f"p{pid}: crash while crashed"
                    states[pid] = _DOWN
                    open_ops.pop(pid, None)
                elif isinstance(event, Recover):
                    if state != _DOWN:
                        return f"p{pid}: recovery without preceding crash"
                    states[pid] = _IDLE
                index += 1
            return None
        finally:
            self._wf_scanned = index

    # -- debugging ---------------------------------------------------------------

    def format(self) -> str:
        """Readable multi-line transcript of the history."""
        return "\n".join(
            f"{event.time * 1e6:10.1f}us  {event}" for event in self._events
        )

    def __repr__(self) -> str:
        return f"History({len(self._events)} events)"
