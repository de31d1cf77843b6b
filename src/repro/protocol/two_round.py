"""Shared machinery of the two-round quorum register protocols.

Every algorithm in this library -- ABD, the crash-stop multi-writer
algorithm, and the paper's persistent and transient emulations -- has
the same skeleton:

* a *responder* side ("message listener" in Figures 4/5) that answers
  ``SN``/``R`` queries with the local tag/value and handles ``W``
  requests by adopting lexicographically larger tags;
* an *operation* side that runs one or two broadcast rounds, each
  collecting acknowledgments from a majority, with retransmission
  because channels are fair-lossy.

:class:`TwoRoundRegisterProtocol` implements that skeleton once.
Subclasses choose whether adopted values are logged
(:attr:`LOGS_ON_ADOPT`), how a writer derives its new tag, and what the
recovery procedure does.

Durable acknowledgments
-----------------------

A crash-recovery responder may only acknowledge ``W(tag, v)`` once its
stable storage holds a tag ``>= tag``.  Acknowledging from volatile
state would let a writer count a majority that evaporates in a crash
(the *forgotten value* problem of Section I-C).  The base class
therefore tracks ``tag`` (volatile) and ``durable_tag`` (highest tag
whose log completed) separately and parks acknowledgments for
in-flight tags until the covering log is durable.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Hashable, List, Optional, Tuple, Type

from repro.common.errors import ProtocolError
from repro.common.ids import OperationId, ProcessId
from repro.common.timestamps import Tag, bottom_tag
from repro.common.values import payload_size
from repro.protocol.base import (
    Broadcast,
    CancelTimer,
    Effect,
    Effects,
    RecoveryComplete,
    RegisterProtocol,
    Reply,
    Send,
    SetTimer,
    StableView,
    Store,
)
from repro.protocol.messages import (
    Message,
    ReadAck,
    ReadQuery,
    SnAck,
    SnQuery,
    WriteAck,
    WriteRequest,
)
from repro.protocol.quorum import Phase, RoundTracker, highest_tagged

_new = tuple.__new__

#: Bytes charged per stable-storage record on top of the value payload
#: (key, tag triple, framing).
STORE_RECORD_OVERHEAD = 16

#: Default retransmission period for unacknowledged rounds, seconds.
DEFAULT_RETRANSMIT_INTERVAL = 2e-3

#: Stable-storage keys used across the crash-recovery algorithms.
KEY_WRITTEN = "written"
KEY_WRITING = "writing"
KEY_RECOVERED = "recovered"


class TwoRoundRegisterProtocol(RegisterProtocol):
    """Common responder and round logic for the quorum register family."""

    #: Do responders log adopted value/tag pairs to stable storage?
    #: ``True`` for crash-recovery algorithms, ``False`` for crash-stop.
    LOGS_ON_ADOPT: ClassVar[bool] = True

    def __init__(
        self,
        pid: ProcessId,
        num_processes: int,
        stable: StableView,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
    ):
        super().__init__(pid, num_processes, stable)
        if not retransmit_interval > 0:  # NaN too
            raise ProtocolError("retransmit_interval must be > 0")
        self._retransmit_interval = retransmit_interval
        # Bound here so subclass overrides are the ones dispatched to.
        self.message_handlers = {
            SnQuery: self._answer_sn_query,
            ReadQuery: self._answer_read_query,
            WriteRequest: self._answer_write_request,
            SnAck: self._on_sn_ack,
            ReadAck: self._on_read_ack,
            WriteAck: self._on_write_ack,
        }
        self._reset_volatile()

    # -- volatile state ------------------------------------------------------

    def _reset_volatile(self) -> None:
        """Wipe everything a crash would erase."""
        #: Highest tag adopted (volatile copy).
        self.tag: Tag = bottom_tag()
        #: Value associated with :attr:`tag`.
        self.value: Any = None
        #: Highest tag whose stable-storage log has completed.
        self.durable_tag: Tag = bottom_tag()
        # Acks waiting for a covering log: (required_tag, dst, ack).
        self._parked_acks: List[Tuple[Tag, ProcessId, WriteAck]] = []
        # Store tokens for responder "written" logs: token -> tag.
        self._written_tokens: Dict[Hashable, Tag] = {}
        # Client operation in flight (at most one; processes are sequential).
        self._op: Optional[OperationId] = None
        self._op_is_write = False
        self._op_value: Any = None
        self._op_tag: Optional[Tag] = None
        #: Current phase of the operation in flight (a :class:`Phase` name).
        self.phase = Phase.IDLE
        self._tracker: RoundTracker = RoundTracker(self.majority)
        self._round_message: Optional[Message] = None
        self._retry_token: Optional[Hashable] = None

    def crash(self) -> None:
        self._reset_volatile()

    # -- round helpers ---------------------------------------------------------

    def _begin_round(
        self, cls: Type[Message], op: Optional[OperationId], *fields: Any
    ) -> Effects:
        """Broadcast ``cls(op, round_no, *fields)`` in a new round, retransmission armed.

        No round is open here: every caller runs after
        :meth:`_finish_round` or :meth:`_reset_volatile`, so no earlier
        retransmission timer is left to cancel.
        """
        round_no = self._tracker.begin()
        message = self._round_message = _new(cls, (op, round_no, *fields))
        self._token_counter += 1  # fresh_token, inlined
        token = self._retry_token = ("retry", self._token_counter)
        return [
            _new(Broadcast, (message,)),
            _new(SetTimer, (self._retransmit_interval, token)),
        ]

    def _finish_round(self) -> Effects:
        """Disarm retransmission after the quorum was reached."""
        effects: Effects = []
        if self._retry_token is not None:
            effects.append(_new(CancelTimer, (self._retry_token,)))
            self._retry_token = None
        self._round_message = None
        return effects

    def on_timer(self, token: Hashable) -> Effects:
        # A round's token is cleared in the same handler whose ack
        # closes its quorum, so the current token means a round is open.
        if token != self._retry_token:
            return []
        return [
            _new(Broadcast, (self._round_message,)),
            _new(SetTimer, (self._retransmit_interval, token)),
        ]

    # -- responder side ----------------------------------------------------------

    def on_message(self, src: ProcessId, message: Message) -> Effects:
        handler = self.message_handlers.get(message.__class__)
        if handler is None:
            raise ProtocolError(f"unknown message type {type(message).__name__}")
        return handler(src, message)

    def _answer_sn_query(self, src: ProcessId, message: SnQuery) -> Effects:
        return [_new(Send, (src, _new(SnAck, (message.op, message.round_no, self.tag))))]

    def _answer_read_query(self, src: ProcessId, message: ReadQuery) -> Effects:
        durable = self.durable_tag if self.LOGS_ON_ADOPT else self.tag
        ack = (message.op, message.round_no, self.tag, self.value, durable)
        return [_new(Send, (src, _new(ReadAck, ack)))]

    def _answer_write_request(self, src: ProcessId, message: WriteRequest) -> Effects:
        """Adopt a higher tag; acknowledge once it is durable.

        Figure 4, lines 21-27: update value and timestamp if the
        received timestamp is lexicographically bigger, log the new
        value and tag, then acknowledge.
        """
        ack = _new(WriteAck, (message.op, message.round_no, message.tag))
        if message.tag > self.tag:
            self.tag = message.tag
            self.value = message.value
            if not self.LOGS_ON_ADOPT:
                return [_new(Send, (src, ack))]
            self._token_counter += 1  # fresh_token, inlined
            token = (KEY_WRITTEN, self._token_counter)
            self._written_tokens[token] = message.tag
            self._parked_acks.append((message.tag, src, ack))
            record = (tuple(message.tag), message.value)
            size = STORE_RECORD_OVERHEAD + payload_size(message.value)
            return [_new(Store, (KEY_WRITTEN, record, size, token))]
        if not self.LOGS_ON_ADOPT or message.tag <= self.durable_tag:
            return [_new(Send, (src, ack))]
        # durable_tag < message.tag <= self.tag: the log that will cover
        # this tag is still in flight; park the ack until it completes.
        self._parked_acks.append((message.tag, src, ack))
        return []

    def on_store_complete(self, token: Hashable) -> Effects:
        tag = self._written_tokens.pop(token, None)
        if tag is None:
            return self._on_subclass_store_complete(token)
        if tag > self.durable_tag:
            self.durable_tag = tag
        return self._release_parked_acks()

    def _release_parked_acks(self) -> Effects:
        effects: Effects = []
        still_parked: List[Tuple[Tag, ProcessId, WriteAck]] = []
        for required, dst, ack in self._parked_acks:
            if required <= self.durable_tag:
                effects.append(_new(Send, (dst, ack)))
            else:
                still_parked.append((required, dst, ack))
        self._parked_acks = still_parked
        return effects

    def _on_subclass_store_complete(self, token: Hashable) -> Effects:
        """Hook for stores issued by subclasses (writer pre-logs etc.)."""
        return []

    # -- client read (identical in every algorithm of the family) -------------

    def invoke_read(self, op: OperationId) -> Effects:
        self._require_idle()
        self._op = op
        self._op_is_write = False
        self.phase = Phase.QUERY
        return self._begin_round(ReadQuery, op)

    def _on_read_ack(self, src: ProcessId, message: ReadAck) -> Effects:
        if self._op is None or message.op != self._op:
            return []
        if not self._tracker.record(message.round_no, src, (message.tag, message.value)):
            return []
        # First round done: pick the freshest value and write it back
        # (Figure 4, lines 35-38) so it reaches a majority before we
        # return it.
        best = highest_tagged(self._tracker.responses())
        assert best is not None
        self._op_tag, self._op_value = best
        self.phase = Phase.PROPAGATE
        effects = self._finish_round()
        effects.extend(self._begin_round(WriteRequest, self._op, *best))
        return effects

    # -- client write (shared plumbing; tag derivation is per-subclass) -------

    def invoke_write(self, op: OperationId, value: Any) -> Effects:
        self._require_idle()
        self._op = op
        self._op_is_write = True
        self._op_value = value
        return self._start_write()

    def _start_write(self) -> Effects:
        """Begin the write; default is the SN query round of Figure 4."""
        self.phase = Phase.QUERY
        op = self._op
        return self._begin_round(SnQuery, op)

    def _on_sn_ack(self, src: ProcessId, message: SnAck) -> Effects:
        if self._op is None or message.op != self._op or not self._op_is_write:
            return []
        if not self._tracker.record(message.round_no, src, message.tag):
            return []
        highest = max(self._tracker.response_values())
        return self._finish_round() + self._after_sn_quorum(highest)

    def _after_sn_quorum(self, highest: Tag) -> Effects:
        """Continue the write once the majority's tags are in.

        Subclasses decide whether to pre-log (persistent) or broadcast
        immediately (crash-stop, transient), and how to increment.
        """
        raise NotImplementedError

    def _propagate_write(self) -> Effects:
        """Second round: broadcast the new value and collect W acks."""
        self.phase = Phase.PROPAGATE
        assert self._op_tag is not None
        return self._begin_round(WriteRequest, self._op, self._op_tag, self._op_value)

    def _on_write_ack(self, src: ProcessId, message: WriteAck) -> Effects:
        if self.phase == Phase.RECOVERING:
            return self._on_recovery_write_ack(src, message)
        if self._op is None or message.op != self._op:
            return []
        if not self._tracker.record(message.round_no, src, message.tag):
            return []
        effects = self._finish_round()
        op = self._op
        result = None if self._op_is_write else self._op_value
        effects.extend(self._complete_operation(op, result))
        return effects

    def _complete_operation(self, op: OperationId, result: Any) -> Effects:
        """Finish the current operation; subclasses may log first."""
        tag = self._op_tag
        self._clear_operation()
        return [_new(Reply, (op, result, tag))]

    def _clear_operation(self) -> None:
        self._op = None
        self._op_is_write = False
        self._op_value = None
        self._op_tag = None
        self.phase = Phase.IDLE

    def _on_recovery_write_ack(self, src: ProcessId, message: WriteAck) -> Effects:
        """Ack collection for a recovery replay round (Figure 4 Recover)."""
        if message.op is not None:
            return []
        if not self._tracker.record(message.round_no, src, message.tag):
            return []
        self.phase = Phase.IDLE
        return self._finish_round() + [RecoveryComplete()]

    # -- misc ------------------------------------------------------------------

    def _require_idle(self) -> None:
        if self._op is not None:
            raise ProtocolError(
                f"process {self.pid} already has operation {self._op} in flight"
            )
        if self.phase == Phase.RECOVERING:
            raise ProtocolError(f"process {self.pid} is still recovering")

    @property
    def busy(self) -> bool:
        """Whether a client operation is currently in flight."""
        return self._op is not None
