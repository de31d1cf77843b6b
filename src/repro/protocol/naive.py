"""Naive crash-recovery emulation: log every step (strawman baseline).

Section I-C of the paper notes that the crash-stop algorithm "can
easily be adapted to a crash-recovery model by having every process log
each of its steps in stable storage, but the resulting algorithm would
be very expensive (clearly not log optimal)".  This module implements
that strawman so the benchmarks can quantify *how* expensive:

* **Write** -- 4 causal logs: the writer logs its *intent* (the value it
  is about to write) at invocation, logs the chosen timestamp after the
  query round, every process logs the value before acknowledging the
  second round, and the writer logs *done* before replying.
* **Read** -- 3 causal logs: intent at invocation, the majority's
  ``written`` logs during write-back, and a *result* log before
  replying.

It is persistent atomic (it logs strictly more than Figure 4 at the
same points, and recovery replays like Figure 4), just needlessly slow:
with the paper's calibration a write costs ``4 delta + 4 lambda``
instead of the optimal ``4 delta + 2 lambda``.
"""

from __future__ import annotations

from typing import Any, ClassVar, Hashable, Optional

from repro.common.ids import OperationId
from repro.common.values import payload_size
from repro.protocol.base import Effects, Reply, Store
from repro.protocol.messages import ReadQuery, SnQuery
from repro.protocol.persistent import PersistentAtomicProtocol
from repro.protocol.quorum import Phase
from repro.protocol.two_round import STORE_RECORD_OVERHEAD

KEY_INTENT = "intent"
KEY_DONE = "done"


class NaiveLoggingProtocol(PersistentAtomicProtocol):
    """Log-every-step adaptation of the crash-stop algorithm (strawman)."""

    name: ClassVar[str] = "naive"
    supports_recovery: ClassVar[bool] = True

    def _reset_volatile(self) -> None:
        super()._reset_volatile()
        self._intent_token: Optional[Hashable] = None
        self._done_token: Optional[Hashable] = None
        self._pending_reply: Optional[Reply] = None

    # -- write: intent log before the query round ---------------------------

    def _start_write(self) -> Effects:
        self.phase = Phase.STORE
        self._intent_token = self.fresh_token(KEY_INTENT)
        return [
            Store(
                key=KEY_INTENT,
                record=("write", self._op_value),
                size=STORE_RECORD_OVERHEAD + payload_size(self._op_value),
                token=self._intent_token,
            )
        ]

    # -- read: intent log before the query round -----------------------------

    def invoke_read(self, op: OperationId) -> Effects:
        self._require_idle()
        self._op = op
        self._op_is_write = False
        self.phase = Phase.STORE
        self._intent_token = self.fresh_token(KEY_INTENT)
        return [
            Store(
                key=KEY_INTENT,
                record=("read",),
                size=STORE_RECORD_OVERHEAD,
                token=self._intent_token,
            )
        ]

    # -- completion: done/result log before replying ---------------------------

    def _complete_operation(self, op: OperationId, result: Any) -> Effects:
        self._done_token = self.fresh_token(KEY_DONE)
        self._pending_reply = Reply(op, result, tag=self._op_tag)
        kind = "write" if self._op_is_write else "read"
        return [
            Store(
                key=KEY_DONE,
                record=(kind, result),
                size=STORE_RECORD_OVERHEAD + payload_size(result),
                token=self._done_token,
            )
        ]

    def _on_subclass_store_complete(self, token: Hashable) -> Effects:
        if token == self._intent_token:
            self._intent_token = None
            op = self._op
            self.phase = Phase.QUERY
            if self._op_is_write:
                # Proceed with the normal write: SN query round first.
                return self._begin_round(SnQuery, op)
            return self._begin_round(ReadQuery, op)
        if token == self._done_token:
            self._done_token = None
            reply = self._pending_reply
            self._pending_reply = None
            self._clear_operation()
            assert reply is not None
            return [reply]
        return super()._on_subclass_store_complete(token)
