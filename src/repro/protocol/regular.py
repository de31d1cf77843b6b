"""Safe/regular register emulations in the crash-recovery model (Section VI).

The paper's concluding remarks discuss what its results imply for
memories *weaker* than atomic, in the sense of Lamport's single-writer
hierarchy:

* a **safe** register only guarantees that a read not concurrent with
  any write returns the last written value;
* a **regular** register additionally guarantees that a read concurrent
  with writes returns either the last written value or one of the
  concurrently written ones (no third option);
* the **atomic** register additionally forbids new/old inversion
  between reads.

The conclusions the paper draws, which the emulations here make
measurable (:mod:`repro.experiments.weaker_memory`):

1. *any* meaningful crash-recovery emulation still needs one causal log
   per write (a value that nobody logged dies with the first total
   crash), so weakening the consistency saves nothing on write logging;
2. the one-causal-log-per-read lower bound (Theorem 2) does **not**
   hold for safe/regular memory: a single-round read without write-back
   never logs;
3. but an *atomic* read also logs only when concurrency/failures force
   it to, "so in a system where logging is very expensive and the cost
   of sending and receiving messages is negligible, it does not make
   sense to emulate safe or even regular memory" -- the only saving a
   regular read offers is one message round trip, not any log.

The implementation is the transient machinery with a single-round read
and the single-writer restriction (the classic regularity notions are
single-writer; the multi-writer generalizations of Shao, Pierce &
Welch (DISC 2003) are out of scope, as in the paper).  A safe register
would be implemented identically -- a majority query is already needed
so that crash-free, write-free reads see the last value -- so only the
regular class exists; it trivially also satisfies safety.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.common.errors import ProtocolError
from repro.common.ids import OperationId, ProcessId
from repro.protocol.base import Effects
from repro.protocol.messages import ReadAck, ReadQuery
from repro.protocol.quorum import Phase, highest_tagged
from repro.protocol.transient import TransientAtomicProtocol


class RegularRegisterProtocol(TransientAtomicProtocol):
    """Single-writer regular register, crash-recovery, one-round reads.

    Writes are exactly the transient algorithm's (1 causal log; the
    recovery counter keeps timestamps monotonic across crashes).
    Reads query a majority and return the highest-tag value without
    writing it back: 2 communication steps, never any log -- at the
    price of atomicity (two sequential reads concurrent with one write
    may observe new-then-old).
    """

    name: ClassVar[str] = "regular"
    supports_recovery: ClassVar[bool] = True

    WRITER_PID = 0

    def invoke_write(self, op: OperationId, value: Any) -> Effects:
        if self.pid != self.WRITER_PID:
            raise ProtocolError(
                f"process {self.pid} is not the writer; regular registers "
                f"are single-writer (writer is process {self.WRITER_PID})"
            )
        return super().invoke_write(op, value)

    def _on_read_ack(self, src: ProcessId, message: ReadAck) -> Effects:
        if self._op is None or message.op != self._op or self._op_is_write:
            return []
        if not self._tracker.record(message.round_no, src, (message.tag, message.value)):
            return []
        best = highest_tagged(self._tracker.responses())
        assert best is not None
        self._op_tag, self._op_value = best
        effects = self._finish_round()
        op, value = self._op, self._op_value
        effects.extend(self._complete_operation(op, value))
        return effects

    def invoke_read(self, op: OperationId) -> Effects:
        self._require_idle()
        self._op = op
        self._op_is_write = False
        self.phase = Phase.QUERY
        return self._begin_round(ReadQuery, op)
