"""Fast-read optimization of the persistent algorithm (extension).

The paper observes that "in the absence of concurrency, a read will not
log" -- the write-back round runs but nobody stores.  The round itself
still costs two communication steps.  This extension removes even
those when they are provably unnecessary: if every member of the read's
query majority reports the **same tag, durably logged**, then the value
already sits -- durable -- at a majority, which is everything the
write-back would establish.  The reader can return immediately:

* a subsequent read queries a majority that intersects this one, so it
  observes a tag at least as large (Lemma 1 reasoning unchanged);
* crash-recovery is unaffected because the certificate is about
  *durable* tags: a unanimous volatile quorum would not suffice, as
  those copies can evaporate (the same forgotten-value logic that
  forces acknowledgments to wait for durability).

Cost: crash-free, contention-free reads drop from 4 communication
steps to 2 (one round trip) while writes and contended reads are
unchanged -- measured in ``benchmarks/test_fast_read.py``.

The condition is deliberately conservative: any disagreement in the
quorum (a propagating write, a lagging log, a recovering process)
falls back to the write-back round of Figure 4, so atomicity is never
at risk.  The property-based suite runs this protocol through the same
random workloads/crash schedules as the baseline.
"""

from __future__ import annotations

from typing import ClassVar

from repro.common.ids import ProcessId
from repro.protocol.base import Effects
from repro.protocol.messages import ReadAck, WriteRequest
from repro.protocol.persistent import PersistentAtomicProtocol
from repro.protocol.quorum import Phase, highest_tagged


class FastReadPersistentProtocol(PersistentAtomicProtocol):
    """Persistent atomic register with one-round-trip quiescent reads."""

    name: ClassVar[str] = "persistent-fastread"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: How many reads completed without a write-back round.
        self.fast_reads = 0
        #: How many reads fell back to the write-back round.
        self.slow_reads = 0

    def _on_read_ack(self, src: ProcessId, message: ReadAck) -> Effects:
        if self._op is None or message.op != self._op or self._op_is_write:
            return []
        if not self._tracker.record(
            message.round_no, src, (message.tag, message.value, message.durable_tag)
        ):
            return []
        responses = self._tracker.responses()
        tags = {tag for _, (tag, _, _) in responses}
        durable_everywhere = all(
            durable is not None and durable >= tag
            for _, (tag, _, durable) in responses
        )
        if len(tags) == 1 and durable_everywhere:
            # Unanimous durable quorum: the write-back would be a no-op
            # at every member, so skip it.
            (tag, value, _) = responses[0][1]
            self._op_tag, self._op_value = tag, value
            self.fast_reads += 1
            effects = self._finish_round()
            op = self._op
            effects.extend(self._complete_operation(op, value))
            return effects
        # Disagreement: run Figure 4's write-back round unchanged.
        self.slow_reads += 1
        best = highest_tagged(
            [(pid, (tag, value)) for pid, (tag, value, _) in responses]
        )
        assert best is not None
        self._op_tag, self._op_value = best
        self.phase = Phase.PROPAGATE
        effects = self._finish_round()
        effects.extend(self._begin_round(WriteRequest, self._op, *best))
        return effects
