"""Transient atomic memory emulation (Figure 5 of the paper).

Log-optimal robust emulation of a multi-writer/multi-reader *transient*
atomic register: atomicity is guaranteed between crashes, and the only
deviation from persistent atomicity is that a write interrupted by a
crash may appear to overlap with the writer's next write.  The reward
is **1 causal log per write** (matching the Theorem 1 discussion in
Section IV-C) instead of two; reads cost at most 1 causal log as
before.

Differences from the persistent algorithm (Figure 4):

* the writer does **not** log ``writing`` before broadcasting, so the
  one causal log of a write is the majority's ``written`` logs;
* recovery does **not** replay an interrupted write (there is nothing
  logged to replay);
* instead, a stable counter ``rec`` of recoveries is maintained: the
  writer increments its sequence number by ``rec + 1`` (Figure 5,
  line 11) so timestamps keep increasing monotonically across crashes,
  and recovery performs exactly one log to bump the counter.

Fidelity note -- duplicate-tag corner case
------------------------------------------

Figure 5 folds ``rec`` only into the sequence-number arithmetic.  In a
fully asynchronous run the following is possible: the writer's
interrupted write used tag ``(m1 + rec + 1, i)`` where ``m1`` was the
maximum over its query majority; after recovery, a different query
majority can return a maximum ``m2 = m1 - 1`` (majorities intersect,
but the *maximum* of the new majority can be below the old one when
the only adopters of the interrupted write are outside it and the
writer's own ``written`` log had not completed before the crash).
Then ``m2 + rec' + 1 = m1 + rec + 1`` with a different value --
two values under one tag, which no completion of the history can
linearize.  We therefore carry ``rec`` as an explicit least-significant
tag component (:class:`repro.common.timestamps.Tag` is the triple
``[sn, pid, rec]``): the sequence-number arithmetic is kept verbatim,
and the extra component -- which is already logged by Figure 5's own
recovery procedure and travels in the same messages -- breaks the tie
between incarnations.  Log, message and time complexity are unchanged.
The unrepaired behaviour is available as
:class:`repro.protocol.broken.NoRecCounterTransient` for the ablation
experiments.
"""

from __future__ import annotations

from typing import ClassVar, Hashable, Optional

from repro.common.timestamps import Tag, bottom_tag
from repro.protocol.base import Effects, RecoveryComplete, Store
from repro.protocol.two_round import (
    KEY_RECOVERED,
    KEY_WRITTEN,
    STORE_RECORD_OVERHEAD,
    TwoRoundRegisterProtocol,
)


class TransientAtomicProtocol(TwoRoundRegisterProtocol):
    """Log-optimal transient atomic register (Figure 5)."""

    name: ClassVar[str] = "transient"
    supports_recovery: ClassVar[bool] = True
    LOGS_ON_ADOPT: ClassVar[bool] = True

    def _reset_volatile(self) -> None:
        super()._reset_volatile()
        #: Number of times this process recovered (restored from stable).
        self.rec = 0
        self._recovered_token: Optional[Hashable] = None
        self._init_stores_pending = 0

    # -- lifecycle ---------------------------------------------------------

    def initialize(self) -> Effects:
        """First boot: log a zero recovery counter and the initial value.

        Figure 5, ``Initialize``: ``store(recovered, 0)`` and
        ``store(written, 0, i, \\u22a5)``.
        """
        self._init_stores_pending = 2
        return [
            Store(
                key=KEY_RECOVERED,
                record=(0,),
                size=STORE_RECORD_OVERHEAD,
                token=self.fresh_token("init-recovered"),
            ),
            Store(
                key=KEY_WRITTEN,
                record=(bottom_tag().as_tuple(), None),
                size=STORE_RECORD_OVERHEAD,
                token=self.fresh_token("init-written"),
            ),
        ]

    def recover(self) -> Effects:
        """Restore from stable storage and bump the recovery counter.

        Figure 5, ``Recover``: no write replay; one log to persist the
        incremented recovery count.  The process reports ready once the
        counter is durable -- recovering without persisting the bump
        first could let a second crash reuse the old count.
        """
        self._reset_volatile()
        written = self.stable.retrieve(KEY_WRITTEN)
        if written is not None:
            tag_tuple, value = written
            self.tag = Tag.from_tuple(tag_tuple)
            self.value = value
            self.durable_tag = self.tag
        recovered = self.stable.retrieve(KEY_RECOVERED)
        previous = recovered[0] if recovered is not None else 0
        self.rec = previous + 1
        self._recovered_token = self.fresh_token(KEY_RECOVERED)
        return [
            Store(
                key=KEY_RECOVERED,
                record=(self.rec,),
                size=STORE_RECORD_OVERHEAD,
                token=self._recovered_token,
            )
        ]

    # -- write ----------------------------------------------------------------

    def _after_sn_quorum(self, highest: Tag) -> Effects:
        """Broadcast immediately -- no writer pre-log (Figure 5, lines 11-13).

        ``sn := sn + rec + 1``: the increment skips past any sequence
        number an interrupted pre-crash write of this process may have
        used; ``rec`` also rides along as the tag's least-significant
        component (see the module docstring).
        """
        self._op_tag = Tag(highest.sn + self.rec + 1, self.pid, self.rec)
        return self._propagate_write()

    def _on_subclass_store_complete(self, token: Hashable) -> Effects:
        if token == self._recovered_token:
            self._recovered_token = None
            return [RecoveryComplete()]
        if self._init_stores_pending > 0:
            self._init_stores_pending -= 1
            if self._init_stores_pending == 0:
                return [RecoveryComplete()]
        return []
