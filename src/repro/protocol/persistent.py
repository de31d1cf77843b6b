"""Persistent atomic memory emulation (Figure 4 of the paper).

Log-optimal robust emulation of a multi-writer/multi-reader
*persistent* atomic register in the crash-recovery model: atomicity is
preserved through crashes, at the cost of **2 causal logs per write**
and **at most 1 causal log per read** -- matching the lower bounds of
Theorems 1 and 2.

Compared to the crash-stop baseline the write adds exactly two logs:

1. after the SN query round the writer logs ``(writing, sn, v)``
   *before* broadcasting, so that upon recovery it can finish the
   interrupted write (preventing *orphan values*) and never reuses the
   timestamp for a different value (preventing *confused values*);
2. every process logs ``(written, sn, pid, v)`` before acknowledging
   the second round, so the written value survives any crash once the
   write returns (preventing *forgotten values*).

The read logs only when it propagates a value not yet durable at a
majority: in the absence of concurrency and failures all processes
already logged the value during the preceding write, the write-back
tag is not lexicographically bigger, and nobody logs -- 0 causal logs.

**Recovery** (Figure 4, ``Recover``): restore ``(tag, value)`` from the
``written`` record, then replay the second round of the last
``writing`` record until a majority acknowledges.  Replaying an
already-finished (or never-started) write is harmless: an old tag never
displaces newer values.
"""

from __future__ import annotations

from typing import ClassVar, Hashable, Optional

from repro.common.timestamps import Tag, bottom_tag
from repro.common.values import payload_size
from repro.protocol.base import Effects, RecoveryComplete, Store
from repro.protocol.messages import WriteRequest
from repro.protocol.quorum import Phase
from repro.protocol.two_round import (
    KEY_WRITING,
    KEY_WRITTEN,
    STORE_RECORD_OVERHEAD,
    TwoRoundRegisterProtocol,
)


class PersistentAtomicProtocol(TwoRoundRegisterProtocol):
    """Log-optimal persistent atomic register (Figure 4)."""

    name: ClassVar[str] = "persistent"
    supports_recovery: ClassVar[bool] = True
    LOGS_ON_ADOPT: ClassVar[bool] = True

    def _reset_volatile(self) -> None:
        super()._reset_volatile()
        self._writing_token: Optional[Hashable] = None
        self._init_stores_pending = 0

    # -- lifecycle -----------------------------------------------------------

    def initialize(self) -> Effects:
        """First boot: log the initial ``writing`` and ``written`` records.

        Figure 4, ``Initialize``: ``store(writing, 0, \\u22a5)`` and
        ``store(written, 0, i, \\u22a5)``.  The process reports ready
        once both initial records are durable.
        """
        self._init_stores_pending = 2
        bottom = bottom_tag()
        return [
            Store(
                key=KEY_WRITING,
                record=(bottom.as_tuple(), None),
                size=STORE_RECORD_OVERHEAD,
                token=self.fresh_token("init-writing"),
            ),
            Store(
                key=KEY_WRITTEN,
                record=(bottom.as_tuple(), None),
                size=STORE_RECORD_OVERHEAD,
                token=self.fresh_token("init-written"),
            ),
        ]

    def recover(self) -> Effects:
        """Restore volatile state from stable storage, replay the last write.

        All processes systematically finish their previous write by
        running the second round of the write operation; even if there
        was no unfinished write, re-writing an old value with an old
        timestamp displaces nothing.

        Checkpoint fast path: when the ``writing`` record survives only
        in a committed checkpoint snapshot
        (:meth:`repro.protocol.base.StableView.checkpointed`), the host
        captured it while this process was idle -- the write it guards
        had completed, so its value already reached a majority and the
        replay round is provably redundant.  Recovery then completes
        immediately, without any message exchange.  Any write begun
        after the capture re-logs ``writing``, which takes the key out
        of the snapshot-only state and the normal replay runs.
        """
        self._reset_volatile()
        written = self.stable.retrieve(KEY_WRITTEN)
        if written is not None:
            tag_tuple, value = written
            self.tag = Tag.from_tuple(tag_tuple)
            self.value = value
            self.durable_tag = self.tag
        writing = self.stable.retrieve(KEY_WRITING)
        if writing is not None and self.stable.checkpointed(KEY_WRITING):
            return [RecoveryComplete()]
        if writing is not None:
            replay_tag = Tag.from_tuple(writing[0])
            replay_value = writing[1]
        else:
            # Crashed before initialization finished; replay bottom.
            replay_tag, replay_value = bottom_tag(), None
        self.phase = Phase.RECOVERING
        return self._begin_round(WriteRequest, None, replay_tag, replay_value)

    # -- write ------------------------------------------------------------------

    def _after_sn_quorum(self, highest: Tag) -> Effects:
        """Log ``(writing, sn, v)`` before broadcasting (Figure 4, line 12).

        This is the first causal log of the write: the broadcast only
        happens once the record is durable, so every later log of this
        write causally follows it.
        """
        self._op_tag = Tag(highest.sn + 1, self.pid)
        self.phase = Phase.STORE
        token = self._writing_token = self.fresh_token(KEY_WRITING)
        record = (self._op_tag.as_tuple(), self._op_value)
        size = STORE_RECORD_OVERHEAD + payload_size(self._op_value)
        return [tuple.__new__(Store, (KEY_WRITING, record, size, token))]

    def _on_subclass_store_complete(self, token: Hashable) -> Effects:
        if token == self._writing_token:
            self._writing_token = None
            return self._propagate_write()
        if self._init_stores_pending > 0:
            self._init_stores_pending -= 1
            if self._init_stores_pending == 0:
                return [RecoveryComplete()]
        return []
