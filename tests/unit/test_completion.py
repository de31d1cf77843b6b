"""Unit tests for pending-reply placement bounds (completion rules)."""

import math

import pytest

from repro.common.ids import OperationId
from repro.history.completion import PERSISTENT, TRANSIENT, pending_reply_bound
from repro.history.events import Crash, Invoke, Recover, Reply
from repro.history.history import History


def op(pid, seq):
    return OperationId(pid=pid, seq=seq)


def interrupted_write_history():
    """W(a) complete; W(b) pending after a crash; recover; W(c) complete."""
    return History(
        [
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Reply(time=1.0, pid=0, op=op(0, 1), kind="write"),
            Invoke(time=2.0, pid=0, op=op(0, 2), kind="write", value="b"),
            Crash(time=3.0, pid=0),
            Recover(time=4.0, pid=0),
            Invoke(time=5.0, pid=0, op=op(0, 3), kind="write", value="c"),
            Reply(time=6.0, pid=0, op=op(0, 3), kind="write"),
        ]
    )


class TestBounds:
    def test_persistent_bound_is_next_invocation(self):
        history = interrupted_write_history()
        pending = history.pending_operations()[0]
        bound = pending_reply_bound(history.events, pending, PERSISTENT)
        assert bound == 5.0  # index of W(c)'s invocation

    def test_transient_bound_is_next_write_reply(self):
        history = interrupted_write_history()
        pending = history.pending_operations()[0]
        bound = pending_reply_bound(history.events, pending, TRANSIENT)
        assert bound == 6.0  # index of W(c)'s reply

    def test_unbounded_when_process_never_acts_again(self):
        history = History(
            [
                Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="x"),
                Crash(time=1.0, pid=0),
            ]
        )
        pending = history.pending_operations()[0]
        assert pending_reply_bound(history.events, pending, PERSISTENT) == math.inf
        assert pending_reply_bound(history.events, pending, TRANSIENT) == math.inf

    def test_transient_ignores_intervening_reads(self):
        history = History(
            [
                Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="x"),
                Crash(time=1.0, pid=0),
                Recover(time=2.0, pid=0),
                Invoke(time=3.0, pid=0, op=op(0, 2), kind="read"),
                Reply(time=4.0, pid=0, op=op(0, 2), kind="read", result="x"),
            ]
        )
        pending = history.pending_operations()[0]
        # Persistent: bounded by the read's invocation (index 3).
        assert pending_reply_bound(history.events, pending, PERSISTENT) == 3.0
        # Transient: a read reply is not a write reply.
        assert pending_reply_bound(history.events, pending, TRANSIENT) == math.inf

    def test_other_processes_events_do_not_bound(self):
        history = History(
            [
                Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="x"),
                Crash(time=1.0, pid=0),
                Invoke(time=2.0, pid=1, op=op(1, 2), kind="write", value="y"),
                Reply(time=3.0, pid=1, op=op(1, 2), kind="write"),
            ]
        )
        pending = history.pending_operations()[0]
        assert pending_reply_bound(history.events, pending, PERSISTENT) == math.inf

    def test_unknown_criterion_rejected(self):
        history = interrupted_write_history()
        pending = history.pending_operations()[0]
        with pytest.raises(ValueError):
            pending_reply_bound(history.events, pending, "sequential")
