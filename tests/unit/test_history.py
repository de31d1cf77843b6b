"""Unit tests for histories and well-formedness."""

import pickle

import pytest

from repro.common.ids import OperationId
from repro.history.events import Crash, Invoke, Recover, Reply
from repro.history.history import History, MalformedHistoryError


def op(pid, seq):
    return OperationId(pid=pid, seq=seq)


def build(*events):
    history = History()
    for event in events:
        history.append(event)
    return history


class TestOperationExtraction:
    def test_matched_pairs_become_completed_records(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="v"),
            Reply(time=1.0, pid=0, op=op(0, 1), kind="write"),
        )
        records = history.operations()
        assert len(records) == 1
        record = records[0]
        assert not record.pending
        assert record.value == "v"
        assert record.latency == pytest.approx(1.0)

    def test_unmatched_invocation_is_pending(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="v"),
            Crash(time=1.0, pid=0),
        )
        record = history.operations()[0]
        assert record.pending
        assert record.latency is None
        assert history.pending_operations() == [record]
        assert history.completed_operations() == []

    def test_read_results_are_captured(self):
        history = build(
            Invoke(time=0.0, pid=1, op=op(1, 1), kind="read"),
            Reply(time=1.0, pid=1, op=op(1, 1), kind="read", result="x"),
        )
        assert history.operations()[0].result == "x"

    def test_interleaved_operations_from_different_processes(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Invoke(time=0.5, pid=1, op=op(1, 2), kind="read"),
            Reply(time=1.0, pid=0, op=op(0, 1), kind="write"),
            Reply(time=1.5, pid=1, op=op(1, 2), kind="read", result="a"),
        )
        records = history.operations()
        assert len(records) == 2
        assert [record.pid for record in records] == [0, 1]

    def test_reply_without_invocation_raises(self):
        history = build(Reply(time=0.0, pid=0, op=op(0, 1), kind="write"))
        with pytest.raises(MalformedHistoryError):
            history.operations()

    def test_duplicate_invocation_raises(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Invoke(time=1.0, pid=0, op=op(0, 1), kind="write", value="a"),
        )
        with pytest.raises(MalformedHistoryError):
            history.operations()


class TestWellFormedness:
    def test_sequential_process_is_well_formed(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Reply(time=1.0, pid=0, op=op(0, 1), kind="write"),
            Invoke(time=2.0, pid=0, op=op(0, 2), kind="read"),
            Reply(time=3.0, pid=0, op=op(0, 2), kind="read", result="a"),
        )
        assert history.is_well_formed()

    def test_crash_recovery_cycle_is_well_formed(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Crash(time=1.0, pid=0),
            Recover(time=2.0, pid=0),
            Invoke(time=3.0, pid=0, op=op(0, 2), kind="read"),
            Reply(time=4.0, pid=0, op=op(0, 2), kind="read"),
        )
        assert history.is_well_formed()

    def test_overlapping_invocations_by_one_process_rejected(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Invoke(time=1.0, pid=0, op=op(0, 2), kind="read"),
        )
        assert not history.is_well_formed()

    def test_recovery_without_crash_rejected(self):
        history = build(Recover(time=0.0, pid=0))
        assert not history.is_well_formed()

    def test_double_crash_rejected(self):
        history = build(Crash(time=0.0, pid=0), Crash(time=1.0, pid=0))
        assert not history.is_well_formed()

    def test_invocation_while_crashed_rejected(self):
        history = build(
            Crash(time=0.0, pid=0),
            Invoke(time=1.0, pid=0, op=op(0, 1), kind="read"),
        )
        assert not history.is_well_formed()

    def test_reply_not_matching_open_invocation_rejected(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Reply(time=1.0, pid=0, op=op(0, 9), kind="write"),
        )
        assert not history.is_well_formed()

    def test_crash_closes_the_open_invocation(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Crash(time=1.0, pid=0),
            Recover(time=2.0, pid=0),
            Invoke(time=3.0, pid=0, op=op(0, 2), kind="write", value="b"),
            Reply(time=4.0, pid=0, op=op(0, 2), kind="write"),
        )
        assert history.is_well_formed()


class TestViews:
    def test_format_is_readable(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Reply(time=1e-3, pid=0, op=op(0, 1), kind="write"),
        )
        text = history.format()
        assert "inv W('a')" in text
        assert "ret W -> ok" in text


class TestIncrementalViews:
    """The append-only caching contract (see the module docstring)."""

    def test_operations_view_tracks_appends(self):
        history = History()
        history.append(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a")
        )
        first = history.operations()
        assert first[0].pending
        history.append(Reply(time=1.0, pid=0, op=op(0, 1), kind="write"))
        second = history.operations()
        assert not second[0].pending
        assert second[0].reply_index == 1
        # Records are immutable: the earlier snapshot is unchanged.
        assert first[0].pending

    def test_views_hand_out_fresh_copies(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
            Reply(time=1.0, pid=0, op=op(0, 1), kind="write"),
        )
        history.operations().clear()
        history.completed_operations().clear()
        assert len(history.operations()) == 1
        assert len(history.completed_operations()) == 1

    def test_completed_and_pending_views_track_appends(self):
        a, b = op(0, 1), op(1, 2)
        history = build(
            Invoke(time=0.0, pid=0, op=a, kind="write", value="x"),
            Invoke(time=0.5, pid=1, op=b, kind="read"),
        )
        assert len(history.pending_operations()) == 2
        assert history.completed_operations() == []
        history.append(Reply(time=1.0, pid=0, op=a, kind="write"))
        assert [r.op for r in history.completed_operations()] == [a]
        assert [r.op for r in history.pending_operations()] == [b]

    def test_unmatched_reply_keeps_raising_after_appends(self):
        history = build(Reply(time=0.0, pid=0, op=op(0, 1), kind="write"))
        with pytest.raises(MalformedHistoryError):
            history.operations()
        history.append(Invoke(time=1.0, pid=0, op=op(0, 2), kind="read"))
        with pytest.raises(MalformedHistoryError):
            history.operations()

    def test_well_formedness_revalidates_only_new_events(self):
        history = build(
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="a"),
        )
        history.assert_well_formed()
        history.append(Invoke(time=1.0, pid=0, op=op(0, 2), kind="read"))
        assert not history.is_well_formed()
        # Append-only: a malformed history can never become well-formed.
        history.append(Reply(time=2.0, pid=0, op=op(0, 2), kind="read"))
        assert not history.is_well_formed()

    def test_interleaved_checks_and_appends_match_fresh_scan(self):
        a, b = op(0, 1), op(1, 2)
        events = [
            Invoke(time=0.0, pid=0, op=a, kind="write", value="v"),
            Invoke(time=0.5, pid=1, op=b, kind="read"),
            Crash(time=1.0, pid=1),
            Reply(time=2.0, pid=0, op=a, kind="write"),
            Recover(time=3.0, pid=1),
        ]
        incremental = History()
        for event in events:
            incremental.append(event)
            incremental.assert_well_formed()
            incremental.operations()
        fresh = History(events)
        assert incremental.operations() == fresh.operations()
        assert incremental.is_well_formed() == fresh.is_well_formed()


class TestEventValidation:
    def test_invoke_requires_valid_kind(self):
        with pytest.raises(ValueError):
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="delete")

    def test_invoke_requires_operation_id(self):
        with pytest.raises(ValueError):
            Invoke(time=0.0, pid=0, kind="read")

    def test_reply_requires_operation_id(self):
        with pytest.raises(ValueError):
            Reply(time=0.0, pid=0, kind="read")

    def test_reply_requires_valid_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            Reply(time=0.0, pid=0, op=op(0, 1), kind="delete")

    def test_replace_runs_the_checks_too(self):
        event = Invoke(time=0.0, pid=0, op=op(0, 1), kind="read")
        with pytest.raises(ValueError, match="requires an operation id"):
            event._replace(op=None)


class TestRepresentation:
    """What history events and records are, pinned across their representation."""

    invoke = Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="v")
    reply = Reply(time=0.0, pid=0, op=op(0, 1), kind="write", result="v")

    def records(self):
        history = build(
            self.invoke,
            Reply(time=1.5, pid=0, op=op(0, 1), kind="write"),
            Invoke(time=2.0, pid=1, op=op(1, 2), kind="read"),
        )
        return history.operations()

    def test_an_event_equals_only_events_of_its_class(self):
        assert self.invoke == Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="v")
        # Same time, pid, op and kind, and value == result: only the class differs.
        assert self.invoke != self.reply
        assert not self.invoke == self.reply
        assert self.invoke != (0.0, 0, op(0, 1), "write", "v")
        assert (0.0, 0, op(0, 1), "write", "v") != self.invoke
        assert Crash(time=1.0, pid=0) != Recover(time=1.0, pid=0)
        assert len({Crash(time=1.0, pid=0), Recover(time=1.0, pid=0)}) == 2

    def test_hash_is_the_hash_of_the_fields(self):
        assert hash(self.invoke) == hash((0.0, 0, op(0, 1), "write", "v"))
        assert hash(Crash(time=1.0, pid=2)) == hash((1.0, 2))
        record = self.records()[0]
        assert hash(record) == hash((op(0, 1), 0, "write", "v", 0, 0.0, 1, 1.5, None))

    def test_repr_and_str(self):
        assert repr(self.invoke) == (
            "Invoke(time=0.0, pid=0, op=OperationId(pid=0, seq=1), "
            "kind='write', value='v')"
        )
        assert repr(Crash(time=1.0, pid=2)) == "Crash(time=1.0, pid=2)"
        assert str(self.invoke) == "p0: inv W('v')"
        assert str(Invoke(time=0.0, pid=1, op=op(1, 2))) == "p1: inv R()"
        assert str(self.reply) == "p0: ret W -> ok"
        assert str(Reply(time=0.0, pid=1, op=op(1, 2), result="x")) == "p1: ret R -> 'x'"
        assert str(Crash(time=1.0, pid=2)) == "p2: CRASH"
        assert str(Recover(time=1.0, pid=2)) == "p2: RECOVER"
        done, pending = self.records()
        assert repr(done) == (
            "OperationRecord(op=OperationId(pid=0, seq=1), pid=0, kind='write', "
            "value='v', invoke_index=0, invoke_time=0.0, reply_index=1, "
            "reply_time=1.5, result=None)"
        )
        assert str(done) == "p0 W('v') -> ok"
        assert str(pending) == "p1 R() pending"

    def test_pickle_round_trip(self):
        events = [self.invoke, self.reply, Crash(time=1.0, pid=2), Recover(time=2.0, pid=2)]
        for value in events + self.records():
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and copy.__class__ is value.__class__

    def test_pending_and_latency(self):
        done, pending = self.records()
        assert not done.pending and done.latency == pytest.approx(1.5)
        assert (done.reply_index, done.reply_time) == (1, 1.5)
        assert pending.pending and pending.latency is None
        assert (pending.reply_index, pending.reply_time, pending.result) == (None,) * 3

    def test_events_are_immutable(self):
        with pytest.raises(AttributeError):
            self.invoke.time = 1.0
