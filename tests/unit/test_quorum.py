"""Unit tests for quorum round tracking."""

import pytest

from repro.common.ids import make_operation_id
from repro.common.timestamps import Tag, bottom_tag
from repro.protocol.base import Broadcast, StableView
from repro.protocol.crash_stop import CrashStopMwmrProtocol
from repro.protocol.messages import SnAck, WriteAck
from repro.protocol.quorum import Phase, RoundTracker, highest_tagged


class TestRoundTracker:
    def test_quorum_reached_exactly_once(self):
        tracker = RoundTracker(quorum_size=2)
        round_no = tracker.begin()
        assert not tracker.record(round_no, 0, "a")
        assert tracker.record(round_no, 1, "b")  # completes the quorum
        assert not tracker.record(round_no, 2, "c")  # late ack

    def test_duplicate_responders_count_once(self):
        tracker = RoundTracker(quorum_size=2)
        round_no = tracker.begin()
        assert not tracker.record(round_no, 0, "a")
        assert not tracker.record(round_no, 0, "a-again")
        assert tracker.responders == 1

    def test_stale_round_acks_ignored(self):
        tracker = RoundTracker(quorum_size=2)
        old_round = tracker.begin()
        tracker.record(old_round, 0, "a")
        new_round = tracker.begin()
        assert not tracker.record(old_round, 1, "stale")
        assert tracker.responders == 0
        assert tracker.record(new_round, 1, "x") is False
        assert tracker.record(new_round, 2, "y") is True

    def test_round_numbers_increase(self):
        tracker = RoundTracker(quorum_size=1)
        first = tracker.begin()
        second = tracker.begin()
        assert second == first + 1

    def test_first_response_per_responder_is_kept(self):
        tracker = RoundTracker(quorum_size=3)
        round_no = tracker.begin()
        tracker.record(round_no, 0, "first")
        tracker.record(round_no, 0, "second")
        assert dict(tracker.responses())[0] == "first"

    def test_responses_sorted_by_pid(self):
        tracker = RoundTracker(quorum_size=3)
        round_no = tracker.begin()
        tracker.record(round_no, 2, "c")
        tracker.record(round_no, 0, "a")
        tracker.record(round_no, 1, "b")
        assert tracker.response_values() == ["a", "b", "c"]

    def test_rejects_zero_quorum(self):
        with pytest.raises(ValueError):
            RoundTracker(quorum_size=0)

    def test_inactive_until_begun(self):
        tracker = RoundTracker(quorum_size=1)
        assert not tracker.active
        assert not tracker.record(0, 0, "x")


class TestPhaseClock:
    """A protocol's phase attribute steps through the ``Phase`` values."""

    def test_starts_idle(self):
        protocol = CrashStopMwmrProtocol(0, 3, StableView({}))
        protocol.initialize()
        assert protocol.phase == Phase.IDLE
        assert not protocol.busy

    def test_transitions(self):
        protocol = CrashStopMwmrProtocol(0, 3, StableView({}))
        protocol.initialize()
        op = make_operation_id(0)
        (query,) = [e for e in protocol.invoke_write(op, "v") if isinstance(e, Broadcast)]
        assert protocol.phase == Phase.QUERY
        for src in (1, 2):
            effects = protocol.on_message(
                src, SnAck(op=op, round_no=query.message.round_no, tag=bottom_tag())
            )
        assert protocol.phase == Phase.PROPAGATE
        (write,) = [e.message for e in effects if isinstance(e, Broadcast)]
        for src in (0, 1):
            protocol.on_message(
                src, WriteAck(op=op, round_no=write.round_no, tag=write.tag)
            )
        assert protocol.phase == Phase.IDLE


class TestHighestTagged:
    def test_picks_largest_tag(self):
        responses = [
            (0, (Tag(1, 0), "old")),
            (1, (Tag(3, 1), "new")),
            (2, (Tag(2, 2), "mid")),
        ]
        assert highest_tagged(responses) == (Tag(3, 1), "new")

    def test_empty_responses_give_none(self):
        assert highest_tagged([]) is None

    def test_tie_keeps_first_in_responder_order(self):
        responses = [(0, (Tag(2, 1), "a")), (1, (Tag(2, 1), "b"))]
        assert highest_tagged(responses) == (Tag(2, 1), "a")
