"""Unit tests driving the protocol state machines directly (no simulator).

A tiny harness plays the environment: it collects effects, lets tests
deliver messages and complete stores by hand, and asserts on the exact
effect sequences -- the sans-io contract.
"""

import pytest

from repro.common.errors import ProtocolError
from repro.common.ids import make_operation_id
from repro.common.timestamps import Tag, bottom_tag
from repro.protocol.abd import AbdSwmrProtocol
from repro.protocol.base import (
    Broadcast,
    CancelTimer,
    RecoveryComplete,
    Reply,
    Send,
    SetTimer,
    StableView,
    Store,
)
from repro.protocol.crash_stop import CrashStopMwmrProtocol
from repro.protocol.messages import (
    ReadAck,
    ReadQuery,
    SnAck,
    SnQuery,
    WriteAck,
    WriteRequest,
)
from repro.protocol.persistent import PersistentAtomicProtocol
from repro.protocol.quorum import Phase
from repro.protocol.transient import TransientAtomicProtocol


def effects_of_type(effects, effect_type):
    return [e for e in effects if isinstance(e, effect_type)]


def only(effects, effect_type):
    found = effects_of_type(effects, effect_type)
    assert len(found) == 1, f"expected exactly one {effect_type.__name__}: {effects}"
    return found[0]


def make(cls, pid=0, n=3, records=None):
    return cls(pid, n, StableView(records if records is not None else {}))


def complete_initialization(protocol):
    """Run initialize() and complete any initial stores."""
    effects = protocol.initialize()
    for store in effects_of_type(effects, Store):
        protocol.on_store_complete(store.token)
    return effects


class TestPhase:
    def test_a_read_moves_through_query_and_propagate_back_to_idle(self):
        protocol = make(CrashStopMwmrProtocol)
        complete_initialization(protocol)
        assert protocol.phase == Phase.IDLE
        op = make_operation_id(0)
        round_no = only(protocol.invoke_read(op), Broadcast).message.round_no
        assert protocol.phase == Phase.QUERY
        for src in (0, 1):
            effects = protocol.on_message(
                src, ReadAck(op, round_no, bottom_tag(), None, bottom_tag())
            )
        write_back = only(effects, Broadcast).message
        assert protocol.phase == Phase.PROPAGATE
        for src in (0, 1):
            protocol.on_message(
                src, WriteAck(op, write_back.round_no, write_back.tag)
            )
        assert protocol.phase == Phase.IDLE

    def test_a_recovering_process_refuses_operations(self):
        protocol = make(PersistentAtomicProtocol)
        complete_initialization(protocol)
        protocol.crash()
        protocol.recover()
        assert protocol.phase == Phase.RECOVERING
        with pytest.raises(ProtocolError, match="still recovering"):
            protocol.invoke_read(make_operation_id(0))


class TestCrashStopWrite:
    def test_write_starts_with_sn_query_broadcast(self):
        protocol = make(CrashStopMwmrProtocol)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "v")
        broadcast = only(effects, Broadcast)
        assert isinstance(broadcast.message, SnQuery)
        assert broadcast.message.op == op
        only(effects, SetTimer)

    def test_write_propagates_after_sn_quorum(self):
        protocol = make(CrashStopMwmrProtocol)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "v")
        round_no = only(effects, Broadcast).message.round_no
        assert protocol.on_message(1, SnAck(op=op, round_no=round_no, tag=Tag(4, 1))) == []
        effects = protocol.on_message(2, SnAck(op=op, round_no=round_no, tag=Tag(7, 2)))
        w = only(effects, Broadcast).message
        assert isinstance(w, WriteRequest)
        # Highest collected sn incremented, stamped with the writer id.
        assert w.tag == Tag(8, 0)
        assert w.value == "v"

    def test_write_replies_after_ack_quorum(self):
        protocol = make(CrashStopMwmrProtocol)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "v")
        r1 = only(effects, Broadcast).message.round_no
        protocol.on_message(1, SnAck(op=op, round_no=r1, tag=bottom_tag()))
        effects = protocol.on_message(2, SnAck(op=op, round_no=r1, tag=bottom_tag()))
        w = only(effects, Broadcast).message
        protocol.on_message(0, WriteAck(op=op, round_no=w.round_no, tag=w.tag))
        effects = protocol.on_message(1, WriteAck(op=op, round_no=w.round_no, tag=w.tag))
        reply = only(effects, Reply)
        assert reply.op == op
        assert reply.tag == w.tag
        assert not protocol.busy

    def test_no_store_effects_anywhere(self):
        protocol = make(CrashStopMwmrProtocol)
        effects = complete_initialization(protocol)
        assert effects_of_type(effects, Store) == []
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "v")
        assert effects_of_type(effects, Store) == []

    def test_recover_is_refused(self):
        protocol = make(CrashStopMwmrProtocol)
        with pytest.raises(ProtocolError):
            protocol.recover()

    def test_double_invocation_rejected(self):
        protocol = make(CrashStopMwmrProtocol)
        complete_initialization(protocol)
        protocol.invoke_write(make_operation_id(0), "v")
        with pytest.raises(ProtocolError):
            protocol.invoke_read(make_operation_id(0))


class TestResponder:
    def test_sn_query_answered_with_local_tag(self):
        protocol = make(CrashStopMwmrProtocol, pid=1)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = protocol.on_message(0, SnQuery(op=op, round_no=3))
        send = only(effects, Send)
        assert send.dst == 0
        assert isinstance(send.message, SnAck)
        assert send.message.tag == bottom_tag()
        assert send.message.round_no == 3

    def test_write_request_with_higher_tag_adopted(self):
        protocol = make(CrashStopMwmrProtocol, pid=1)
        complete_initialization(protocol)
        effects = protocol.on_message(
            0, WriteRequest(op=None, round_no=1, tag=Tag(5, 0), value="new")
        )
        assert protocol.tag == Tag(5, 0)
        assert protocol.value == "new"
        ack = only(effects, Send).message
        assert isinstance(ack, WriteAck)

    def test_write_request_with_lower_tag_acked_but_not_adopted(self):
        protocol = make(CrashStopMwmrProtocol, pid=1)
        complete_initialization(protocol)
        protocol.on_message(
            0, WriteRequest(op=None, round_no=1, tag=Tag(5, 0), value="newer")
        )
        effects = protocol.on_message(
            2, WriteRequest(op=None, round_no=1, tag=Tag(3, 2), value="older")
        )
        assert protocol.value == "newer"
        ack = only(effects, Send).message
        assert ack.tag == Tag(3, 2)  # acks echo the request's tag

    def test_read_query_answered_with_tag_and_value(self):
        protocol = make(CrashStopMwmrProtocol, pid=2)
        complete_initialization(protocol)
        protocol.on_message(
            0, WriteRequest(op=None, round_no=1, tag=Tag(2, 0), value="v")
        )
        op = make_operation_id(1)
        effects = protocol.on_message(1, ReadQuery(op=op, round_no=1))
        ack = only(effects, Send).message
        assert isinstance(ack, ReadAck)
        assert ack.tag == Tag(2, 0)
        assert ack.value == "v"


class TestDurableAcks:
    """Crash-recovery responders may only ack durable tags."""

    def test_ack_deferred_until_store_completes(self):
        protocol = make(PersistentAtomicProtocol, pid=1)
        complete_initialization(protocol)
        effects = protocol.on_message(
            0, WriteRequest(op=None, round_no=1, tag=Tag(5, 0), value="v")
        )
        # No Send yet -- only the store.
        assert effects_of_type(effects, Send) == []
        store = only(effects, Store)
        assert store.key == "written"
        effects = protocol.on_store_complete(store.token)
        ack = only(effects, Send).message
        assert isinstance(ack, WriteAck)
        assert ack.tag == Tag(5, 0)
        assert protocol.durable_tag == Tag(5, 0)

    def test_already_durable_tag_acked_immediately(self):
        protocol = make(PersistentAtomicProtocol, pid=1)
        complete_initialization(protocol)
        effects = protocol.on_message(
            0, WriteRequest(op=None, round_no=1, tag=Tag(5, 0), value="v")
        )
        protocol.on_store_complete(only(effects, Store).token)
        # Retransmission of the same request: ack without a new store.
        effects = protocol.on_message(
            0, WriteRequest(op=None, round_no=2, tag=Tag(5, 0), value="v")
        )
        assert effects_of_type(effects, Store) == []
        only(effects, Send)

    def test_ack_for_covered_tag_waits_for_inflight_store(self):
        # durable < requested <= volatile: the covering store is in
        # flight; the ack must wait for it.
        protocol = make(PersistentAtomicProtocol, pid=1)
        complete_initialization(protocol)
        effects_hi = protocol.on_message(
            0, WriteRequest(op=None, round_no=1, tag=Tag(7, 0), value="hi")
        )
        store_hi = only(effects_hi, Store)
        # A lower (but not yet durable) tag arrives from elsewhere.
        effects_lo = protocol.on_message(
            2, WriteRequest(op=None, round_no=1, tag=Tag(6, 2), value="lo")
        )
        assert effects_lo == []  # parked: neither Send nor Store
        effects = protocol.on_store_complete(store_hi.token)
        sends = effects_of_type(effects, Send)
        assert {send.message.tag for send in sends} == {Tag(7, 0), Tag(6, 2)}

    def test_crash_stop_responder_acks_from_volatile_state(self):
        protocol = make(CrashStopMwmrProtocol, pid=1)
        complete_initialization(protocol)
        effects = protocol.on_message(
            0, WriteRequest(op=None, round_no=1, tag=Tag(5, 0), value="v")
        )
        only(effects, Send)
        assert effects_of_type(effects, Store) == []


class TestPersistentWrite:
    def run_query_round(self, protocol, op):
        effects = protocol.invoke_write(op, "v")
        round_no = only(effects, Broadcast).message.round_no
        protocol.on_message(0, SnAck(op=op, round_no=round_no, tag=bottom_tag()))
        return protocol.on_message(1, SnAck(op=op, round_no=round_no, tag=bottom_tag()))

    def test_writer_logs_writing_before_broadcasting(self):
        protocol = make(PersistentAtomicProtocol)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = self.run_query_round(protocol, op)
        # After the SN quorum: a `writing` store, and no broadcast yet.
        store = only(effects, Store)
        assert store.key == "writing"
        assert effects_of_type(effects, Broadcast) == []
        # Once the pre-log is durable, the second round begins.
        effects = protocol.on_store_complete(store.token)
        w = only(effects, Broadcast).message
        assert isinstance(w, WriteRequest)
        assert w.tag == Tag(1, 0)

    def test_write_completes_after_majority_of_durable_acks(self):
        protocol = make(PersistentAtomicProtocol)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = self.run_query_round(protocol, op)
        effects = protocol.on_store_complete(only(effects, Store).token)
        w = only(effects, Broadcast).message
        protocol.on_message(1, WriteAck(op=op, round_no=w.round_no, tag=w.tag))
        effects = protocol.on_message(2, WriteAck(op=op, round_no=w.round_no, tag=w.tag))
        assert only(effects, Reply).op == op

    def test_initialize_logs_two_records(self):
        protocol = make(PersistentAtomicProtocol)
        effects = protocol.initialize()
        stores = effects_of_type(effects, Store)
        assert {store.key for store in stores} == {"writing", "written"}
        # Ready only after both are durable.
        first = protocol.on_store_complete(stores[0].token)
        assert effects_of_type(first, RecoveryComplete) == []
        second = protocol.on_store_complete(stores[1].token)
        only(second, RecoveryComplete)


class TestPersistentRecovery:
    def test_recovery_restores_state_and_replays_writing(self):
        records = {
            "written": (Tag(4, 2).as_tuple(), "durable-value"),
            "writing": (Tag(5, 0).as_tuple(), "interrupted"),
        }
        protocol = make(PersistentAtomicProtocol, records=records)
        effects = protocol.recover()
        assert protocol.tag == Tag(4, 2)
        assert protocol.value == "durable-value"
        replay = only(effects, Broadcast).message
        assert isinstance(replay, WriteRequest)
        assert replay.op is None
        assert replay.tag == Tag(5, 0)
        assert replay.value == "interrupted"

    def test_recovery_completes_after_majority_acks_the_replay(self):
        records = {
            "written": (bottom_tag().as_tuple(), None),
            "writing": (Tag(5, 0).as_tuple(), "x"),
        }
        protocol = make(PersistentAtomicProtocol, records=records)
        effects = protocol.recover()
        replay = only(effects, Broadcast).message
        protocol.on_message(1, WriteAck(op=None, round_no=replay.round_no, tag=replay.tag))
        effects = protocol.on_message(
            2, WriteAck(op=None, round_no=replay.round_no, tag=replay.tag)
        )
        only(effects, RecoveryComplete)

    def test_operations_rejected_while_recovering(self):
        records = {"writing": (bottom_tag().as_tuple(), None)}
        protocol = make(PersistentAtomicProtocol, records=records)
        protocol.recover()
        with pytest.raises(ProtocolError):
            protocol.invoke_write(make_operation_id(0), "v")

    def test_recovery_with_empty_storage_replays_bottom(self):
        protocol = make(PersistentAtomicProtocol)
        effects = protocol.recover()
        replay = only(effects, Broadcast).message
        assert replay.tag == bottom_tag()


class TestTransientWrite:
    def test_writer_broadcasts_without_pre_log(self):
        protocol = make(TransientAtomicProtocol)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "v")
        round_no = only(effects, Broadcast).message.round_no
        protocol.on_message(0, SnAck(op=op, round_no=round_no, tag=bottom_tag()))
        effects = protocol.on_message(1, SnAck(op=op, round_no=round_no, tag=bottom_tag()))
        assert effects_of_type(effects, Store) == []
        w = only(effects, Broadcast).message
        assert isinstance(w, WriteRequest)
        assert w.tag == Tag(1, 0, 0)

    def test_sn_increment_includes_recovery_count(self):
        # Figure 5, line 11: sn := sn + rec + 1.
        records = {"recovered": (3,), "written": (Tag(2, 0).as_tuple(), "v")}
        protocol = make(TransientAtomicProtocol, records=records)
        effects = protocol.recover()
        protocol.on_store_complete(only(effects, Store).token)
        assert protocol.rec == 4
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "w")
        round_no = only(effects, Broadcast).message.round_no
        protocol.on_message(0, SnAck(op=op, round_no=round_no, tag=Tag(6, 1)))
        effects = protocol.on_message(1, SnAck(op=op, round_no=round_no, tag=Tag(2, 0)))
        w = only(effects, Broadcast).message
        assert w.tag == Tag(6 + 4 + 1, 0, 4)


class TestTransientRecovery:
    def test_recovery_bumps_and_persists_the_counter(self):
        records = {"recovered": (0,), "written": (Tag(3, 1).as_tuple(), "v")}
        protocol = make(TransientAtomicProtocol, records=records)
        effects = protocol.recover()
        assert protocol.tag == Tag(3, 1)
        assert protocol.value == "v"
        assert protocol.rec == 1
        store = only(effects, Store)
        assert store.key == "recovered"
        assert store.record == (1,)
        # No write replay in the transient algorithm.
        assert effects_of_type(effects, Broadcast) == []
        effects = protocol.on_store_complete(store.token)
        only(effects, RecoveryComplete)

    def test_repeated_recoveries_keep_counting(self):
        records = {}
        protocol = make(TransientAtomicProtocol, records=records)
        for expected in (1, 2, 3):
            effects = protocol.crash() or protocol.recover()
            store = only(effects, Store)
            records["recovered"] = store.record  # environment persists it
            protocol.on_store_complete(store.token)
            assert protocol.rec == expected


class TestReadFlow:
    def test_read_picks_highest_tag_and_writes_back(self):
        protocol = make(CrashStopMwmrProtocol, pid=1)
        complete_initialization(protocol)
        op = make_operation_id(1)
        effects = protocol.invoke_read(op)
        query = only(effects, Broadcast).message
        assert isinstance(query, ReadQuery)
        protocol.on_message(
            0, ReadAck(op=op, round_no=query.round_no, tag=Tag(3, 0), value="newer")
        )
        effects = protocol.on_message(
            2, ReadAck(op=op, round_no=query.round_no, tag=Tag(1, 2), value="older")
        )
        writeback = only(effects, Broadcast).message
        assert isinstance(writeback, WriteRequest)
        assert writeback.tag == Tag(3, 0)
        assert writeback.value == "newer"

    def test_read_returns_value_after_writeback_quorum(self):
        protocol = make(CrashStopMwmrProtocol, pid=1)
        complete_initialization(protocol)
        op = make_operation_id(1)
        effects = protocol.invoke_read(op)
        round_no = only(effects, Broadcast).message.round_no
        protocol.on_message(
            0, ReadAck(op=op, round_no=round_no, tag=Tag(3, 0), value="v")
        )
        effects = protocol.on_message(
            2, ReadAck(op=op, round_no=round_no, tag=Tag(3, 0), value="v")
        )
        w = only(effects, Broadcast).message
        protocol.on_message(0, WriteAck(op=op, round_no=w.round_no, tag=w.tag))
        effects = protocol.on_message(2, WriteAck(op=op, round_no=w.round_no, tag=w.tag))
        reply = only(effects, Reply)
        assert reply.result == "v"


class TestRetransmission:
    def test_timer_rebroadcasts_open_round(self):
        protocol = make(CrashStopMwmrProtocol)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "v")
        timer = only(effects, SetTimer)
        original = only(effects, Broadcast).message
        effects = protocol.on_timer(timer.token)
        assert only(effects, Broadcast).message == original
        assert only(effects, SetTimer).token == timer.token

    def test_completed_round_cancels_retransmission(self):
        protocol = make(CrashStopMwmrProtocol)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "v")
        timer = only(effects, SetTimer)
        round_no = only(effects, Broadcast).message.round_no
        protocol.on_message(0, SnAck(op=op, round_no=round_no, tag=bottom_tag()))
        effects = protocol.on_message(1, SnAck(op=op, round_no=round_no, tag=bottom_tag()))
        cancels = effects_of_type(effects, CancelTimer)
        assert any(cancel.token == timer.token for cancel in cancels)

    def test_stale_timer_is_ignored(self):
        protocol = make(CrashStopMwmrProtocol)
        complete_initialization(protocol)
        assert protocol.on_timer(("retry", 999)) == []

    @pytest.mark.parametrize("interval", [0, -1, float("nan")])
    @pytest.mark.parametrize(
        "cls", [PersistentAtomicProtocol, TransientAtomicProtocol, CrashStopMwmrProtocol]
    )
    def test_a_non_positive_retransmit_interval_is_refused(self, cls, interval):
        # Built directly, not through ClusterConfig: a round armed with
        # a zero period would rebroadcast at the same instant forever.
        with pytest.raises(ProtocolError, match="retransmit_interval"):
            cls(0, 3, StableView({}), retransmit_interval=interval)


class TestAbd:
    def test_only_process_zero_may_write(self):
        protocol = make(AbdSwmrProtocol, pid=1)
        complete_initialization(protocol)
        with pytest.raises(ProtocolError):
            protocol.invoke_write(make_operation_id(1), "v")

    def test_write_skips_the_query_round(self):
        protocol = make(AbdSwmrProtocol, pid=0)
        complete_initialization(protocol)
        op = make_operation_id(0)
        effects = protocol.invoke_write(op, "v")
        w = only(effects, Broadcast).message
        assert isinstance(w, WriteRequest)
        assert w.tag == Tag(1, 0)

    def test_sequence_numbers_increase_locally(self):
        protocol = make(AbdSwmrProtocol, pid=0)
        complete_initialization(protocol)
        tags = []
        for i in range(3):
            op = make_operation_id(0)
            effects = protocol.invoke_write(op, i)
            w = only(effects, Broadcast).message
            tags.append(w.tag)
            protocol.on_message(0, WriteAck(op=op, round_no=w.round_no, tag=w.tag))
            protocol.on_message(1, WriteAck(op=op, round_no=w.round_no, tag=w.tag))
        assert tags == [Tag(1, 0), Tag(2, 0), Tag(3, 0)]
