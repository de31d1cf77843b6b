"""Unit tests for the shared process host, once, for both worlds.

:class:`~repro.protocol.host.NodeCore` is driven here through a fake
in-memory driver -- a manual clock, a list of sent messages, stores
completed on demand -- so every interleaving the simulator and the
live runtime can only reach by timing is reached by construction: a
crash at each point of the two-phase checkpoint, callbacks of a dead
incarnation firing late, a register provisioned while the process is
down.  One process is a majority of one, so whole operations run too.

Checkpoint cases that need no such interleaving are in
``tests/unit/test_checkpoint.py``, parametrised over the real drivers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import NotRecoveredError, ProtocolError
from repro.common.ids import make_operation_id
from repro.history.recorder import HistoryRecorder
from repro.protocol.base import (
    RecoveryComplete,
    RegisterProtocol,
    Reply,
    SetTimer,
    Store,
)
from repro.common.timestamps import Tag
from repro.protocol.host import CRASHED, NodeCore
from repro.protocol.messages import MuxBatch, WriteAck, WriteRequest
from repro.protocol.persistent import PersistentAtomicProtocol
from repro.storage import checkpoint as ckpt


class MemoryStorage:
    """The read side of a stable storage, over a plain dictionary."""

    def __init__(self):
        self.records = {}

    def retrieve(self, key):
        return self.records.get(key)

    def record_size(self, key):
        return 8 if key in self.records else 0


class FakeTimer:
    def __init__(self, due, fn, args):
        self.due, self.fn, self.args = due, fn, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def fire(self):
        self.fn(*self.args)


class FakeNode(NodeCore):
    """A one-process cluster whose I/O happens when the test says so."""

    def __init__(self, factory=PersistentAtomicProtocol, num_processes=1, **kwargs):
        self.clock = 0.0
        self.sent = []      # (dst, message, depth), undelivered
        self.stores = []    # (key, record, on_durable), not yet durable
        self.timers = []    # every FakeTimer ever armed
        self.compactions = 0
        super().__init__(
            0,
            num_processes,
            MemoryStorage(),
            factory,
            HistoryRecorder(clock=lambda: self.clock),
            **kwargs,
        )

    # -- the driver primitives ----------------------------------------------

    def _now(self):
        return self.clock

    def _transmit(self, dsts, message, depth):
        self.sent.extend((dst, message, depth) for dst in dsts)

    def _store(self, key, record, size, on_durable, op):
        self.stores.append((key, record, on_durable))

    def _call_later(self, delay, fn, *args):
        timer = FakeTimer(self.clock + delay, fn, args)
        self.timers.append(timer)
        return timer

    _defer = _call_later

    def _delete(self, key):
        self.storage.records.pop(key, None)

    def _compact(self):
        self.compactions += 1

    def _crash_io(self):
        self.stores.clear()  # in-flight stores die with the process
        self.sent.clear()

    def _read_back(self, incarnation):
        self._finish_recover(incarnation)

    # -- what the test drives -------------------------------------------------

    def complete_store(self):
        """Make the oldest in-flight store durable (issue order)."""
        key, record, on_durable = self.stores.pop(0)
        self.storage.records[key] = record
        on_durable()

    def deliver(self):
        """Hand every sent message to its destination (this process)."""
        while self.sent:
            _dst, message, depth = self.sent.pop(0)
            self._on_message(0, message, depth)

    def settle(self):
        """Deliver and complete everything until the process is quiet."""
        while self.sent or self.stores:
            self.deliver()
            while self.stores:
                self.complete_store()

    def advance(self, seconds):
        """Move the clock and fire the timers that came due."""
        self.clock += seconds
        for timer in [t for t in self.timers if t.due <= self.clock]:
            self.timers.remove(timer)
            if not timer.cancelled:
                timer.fire()

    def write(self, value, register=None):
        handle = self.invoke_write(value, register)
        self.settle()
        assert handle.done
        return handle

    def read(self, register=None):
        handle = self.invoke_read(register)
        self.settle()
        assert handle.done
        return handle.result

    def read_named(self, register):
        """A read through the egress window (flushes need the clock)."""
        handle = self.invoke_read(register)
        while not handle.done:
            self.settle()
            self.advance(1e-3)
        return handle.result


class ScriptedProtocol(RegisterProtocol):
    """Logs one record and arms one timer per write; remembers callbacks."""

    def __init__(self, pid, num_processes, stable):
        super().__init__(pid, num_processes, stable)
        self.events = []

    def initialize(self):
        return [RecoveryComplete()]

    recover = initialize

    def invoke_read(self, op):
        return [Reply(op=op, result=self.stable.retrieve("k"))]

    def invoke_write(self, op, value):
        return [
            Store(key="k", record=(value,), size=1, token="log"),
            SetTimer(delay=1.0, token="retry"),
        ]

    def on_message(self, src, message):
        return []

    def on_store_complete(self, token):
        self.events.append(("store", token))
        return []

    def on_timer(self, token):
        self.events.append(("timer", token))
        return []


@pytest.fixture
def node():
    node = FakeNode()
    node.boot()
    node.settle()
    assert node.ready
    return node


def restart(node):
    node.recover()
    node.settle()
    assert node.ready


class TestCheckpointCrashPoints:
    def test_crash_before_the_tentative_store_is_durable(self, node):
        node.write("v")
        assert node.begin_checkpoint() is True
        assert [key for key, _r, _cb in node.stores] == [ckpt.TENTATIVE_KEY]
        node.crash()
        assert not node.checkpoint_in_progress
        restart(node)
        # Nothing of the abandoned checkpoint is visible anywhere.
        assert node.storage.retrieve(ckpt.TENTATIVE_KEY) is None
        assert node.storage.retrieve(ckpt.PERMANENT_KEY) is None
        assert node._ckpt_seq == 0 and node.checkpoints_committed == 0
        assert node.read() == "v"
        # ...and the next one starts from scratch and commits.
        assert node.begin_checkpoint() is True
        node.settle()
        assert node.checkpoints_committed == 1 and node._ckpt_seq == 1

    def test_crash_between_the_phases(self, node):
        node.write("v")
        assert node.begin_checkpoint() is True
        node.complete_store()  # tentative durable, permanent issued
        assert [key for key, _r, _cb in node.stores] == [ckpt.PERMANENT_KEY]
        node.crash()
        restart(node)
        # The stray tentative record is ignored: no snapshot, log intact.
        assert node.storage.retrieve(ckpt.TENTATIVE_KEY) is not None
        assert node.storage.retrieve(ckpt.PERMANENT_KEY) is None
        assert node._ckpt_seq == 0
        assert node.storage.retrieve("written") is not None
        assert node.read() == "v"
        # The next committed checkpoint supersedes the stray record.
        assert node.begin_checkpoint() is True
        node.settle()
        assert node.checkpoints_committed == 1
        assert node.storage.retrieve(ckpt.TENTATIVE_KEY) is None

    def test_crash_after_commit(self, node):
        node.write("v")
        assert node.begin_checkpoint() is True
        node.settle()
        assert node.checkpoints_committed == 1 and node.compactions == 1
        assert node.storage.retrieve("written") is None  # truncated
        assert node._stable_view.checkpointed("written")
        node.crash()
        assert node._snapshot  # volatile copy; recovery reloads it anyway
        restart(node)
        assert node._ckpt_seq == 1
        assert node.recovery_times == [0.0]
        assert node.read() == "v"

    def test_checkpoint_refused_while_down_or_in_progress(self, node):
        node.write("v")
        assert node.begin_checkpoint() is True
        assert node.begin_checkpoint() is False  # one at a time
        node.settle()
        assert node.begin_checkpoint() is False  # nothing new to capture
        node.crash()
        assert node.begin_checkpoint() is False
        node.recover()
        assert node.begin_checkpoint() is False  # still recovering


class TestIncarnationGuard:
    def test_stale_store_and_timer_callbacks_are_dropped(self):
        node = FakeNode(factory=ScriptedProtocol)
        node.boot()
        handle = node.invoke_write("v")
        (_key, _record, stale_store), = node.stores
        (stale_timer,) = node.timers
        node.crash()
        assert handle.aborted and not handle.done
        assert stale_timer.cancelled and node.stores == []
        node.recover()
        assert node.ready
        # A driver whose store completion or timer cancel lost the race
        # with the crash still calls back; the dead incarnation's
        # callbacks must not reach the new incarnation's protocol.
        stale_store()
        stale_timer.fire()
        assert node.protocol.events == []
        # The same callbacks of the live incarnation do.
        node.invoke_write("w")
        node.complete_store()
        node.advance(1.0)
        assert node.protocol.events == [("store", "log"), ("timer", "retry")]

    def test_a_timer_armed_again_under_a_live_token_replaces_it(self):
        """The host's contract with any protocol: one timer per token.

        A ``SetTimer`` whose token names a timer still armed cancels
        that timer, so the protocol hears the token once, at the new
        deadline.
        """
        node = FakeNode(factory=ScriptedProtocol)
        node.boot()
        node.invoke_write("v")
        node.complete_store()
        (first,) = node.timers
        node._execute(
            [SetTimer(delay=2.0, token="retry")], depth=0, op=None, slot=node._slots[None]
        )
        assert first.cancelled
        node.advance(1.0)
        assert node.protocol.events == [("store", "log")]
        node.advance(1.0)
        assert node.protocol.events == [("store", "log"), ("timer", "retry")]
        assert node._recorder.history.is_well_formed()

    def test_stale_checkpoint_phase_is_dropped(self, node):
        node.write("v")
        node.begin_checkpoint()
        (_key, _record, stale_tentative), = node.stores
        node.crash()
        restart(node)
        stale_tentative()
        assert node.stores == [] and not node.checkpoint_in_progress

    def test_frames_queued_by_a_dead_incarnation_die_with_it(self):
        node = FakeNode(batch_window=1e-3)
        node.boot()
        node.provision_register("k")
        assert node.sent == []  # named-slot frames wait for the window
        node.crash()
        node.advance(1e-3)
        assert node.sent == []


class TestRegisterHosting:
    def test_slot_provisioned_while_crashed_boots_on_recovery(self, node):
        node.crash()
        node.provision_register("k")
        assert node.has_register("k") and not node.register_ready("k")
        assert node.stores == []  # dormant: nothing initialised yet
        node.recover()
        with pytest.raises(NotRecoveredError):
            node.invoke_read("k")
        node.settle()
        assert node.ready and node.register_ready("k")
        node.write("named", register="k")
        assert node.read("k") == "named"
        assert node.read() is None  # the default register is untouched

    def test_named_slot_frames_coalesce_within_the_window(self):
        node = FakeNode(batch_window=1e-3)
        node.boot()
        for key in ("a", "b"):
            node.provision_register(key)
        for _ in range(4):  # initial stores, then nothing left to flush
            node.settle()
            node.advance(1e-3)
        assert node.register_ready("a") and node.register_ready("b")
        first = node.invoke_write(1, "a")
        second = node.invoke_write(2, "b")
        assert node.register_busy("a") and node.sent == []
        node.settle()
        node.advance(1e-3)
        # Both registers' first-round frames left in one datagram.
        (dst, batch, depth), = node.sent
        assert batch.__class__ is MuxBatch and dst == 0 and depth == 0
        assert [frame.register for frame in batch.frames] == ["a", "b"]
        for _ in range(8):
            node.settle()
            node.advance(1e-3)
        assert first.done and second.done
        assert (node.read_named("a"), node.read_named("b")) == (1, 2)

    def test_a_broadcast_queues_one_frame_for_every_destination(self):
        node = FakeNode(num_processes=3, batch_window=1e-3)
        node.boot()
        node.provision_register("a")
        node.settle()
        assert node.register_ready("a") and node.sent == []
        node.invoke_write(1, "a")  # first round: Broadcast(SnQuery)
        node.advance(1e-3)
        assert [dst for dst, _batch, _depth in node.sent] == [0, 1, 2]
        (first,), (second,), (third,) = (batch.frames for _dst, batch, _depth in node.sent)
        assert first is second is third
        assert first.register == "a" and first.message.kind == "SnQuery"

    def test_a_repeated_recovery_complete_is_counted_once(self, node):
        node._execute([RecoveryComplete()], depth=0, op=None, slot=node._slots[None])
        node.provision_register("k")
        assert not node.ready and not node.register_ready("k")
        node.settle()
        assert node.ready

    def test_reply_for_an_unknown_operation_raises(self, node):
        stray = Reply(op=make_operation_id(0), result=None)
        with pytest.raises(ProtocolError, match="unknown operation"):
            node._execute([stray], depth=0, op=None, slot=node._slots[None])

    def test_recovery_duration_is_observed(self, node):
        seen = []
        node.on_recovery_time = seen.append
        node.crash()
        node.recover()
        node.clock += 0.25
        node.settle()
        assert node.recovery_times == seen == [0.25]
        assert node.crash_count == node.incarnation == 1



@pytest.mark.parametrize(
    "option, refused",
    [("batch_window", -1.0), ("checkpoint_interval", 0.0), ("checkpoint_interval", -1.0)],
)
def test_a_nan_interval_is_refused_like_an_out_of_range_one(option, refused):
    # A NaN checkpoint interval armed a timer at time NaN, which sent a
    # virtual run down the kernel's live branch.
    with pytest.raises(ProtocolError) as out_of_range:
        FakeNode(**{option: refused})
    with pytest.raises(ProtocolError) as nan:
        FakeNode(**{option: float("nan")})
    assert str(nan.value) == str(out_of_range.value) == (
        f"{option} must be {'>=' if option == 'batch_window' else '>'} 0"
    )


class TestCausalDepth:
    """The host stamps the paper's causal-log depth (repro.history.causal_logs)."""

    def test_a_completed_store_is_one_more_log_on_the_chain(self, node):
        handle = node.invoke_write("v")
        node.deliver()  # SN round: no log yet
        node.complete_store()  # the writer's pre-log, issued at depth 0
        node.deliver()  # its W round carries depth 1; the responder logs
        node.complete_store()  # ... at depth 1, durable at depth 2
        acks = [(message, depth) for _dst, message, depth in node.sent]
        assert [(m.__class__, d) for m, d in acks] == [(WriteAck, 2)]
        node.settle()
        assert handle.done and handle.causal_logs == 2

    def test_parallel_stores_do_not_stack(self, node):
        # Two logs issued at the same depth are causally independent:
        # both complete at depth 1, the operation's depth stays 1.
        op = make_operation_id(0)
        for sn in (1, 2):
            node._on_message(0, WriteRequest(op, 1, Tag(sn, 0), f"v{sn}"), 0)
        assert len(node.stores) == 2
        node.complete_store()
        node.complete_store()
        assert node._depths.depths.get(op, 0) == 1
        assert {depth for _dst, _message, depth in node.sent} == {1}

    def test_an_ack_released_by_another_operation_carries_its_own_logs(self, node):
        # A parked ack for ``late`` is released by ``early``'s log: the
        # ack must not inherit ``early``'s context, but it does carry
        # every log this process performed for ``late`` (process order).
        early, late = make_operation_id(0), make_operation_id(0)
        node._on_message(0, WriteRequest(early, 1, Tag(2, 0), "x"), 1)
        node._on_message(0, WriteRequest(late, 1, Tag(1, 0), "y"), 3)
        assert not node.sent  # late's ack waits for early's log
        node.complete_store()
        depths = {message.op: depth for _dst, message, depth in node.sent}
        assert depths == {early: 2, late: 3}

    def test_a_deaf_process_hears_nothing(self, node):
        message = WriteRequest(make_operation_id(0), 1, Tag(5, 0), "x")
        node.crash()
        node._on_message(0, message, 0)
        assert not node.stores and not node.sent
        node.recover()  # reads its state back, then recovers: listening
        node._on_message(0, message, 0)
        assert node.protocol.tag == Tag(5, 0)
        node.crash()
        node._read_back = lambda incarnation: None  # still scanning
        node.recover()
        node._on_message(0, message._replace(tag=Tag(6, 0)), 0)
        assert node.protocol.tag < Tag(6, 0)


STEPS = st.lists(
    st.sampled_from(["boot", "crash", "recover", "store", "settle", "a", "b"]),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(STEPS)
def test_ready_is_the_scan_over_the_slots_it_replaced(steps):
    """``NodeCore.ready`` counts unready slots instead of visiting them."""
    node = FakeNode()
    for step in steps:
        if step == "boot":
            if not node._booted:
                node.boot()
        elif step == "crash":
            if not node.crashed:
                node.crash()
        elif step == "recover":
            if node.crashed:
                node.recover()
        elif step == "store":  # half of what lets a slot finish recovering
            if node.stores:
                node.complete_store()
        elif step == "settle":
            node.settle()
        else:
            node.provision_register(step)
        scan = all(slot.ready for slot in node._slots.values())
        assert node.ready == (node.state != CRASHED and scan)
