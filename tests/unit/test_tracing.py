"""Unit tests for the trace event log."""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.obs import tracing
from repro.obs.tracing import NULL_TRACE, Trace, TraceEvent

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def event(kind=tracing.SEND, pid=0, time=1.0, **detail):
    return TraceEvent(time=time, kind=kind, pid=pid, detail=detail)


def record(trace, kind=tracing.SEND, pid=0, time=1.0, op=None, *detail):
    trace.record(kind, time, pid, op, *detail)


class TestTrace:
    def test_emit_appends_in_order(self):
        trace = Trace()
        record(trace, pid=0)
        record(trace, pid=1)
        assert [e.pid for e in trace.events] == [0, 1]
        assert len(trace) == 2

    def test_counts_by_kind_even_without_capture(self):
        trace = Trace(capture=False)
        record(trace, tracing.SEND)
        record(trace, tracing.SEND)
        record(trace, tracing.CRASH)
        assert trace.count(tracing.SEND) == 2
        assert trace.count(tracing.CRASH) == 1
        assert trace.events == []

    def test_listeners_run_synchronously(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.record(tracing.DELIVER, 1.0, 2, "p0#1", 0, "W")
        assert seen == [event(tracing.DELIVER, pid=2, src=0, msg="W", op="p0#1")]
        assert seen == trace.events

    def test_unsubscribe_stops_delivery(self):
        trace = Trace()
        seen = []
        unsubscribe = trace.subscribe(seen.append)
        record(trace)
        unsubscribe()
        record(trace)
        assert len(seen) == 1

    def test_unsubscribe_is_idempotent(self):
        trace = Trace()
        unsubscribe = trace.subscribe(lambda e: None)
        unsubscribe()
        unsubscribe()

    def test_listener_may_emit_followup_events(self):
        # The failure injector reacts to events by crashing nodes, which
        # emits a crash event from within the listener callback.
        trace = Trace()

        def listener(e):
            if e.kind == tracing.SEND:
                record(trace, tracing.CRASH)

        trace.subscribe(listener)
        record(trace, tracing.SEND)
        assert trace.count(tracing.CRASH) == 1

    def test_event_str_contains_details(self):
        text = str(event(kind=tracing.DELIVER, pid=2, msg="W"))
        assert "deliver" in text
        assert "msg=W" in text


class TestPerKindSubscription:
    def test_kind_listener_sees_only_its_kinds(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append, kinds=[tracing.SEND, tracing.DROP])
        record(trace, tracing.SEND)
        record(trace, tracing.DELIVER)
        record(trace, tracing.DROP)
        assert [e.kind for e in seen] == [tracing.SEND, tracing.DROP]

    def test_kind_listener_unsubscribe(self):
        trace = Trace()
        seen = []
        unsubscribe = trace.subscribe(seen.append, kinds=[tracing.SEND])
        record(trace, tracing.SEND)
        unsubscribe()
        record(trace, tracing.SEND)
        assert len(seen) == 1

    def test_all_kind_listeners_run_before_kind_listeners(self):
        trace = Trace()
        order = []
        trace.subscribe(lambda e: order.append("kind"), kinds=[tracing.SEND])
        trace.subscribe(lambda e: order.append("all"))
        record(trace, tracing.SEND)
        assert order == ["all", "kind"]


class TestFastPath:
    def test_capturing_trace_wants_everything(self):
        trace = Trace(capture=True)
        for kind in tracing.ALL_KINDS:
            assert trace.wants(kind)

    def test_quiet_trace_wants_nothing(self):
        trace = Trace(capture=False)
        for kind in tracing.ALL_KINDS:
            assert not trace.wants(kind)

    def test_kind_subscription_wants_only_that_kind(self):
        trace = Trace(capture=False)
        unsubscribe = trace.subscribe(lambda e: None, kinds=[tracing.STORE_END])
        assert trace.wants(tracing.STORE_END)
        assert not trace.wants(tracing.SEND)
        unsubscribe()
        assert not trace.wants(tracing.STORE_END)

    def test_all_kind_subscription_deactivates_the_fast_path(self):
        trace = Trace(capture=False)
        unsubscribe = trace.subscribe(lambda e: None)
        assert all(trace.wants(kind) for kind in tracing.ALL_KINDS)
        unsubscribe()
        assert not any(trace.wants(kind) for kind in tracing.ALL_KINDS)

    def test_a_quiet_record_counts_without_an_event(self):
        trace = Trace(capture=False)
        record(trace, tracing.SEND)
        record(trace, tracing.SEND)
        assert trace.count(tracing.SEND) == 2
        assert trace.events == []

    @pytest.mark.parametrize("capacity", [1, 3, 7, 64])
    def test_counts_are_exact_across_the_rings_laps(self, capacity):
        # A record is not counted: each lap of the ring is folded into
        # the totals when the cursor wraps, and count() adds the lap in
        # progress.
        ringed = Trace(capture=False, ring_capacity=capacity)
        counted = Counter()
        kinds = tracing.ALL_KINDS
        for index in range(5 * capacity + 3):
            kind = kinds[(index * index + index // 3) % len(kinds)]
            record(ringed, kind, pid=index % 4)
            counted[kind] += 1
            for probe in kinds:
                assert ringed.count(probe) == counted[probe], (index, probe)
        assert sum(map(ringed.count, kinds)) == ringed.ring.total == 5 * capacity + 3
        assert ringed.count("no-such-kind") == 0

    def test_a_listened_kind_unsubscribed_leaves_nothing_wanted(self):
        trace = Trace(capture=False)
        unsubscribe = trace.subscribe(lambda e: None, kinds=[tracing.SEND])
        unsubscribe()
        assert trace._wanted is tracing._NOBODY
        record(trace, tracing.SEND)
        assert trace.count(tracing.SEND) == 1 and trace.events == []

    def test_null_trace_wants_nothing_and_refuses_listeners(self):
        assert not NULL_TRACE.wants(tracing.SEND)
        assert not NULL_TRACE.capturing
        with pytest.raises(ValueError):
            NULL_TRACE.subscribe(lambda e: None)


#: The flight recorder stores a kind as its position in ``ALL_KINDS``,
#: so an exported ring decodes only while existing positions never move.
#: A new kind is appended to ``ALL_KINDS`` *and* here: the second append
#: acknowledges that the encoding grew.
PINNED = (
    "send",
    "deliver",
    "drop",
    "duplicate",
    "store_begin",
    "store_end",
    "invoke",
    "reply",
    "crash",
    "recover",
    "recovery_done",
    "timer",
    "ckpt_begin",
    "ckpt_tentative",
    "ckpt_commit",
)


class TestKindEncoding:
    def test_all_kinds_is_the_pinned_manifest(self):
        assert tuple(tracing.ALL_KINDS) == PINNED
        assert len(set(tracing.ALL_KINDS)) == len(tracing.ALL_KINDS)


class TestEmitterContract:
    """What an event costs when nobody looks is decided in ``repro.obs``."""

    def test_no_module_outside_obs_builds_or_guards_events(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.parent == SRC / "obs":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute):
                    called = func.attr in ("TraceEvent", "emit", "tick", "wants")
                else:
                    called = isinstance(func, ast.Name) and func.id == "TraceEvent"
                if called:
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []

    def test_a_kind_names_at_most_three_detail_slots_besides_op(self):
        assert tuple(tracing.DETAIL_FIELDS) == tracing.ALL_KINDS
        for names in tracing.DETAIL_FIELDS.values():
            assert len([name for name in names if name != "op"]) <= 3
            assert len(set(names)) == len(names)
