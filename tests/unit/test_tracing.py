"""Unit tests for the trace event log."""

import pytest

from repro.obs import tracing
from repro.obs.tracing import NULL_TRACE, Trace, TraceEvent


def event(kind=tracing.SEND, pid=0, time=1.0, **detail):
    return TraceEvent(time=time, kind=kind, pid=pid, detail=detail)


class TestTrace:
    def test_emit_appends_in_order(self):
        trace = Trace()
        trace.emit(event(pid=0))
        trace.emit(event(pid=1))
        assert [e.pid for e in trace.events] == [0, 1]
        assert len(trace) == 2

    def test_counts_by_kind_even_without_capture(self):
        trace = Trace(capture=False)
        trace.emit(event(kind=tracing.SEND))
        trace.emit(event(kind=tracing.SEND))
        trace.emit(event(kind=tracing.CRASH))
        assert trace.count(tracing.SEND) == 2
        assert trace.count(tracing.CRASH) == 1
        assert trace.events == []

    def test_filter_by_kind_and_pid(self):
        trace = Trace()
        trace.emit(event(kind=tracing.SEND, pid=0))
        trace.emit(event(kind=tracing.SEND, pid=1))
        trace.emit(event(kind=tracing.CRASH, pid=1))
        assert len(trace.filter(kind=tracing.SEND)) == 2
        assert len(trace.filter(pid=1)) == 2
        assert len(trace.filter(kind=tracing.SEND, pid=1)) == 1

    def test_listeners_run_synchronously(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        probe = event()
        trace.emit(probe)
        assert seen == [probe]

    def test_unsubscribe_stops_delivery(self):
        trace = Trace()
        seen = []
        unsubscribe = trace.subscribe(seen.append)
        trace.emit(event())
        unsubscribe()
        trace.emit(event())
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
                trace.emit(event(kind=tracing.CRASH))

        trace.subscribe(listener)
        trace.emit(event(kind=tracing.SEND))
        assert trace.count(tracing.CRASH) == 1

    def test_format_renders_requested_kinds(self):
        trace = Trace()
        trace.emit(event(kind=tracing.SEND, pid=3))
        trace.emit(event(kind=tracing.CRASH, pid=4))
        text = trace.format(kinds=[tracing.CRASH])
        assert "p4" in text
        assert "p3" not in text

    def test_event_str_contains_details(self):
        text = str(event(kind=tracing.DELIVER, pid=2, msg="W"))
        assert "deliver" in text
        assert "msg=W" in text


class TestPerKindSubscription:
    def test_kind_listener_sees_only_its_kinds(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append, kinds=[tracing.SEND, tracing.DROP])
        trace.emit(event(kind=tracing.SEND))
        trace.emit(event(kind=tracing.DELIVER))
        trace.emit(event(kind=tracing.DROP))
        assert [e.kind for e in seen] == [tracing.SEND, tracing.DROP]

    def test_kind_listener_unsubscribe(self):
        trace = Trace()
        seen = []
        unsubscribe = trace.subscribe(seen.append, kinds=[tracing.SEND])
        trace.emit(event(kind=tracing.SEND))
        unsubscribe()
        trace.emit(event(kind=tracing.SEND))
        assert len(seen) == 1

    def test_all_kind_listeners_run_before_kind_listeners(self):
        trace = Trace()
        order = []
        trace.subscribe(lambda e: order.append("kind"), kinds=[tracing.SEND])
        trace.subscribe(lambda e: order.append("all"))
        trace.emit(event(kind=tracing.SEND))
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

    def test_tick_counts_without_an_event(self):
        trace = Trace(capture=False)
        trace.tick(tracing.SEND)
        trace.tick(tracing.SEND)
        assert trace.count(tracing.SEND) == 2
        assert trace.events == []

    def test_null_trace_wants_nothing_and_refuses_listeners(self):
        assert not NULL_TRACE.wants(tracing.SEND)
        assert not NULL_TRACE.capturing
        with pytest.raises(ValueError):
            NULL_TRACE.subscribe(lambda e: None)
