"""Unit tests for failure schedules and trigger-based injection."""

import pytest

from repro.common.errors import ConfigurationError
from repro.cluster import SimCluster
from repro.obs import tracing
from repro.sim.failures import (
    CrashSchedule,
    FailureAction,
    RandomCrashPlan,
    Trigger,
)


class TestCrashSchedule:
    def test_actions_sorted_by_time(self):
        schedule = CrashSchedule()
        schedule.recover(2.0, 0).crash(1.0, 0)
        assert [a.action for a in schedule.actions] == ["crash", "recover"]

    def test_downtime_builds_a_pair(self):
        schedule = CrashSchedule().downtime(3, 1.0, 2.0)
        assert len(schedule) == 2
        assert schedule.actions[0].pid == 3

    def test_downtime_validates_window(self):
        with pytest.raises(ConfigurationError):
            CrashSchedule().downtime(0, 2.0, 1.0)

    def test_action_validation(self):
        with pytest.raises(ConfigurationError):
            FailureAction(time=1.0, action="explode", pid=0)
        with pytest.raises(ConfigurationError):
            FailureAction(time=-1.0, action="crash", pid=0)

    def test_installed_schedule_executes(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        cluster.install_schedule(CrashSchedule().downtime(2, 0.001, 0.002))
        cluster.run(duration=0.0015)
        assert cluster.node(2).crashed
        cluster.run_until(lambda: cluster.node(2).ready, timeout=0.1)
        assert cluster.node(2).ready

    def test_redundant_actions_are_skipped(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        schedule = CrashSchedule().crash(0.001, 1).crash(0.002, 1)
        cluster.install_schedule(schedule)
        cluster.run(duration=0.01)  # second crash must not raise
        assert cluster.node(1).crashed


class TestTriggers:
    def test_crash_fires_on_matching_event(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        cluster.injector.crash_when(
            lambda e: e.kind == tracing.STORE_END and e.pid == 1, pid=0
        )
        cluster.write(0, "x")
        cluster.run_until(lambda: cluster.node(0).crashed, timeout=1.0)
        assert cluster.node(0).crashed

    def test_count_skips_earlier_matches(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        trigger = cluster.injector.crash_when(
            lambda e: e.kind == tracing.REPLY and e.pid == 0, pid=0, count=2
        )
        cluster.write_sync(0, "first")
        assert not trigger.fired
        cluster.write_sync(0, "second")
        assert trigger.fired
        assert cluster.node(0).crashed

    def test_trigger_fires_only_once(self):
        trigger = Trigger(predicate=lambda e: True, action="crash", pid=0)
        from repro.obs.tracing import TraceEvent

        event = TraceEvent(time=0.0, kind=tracing.SEND, pid=0)
        assert trigger.matches(event)
        trigger.fired = True
        assert not trigger.matches(event)

    def test_delayed_trigger_action(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        cluster.injector.crash_when(
            lambda e: e.kind == tracing.REPLY, pid=1, delay=0.005
        )
        cluster.write_sync(0, "x")
        assert not cluster.node(1).crashed
        cluster.run(duration=0.006)
        assert cluster.node(1).crashed

    def test_triggers_fire_instant_precise_without_capture(self):
        # The injector subscribes to the trace lazily (so trigger-less
        # benchmark runs keep the emission fast path); installing a
        # trigger on a capture_trace=False cluster must still fire at
        # the exact instant of the matched event, before the simulator
        # processes anything else.
        cluster = SimCluster(
            protocol="persistent", num_processes=3, capture_trace=False
        )
        cluster.start()
        cluster.injector.crash_when(
            lambda e: e.kind == tracing.STORE_END and e.pid == 1, pid=0
        )
        store_end_times = []
        unsubscribe = cluster.trace.subscribe(
            lambda e: store_end_times.append(e.time) if e.pid == 1 else None,
            kinds=[tracing.STORE_END],
        )
        cluster.write(0, "x")
        cluster.run_until(lambda: cluster.node(0).crashed, timeout=1.0)
        assert cluster.node(0).crashed
        # The crash happened at the very instant of p1's store_end.
        assert cluster.trace.count(tracing.CRASH) == 1
        assert store_end_times and cluster.now == store_end_times[0]
        unsubscribe()

    def test_injector_without_triggers_keeps_fast_path(self):
        cluster = SimCluster(
            protocol="persistent", num_processes=3, capture_trace=False
        )
        cluster.start()
        # Nothing subscribed: every kind stays on the tick-only path.
        assert not cluster.trace.wants(tracing.SEND)
        cluster.injector.crash_when(lambda e: False, pid=0)
        # An installed trigger must see every kind (predicates are opaque).
        assert cluster.trace.wants(tracing.SEND)

    def test_recover_trigger(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        cluster.crash(2)
        cluster.injector.recover_when(
            lambda e: e.kind == tracing.REPLY and e.pid == 0, pid=2
        )
        cluster.write_sync(0, "x")
        cluster.run_until(lambda: cluster.node(2).ready, timeout=1.0)
        assert cluster.node(2).ready


class TestRandomCrashPlan:
    def test_plans_are_deterministic_per_seed(self):
        plan_a = RandomCrashPlan(5, horizon=1.0, seed=3).generate()
        plan_b = RandomCrashPlan(5, horizon=1.0, seed=3).generate()
        assert [
            (a.time, a.action, a.pid) for a in plan_a.actions
        ] == [(a.time, a.action, a.pid) for a in plan_b.actions]

    def test_concurrent_downtime_bounded_to_minority(self):
        plan = RandomCrashPlan(5, horizon=1.0, seed=1, crash_rate=1.0).generate()
        # Sweep the windows: at no instant are 3+ of 5 processes down.
        events = sorted(
            (a.time, 1 if a.action == "crash" else -1) for a in plan.actions
        )
        down = 0
        for _, delta in events:
            down += delta
            assert down <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomCrashPlan(0, horizon=1.0)
        with pytest.raises(ConfigurationError):
            RandomCrashPlan(3, horizon=0.0)
        with pytest.raises(ConfigurationError):
            RandomCrashPlan(3, horizon=1.0, crash_rate=1.5)
