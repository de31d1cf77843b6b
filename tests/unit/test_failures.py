"""Unit tests for fault steps: timed arming, triggers, random crash plans.

Every fault reaches a cluster as ``(at, verb, args)`` steps armed
through the façade: timed steps with ``defer``, trace-triggered ones
with ``on_event``.
"""

import pytest

from repro.api import open_cluster
from repro.common.errors import ConfigurationError, ProtocolError
from repro.obs import tracing
from repro.scenarios.faults import Downtime, RandomCrashPlan, arm_steps


def started(**kwargs):
    cluster = open_cluster("sim", protocol="persistent", num_processes=3, **kwargs)
    cluster.start()
    return cluster, cluster


class TestCrashSchedule:
    """Timed steps: ``arm_steps`` over ``defer``."""

    def test_actions_sorted_by_time(self):
        # Listed out of order, armed in time order: the recovery at
        # 2ms finds the process the 1ms crash took down.
        cluster, facade = started()
        arm_steps(facade, [
            (2e-3, "recover", (0, False)),
            (1e-3, "crash", (0,)),
        ])
        cluster.run(duration=1.5e-3)
        assert cluster.node(0).crashed
        cluster.run(duration=1e-3)
        assert not cluster.node(0).crashed

    def test_downtime_builds_a_pair(self):
        steps = Downtime(3, 1.0, 2.0).steps(5)
        assert steps == [(1.0, "crash", (3,)), (2.0, "recover", (3, False))]

    def test_downtime_validates_window(self):
        with pytest.raises(ConfigurationError):
            Downtime(0, 2.0, 1.0)

    def test_action_validation(self):
        cluster, facade = started()
        for bad in (
            [(1e-3, "explode", (0,))],
            [(-1.0, "crash", (0,))],
            [(1e-3, "crash", (0,)), (2e-3, "crash", (9,))],
        ):
            with pytest.raises(ConfigurationError):
                arm_steps(facade, bad)
        # Refused lists schedule nothing, not even their valid steps.
        cluster.run(duration=5e-3)
        assert not any(node.crashed for node in cluster.nodes)

    def test_installed_schedule_executes(self):
        cluster, facade = started()
        Downtime(2, 0.001, 0.002).arm(facade)
        cluster.run(duration=0.0015)
        assert cluster.node(2).crashed
        cluster.run_until(lambda: cluster.node(2).ready, timeout=0.1)
        assert cluster.node(2).ready

    def test_redundant_actions_are_skipped(self):
        # A crash of a crashed process and a recovery of a process that
        # is up are explicit skips: independent faults race for the
        # same process.
        cluster, facade = started()
        arm_steps(facade, [
            (0.001, "crash", (1,)),
            (0.002, "crash", (1,)),
            (0.003, "recover", (2, False)),
        ])
        cluster.run(duration=0.01)
        assert cluster.node(1).crashed
        assert not cluster.node(2).crashed
        assert cluster.node(1).crash_count == 1

    def test_other_step_errors_are_not_skipped(self):
        cluster = open_cluster("sim", protocol="crash-stop", num_processes=3)
        cluster.start()
        facade = cluster
        arm_steps(facade, [(0.001, "crash", (1,)), (0.002, "recover", (1, False))])
        cluster.run(duration=0.0015)
        with pytest.raises(ProtocolError, match="never recover"):
            cluster.run(duration=0.001)


class TestTriggers:
    """Trace-triggered steps: ``on_event``."""

    def test_crash_fires_on_matching_event(self):
        cluster, facade = started()
        facade.on_event(tracing.STORE_END, 1, 1, facade.crash, 0)
        cluster.session(0).write("x")
        cluster.run_until(lambda: cluster.node(0).crashed, timeout=1.0)
        assert cluster.node(0).crashed

    def test_count_skips_earlier_matches(self):
        cluster, facade = started()
        facade.on_event(tracing.REPLY, 0, 2, facade.crash, 0)
        cluster.session(0).write_sync("first")
        assert not cluster.node(0).crashed
        cluster.session(0).write_sync("second")
        assert cluster.node(0).crashed

    def test_trigger_fires_only_once(self):
        cluster, facade = started()
        fired = []
        facade.on_event(tracing.REPLY, None, 1, fired.append, "hit")
        cluster.session(0).write_sync("x")
        cluster.session(1).write_sync("y")
        assert fired == ["hit"]

    def test_delayed_trigger_action(self):
        cluster, facade = started()
        facade.on_event(
            tracing.REPLY, None, 1, facade.defer, 0.005, facade.crash, 1
        )
        cluster.session(0).write_sync("x")
        assert not cluster.node(1).crashed
        cluster.run(duration=0.006)
        assert cluster.node(1).crashed

    def test_triggers_fire_instant_precise_without_capture(self):
        # on_event subscribes to the trace lazily (so hook-less
        # benchmark runs keep the emission fast path); a hook on a
        # capture_trace=False cluster must still fire at the exact
        # instant of the matched event, before the simulator processes
        # anything else.
        cluster, facade = started(capture_trace=False)
        facade.on_event(tracing.STORE_END, 1, 1, facade.crash, 0)
        store_end_times = []
        unsubscribe = cluster.trace.subscribe(
            lambda e: store_end_times.append(e.time) if e.pid == 1 else None,
            kinds=[tracing.STORE_END],
        )
        cluster.session(0).write("x")
        cluster.run_until(lambda: cluster.node(0).crashed, timeout=1.0)
        assert cluster.node(0).crashed
        # The crash happened at the very instant of p1's store_end.
        assert cluster.trace.count(tracing.CRASH) == 1
        assert store_end_times and cluster.now == store_end_times[0]
        unsubscribe()

    def test_injector_without_triggers_keeps_fast_path(self):
        cluster, facade = started(capture_trace=False)
        # Nothing subscribed: no kind builds an event.
        assert not cluster.trace.wants(tracing.SEND)
        facade.on_event(tracing.STORE_END, None, 1, facade.crash, 0)
        # A hook on one kind wants that kind only.
        assert cluster.trace.wants(tracing.STORE_END)
        assert not cluster.trace.wants(tracing.SEND)
        facade.on_event(tracing.STORE_END, 1, 2, facade.crash, 1)
        assert [k for k in tracing.ALL_KINDS if cluster.trace.wants(k)] == [
            tracing.STORE_END
        ]

    def test_recover_trigger(self):
        cluster, facade = started()
        cluster.crash(2)
        facade.on_event(tracing.REPLY, 0, 1, facade.recover, 2, False)
        cluster.session(0).write_sync("x")
        cluster.run_until(lambda: cluster.node(2).ready, timeout=1.0)
        assert cluster.node(2).ready


class TestRandomCrashPlan:
    def test_plans_are_deterministic_per_seed(self):
        plan_a = RandomCrashPlan(horizon=1.0, seed=3).steps(5)
        plan_b = RandomCrashPlan(horizon=1.0, seed=3).steps(5)
        assert plan_a and plan_a == plan_b
        assert plan_a != RandomCrashPlan(horizon=1.0, seed=4).steps(5)

    def test_concurrent_downtime_bounded_to_minority(self):
        steps = RandomCrashPlan(horizon=1.0, seed=1, crash_rate=1.0).steps(5)
        assert {verb for _, verb, _ in steps} == {"crash", "recover"}
        # Sweep the windows: at no instant are 3+ of 5 processes down.
        events = sorted(
            (at, 1 if verb == "crash" else -1) for at, verb, _ in steps
        )
        down = 0
        for _, delta in events:
            down += delta
            assert down <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomCrashPlan(horizon=0.0)
        with pytest.raises(ConfigurationError):
            RandomCrashPlan(horizon=1.0, crash_rate=1.5)

    @pytest.mark.parametrize("mean", [0.0, -0.01, float("nan")])
    def test_a_non_positive_mean_downtime_is_refused(self, mean):
        # Unchecked, these gave a ZeroDivisionError, a silent 0.1 ms
        # floor and a ``recover`` step at nan, in that order.
        with pytest.raises(ConfigurationError, match="mean_downtime"):
            RandomCrashPlan(horizon=1.0, crash_rate=1.0, mean_downtime=mean)
