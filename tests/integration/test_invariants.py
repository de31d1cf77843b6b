"""Integration: the live invariant monitor."""

import pytest

from repro.api import open_cluster
from repro.common.timestamps import Tag, bottom_tag
from repro.scenarios.faults import RandomCrashPlan
from repro.sim.invariants import InvariantMonitor, InvariantViolation
from repro.workloads.generators import run_closed_loop


def monitored_cluster(protocol="persistent", n=3, **kwargs):
    cluster = open_cluster("sim", protocol=protocol, num_processes=n, **kwargs)
    monitor = InvariantMonitor(cluster)
    cluster.start()
    return cluster, monitor


class TestCleanRuns:
    @pytest.mark.parametrize(
        "protocol",
        ["crash-stop", "transient", "persistent", "persistent-fastread", "naive"],
    )
    def test_sequential_run_is_clean(self, protocol):
        cluster, monitor = monitored_cluster(protocol)
        cluster.session(0).write_sync("a")
        cluster.session(1).read_sync()
        cluster.session(0).write_sync("b")
        monitor.assert_clean()
        assert monitor.events_checked > 0

    def test_crashy_run_is_clean(self):
        cluster, monitor = monitored_cluster("persistent", n=5, seed=41)
        RandomCrashPlan(horizon=0.15, seed=42).arm(cluster)
        run_closed_loop(cluster, operations_per_client=5, read_fraction=0.5, seed=41)
        monitor.assert_clean()

    def test_monitor_can_be_detached(self):
        cluster, monitor = monitored_cluster()
        checked_at_close = monitor.events_checked
        monitor.close()
        cluster.session(0).write_sync("x")
        assert monitor.events_checked == checked_at_close


class TestViolationDetection:
    def test_durability_ahead_of_volatile_is_caught(self):
        cluster, monitor = monitored_cluster()
        cluster.session(0).write_sync("x")
        # Corrupt a node: pretend something is durable beyond volatile.
        node = cluster.node(1)
        node.protocol.durable_tag = Tag(99, 0)
        with pytest.raises(InvariantViolation, match="ahead of"):
            cluster.session(0).write_sync("y")

    def test_tag_regression_is_caught(self):
        cluster, monitor = monitored_cluster()
        cluster.session(0).write_sync("x")
        node = cluster.node(2)
        node.protocol.tag = bottom_tag()
        node.protocol.durable_tag = bottom_tag()
        with pytest.raises(InvariantViolation, match="backwards"):
            cluster.session(0).write_sync("y")

    def test_non_fail_fast_collects_violations(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3)
        monitor = InvariantMonitor(cluster, fail_fast=False)
        cluster.start()
        cluster.session(0).write_sync("x")
        cluster.node(1).protocol.durable_tag = Tag(99, 0)
        cluster.session(0).write_sync("y")
        assert monitor.violations
        with pytest.raises(InvariantViolation):
            monitor.assert_clean()

    def test_crash_resets_the_monotonicity_watermark(self):
        # A crash legitimately resets the volatile tag; the monitor
        # must not flag the recovery.
        cluster, monitor = monitored_cluster()
        cluster.session(0).write_sync("x")
        cluster.crash(1)
        cluster.recover(1)
        cluster.session(0).write_sync("y")
        monitor.assert_clean()
