"""Integration: the live invariant monitor."""

import pytest

from repro.api import as_cluster
from repro.cluster import SimCluster
from repro.common.timestamps import Tag, bottom_tag
from repro.scenarios.faults import RandomCrashPlan
from repro.sim.invariants import InvariantMonitor, InvariantViolation
from repro.workloads.generators import run_closed_loop


def monitored_cluster(protocol="persistent", n=3, **kwargs):
    cluster = SimCluster(protocol=protocol, num_processes=n, **kwargs)
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
        cluster.write_sync(0, "a")
        cluster.read_sync(1)
        cluster.write_sync(0, "b")
        monitor.assert_clean()
        assert monitor.events_checked > 0

    def test_crashy_run_is_clean(self):
        cluster, monitor = monitored_cluster("persistent", n=5, seed=41)
        RandomCrashPlan(horizon=0.15, seed=42).arm(as_cluster(cluster))
        run_closed_loop(cluster, operations_per_client=5, read_fraction=0.5, seed=41)
        monitor.assert_clean()

    def test_monitor_can_be_detached(self):
        cluster, monitor = monitored_cluster()
        checked_at_close = monitor.events_checked
        monitor.close()
        cluster.write_sync(0, "x")
        assert monitor.events_checked == checked_at_close


class TestViolationDetection:
    def test_durability_ahead_of_volatile_is_caught(self):
        cluster, monitor = monitored_cluster()
        cluster.write_sync(0, "x")
        # Corrupt a node: pretend something is durable beyond volatile.
        node = cluster.node(1)
        node.protocol.durable_tag = Tag(99, 0)
        with pytest.raises(InvariantViolation, match="ahead of"):
            cluster.write_sync(0, "y")

    def test_tag_regression_is_caught(self):
        cluster, monitor = monitored_cluster()
        cluster.write_sync(0, "x")
        node = cluster.node(2)
        node.protocol.tag = bottom_tag()
        node.protocol.durable_tag = bottom_tag()
        with pytest.raises(InvariantViolation, match="backwards"):
            cluster.write_sync(0, "y")

    def test_non_fail_fast_collects_violations(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        monitor = InvariantMonitor(cluster, fail_fast=False)
        cluster.start()
        cluster.write_sync(0, "x")
        cluster.node(1).protocol.durable_tag = Tag(99, 0)
        cluster.write_sync(0, "y")
        assert monitor.violations
        with pytest.raises(InvariantViolation):
            monitor.assert_clean()

    def test_crash_resets_the_monotonicity_watermark(self):
        # A crash legitimately resets the volatile tag; the monitor
        # must not flag the recovery.
        cluster, monitor = monitored_cluster()
        cluster.write_sync(0, "x")
        cluster.crash(1)
        cluster.recover(1, wait=True)
        cluster.write_sync(0, "y")
        monitor.assert_clean()
