"""Unit tests for metrics collection and workload generation."""

import random

import pytest

from repro.api import open_cluster
from repro.common.errors import ConfigurationError
from repro.obs.summary import LatencyStats, percentile
from repro.workloads.generators import (
    ClientPlan,
    OperationMix,
    UniqueValues,
    WorkloadRunner,
    planned,
    run_closed_loop,
)


class TestLatencyStats:
    def test_from_samples(self):
        stats = LatencyStats.from_samples([1.0, 2.0, 3.0])
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.median == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0

    def test_empty_samples(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_mean_us_converts(self):
        assert LatencyStats.from_samples([0.001]).mean_us == pytest.approx(1000.0)


class TestPercentile:
    def test_interpolates_between_samples(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == pytest.approx(2.0)

    def test_single_sample(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestCollectMetrics:
    """A run's counts, read from the cluster and its façade stats."""

    def test_collects_per_kind_latency_and_logs(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3)
        cluster.start()
        cluster.session(0).write_sync("a")
        cluster.session(0).write_sync("b")
        cluster.wait(cluster.session(1).read())
        completed = cluster.history.completed_operations()
        assert [r.kind for r in completed] == ["write", "write", "read"]
        assert all(r.latency > 0 for r in completed)
        logs = [cluster.recorder.causal_logs(r.op) for r in completed]
        assert logs[:2] == [2, 2] and logs[2] is not None
        stats = cluster.stats()
        assert stats.stores_completed > 0
        assert stats.messages_sent > 0

    def test_counts_aborted_operations(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3)
        cluster.start()
        cluster.session(0).write("doomed")
        cluster.crash(0)
        assert len(cluster.history.pending_operations()) == 1
        assert cluster.stats().crashes == 1


class TestUniqueValues:
    def test_values_never_repeat(self):
        gen = UniqueValues()
        values = {gen(pid % 3) for pid in range(100)}
        assert len(values) == 100

    def test_value_mentions_pid(self):
        assert "-p2" in UniqueValues()(2)


class TestOperationMix:
    def test_all_reads(self):
        mix = OperationMix(read_fraction=1.0)
        assert mix.plan(10, random.Random(0)) == ["read"] * 10

    def test_all_writes(self):
        mix = OperationMix(read_fraction=0.0)
        assert mix.plan(10, random.Random(0)) == ["write"] * 10

    def test_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            OperationMix(read_fraction=1.5)

    def test_plan_length(self):
        assert len(OperationMix(0.5).plan(25, random.Random(0))) == 25


class TestWorkloadRunner:
    def test_completes_all_planned_operations(self):
        cluster = open_cluster("sim", protocol="transient", num_processes=3)
        cluster.start()
        plans = [
            ClientPlan(pid=0, kinds=["write", "read", "write"]),
            ClientPlan(pid=1, kinds=["read", "read"]),
        ]
        report = WorkloadRunner(cluster, planned(plans)).run()
        assert report.issued == 5
        assert report.completed == 5
        assert report.aborted == 0
        assert report.unissued == 0

    def test_out_of_range_pid_rejected(self):
        cluster = open_cluster("sim", protocol="transient", num_processes=3)
        cluster.start()
        with pytest.raises(ConfigurationError):
            WorkloadRunner(cluster, planned([ClientPlan(pid=9, kinds=["read"])]))

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientPlan(pid=0, kinds=["erase"])

    def test_clients_survive_crashes_of_their_process(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3, seed=2)
        cluster.start()
        from repro.scenarios.faults import Downtime

        # Down from t=0.5ms to t=10ms of the virtual clock.
        now = cluster.now
        Downtime(0, 0.0005 - now, 0.01 - now).arm(cluster)
        report = run_closed_loop(
            cluster, operations_per_client=5, read_fraction=0.5, seed=4
        )
        assert report.unissued == 0
        assert report.completed + report.aborted == report.issued
        assert report.completed >= 14  # at most one op lost to the crash

    def test_closed_loop_history_is_atomic(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3, seed=8)
        cluster.start()
        run_closed_loop(cluster, operations_per_client=6, read_fraction=0.5, seed=8)
        assert cluster.check().ok
