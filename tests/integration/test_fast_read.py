"""Integration: the fast-read optimization (extension)."""

import pytest

from repro.api import as_cluster
from repro.cluster import SimCluster
from repro.protocol.messages import WriteRequest
from repro.scenarios.faults import RandomCrashPlan
from repro.workloads.generators import run_closed_loop


def started(n=5, **kwargs):
    cluster = SimCluster(protocol="persistent-fastread", num_processes=n, **kwargs)
    cluster.start()
    return cluster


class TestFastPath:
    def test_quiescent_read_is_one_round_trip(self):
        fast = started()
        base = SimCluster(protocol="persistent", num_processes=5)
        base.start()
        fast.write_sync(0, "x")
        base.write_sync(0, "x")
        fast_latency = fast.wait(fast.read(1)).latency
        base_latency = base.wait(base.read(1)).latency
        assert fast_latency == pytest.approx(base_latency / 2, rel=0.15)

    def test_fast_reads_still_return_the_latest_value(self):
        cluster = started()
        for i in range(5):
            cluster.write_sync(0, f"v{i}")
            assert cluster.read_sync(1) == f"v{i}"

    def test_fast_path_counter_increments(self):
        cluster = started()
        cluster.write_sync(0, "x")
        cluster.wait(cluster.read(1))
        assert cluster.node(1).protocol.fast_reads == 1
        assert cluster.node(1).protocol.slow_reads == 0

    def test_writes_unchanged(self):
        cluster = started()
        handle = cluster.write_sync(0, "x")
        assert handle.causal_logs == 2

    def test_initial_read_before_any_write_is_fast(self):
        # All processes report the durable bottom tag unanimously.
        cluster = started()
        handle = cluster.wait(cluster.read(2))
        assert handle.result is None
        assert cluster.node(2).protocol.fast_reads == 1


class TestSlowPathFallback:
    def test_read_concurrent_with_write_falls_back(self):
        cluster = started(n=3)
        cluster.write_sync(0, "old")
        w = cluster.write(0, "new")
        remove = cluster.network.add_filter(
            lambda src, dst, msg: (
                isinstance(msg, WriteRequest) and msg.op == w.op and dst != 2
            )
        )
        cluster.run_until(
            lambda: cluster.node(2).protocol.durable_tag.sn >= 2, timeout=1.0
        )
        # Reader's quorum sees disagreeing tags -> write-back round.
        cluster.network.block(0, 1)
        read = cluster.wait(cluster.read(1))
        assert read.result == "new"
        assert cluster.node(1).protocol.slow_reads == 1
        assert read.causal_logs == 1  # the write-back logged at p1
        cluster.network.heal_all()
        remove()
        cluster.wait(w)
        assert cluster.check_atomicity().ok

    def test_atomicity_after_mixed_fast_and_slow_reads(self):
        cluster = started(n=3, seed=5)
        cluster.write_sync(0, "a")
        cluster.read_sync(1)
        cluster.write_sync(1, "b")
        cluster.read_sync(2)
        assert cluster.check_atomicity().ok


class TestFastReadUnderAdversity:
    def test_random_crashy_workload_stays_atomic(self):
        cluster = started(seed=33)
        RandomCrashPlan(horizon=0.2, seed=34, crash_rate=0.6).arm(
            as_cluster(cluster)
        )
        report = run_closed_loop(
            cluster, operations_per_client=6, read_fraction=0.6, seed=33
        )
        assert report.unissued == 0
        assert cluster.check_atomicity().ok

    def test_value_survives_total_crash(self):
        cluster = started(n=3)
        cluster.write_sync(0, "durable")
        for pid in range(3):
            cluster.crash(pid)
        for pid in range(3):
            cluster.recover(pid)
        cluster.run_until(lambda: all(n.ready for n in cluster.nodes), timeout=1.0)
        assert cluster.read_sync(1) == "durable"

    def test_read_after_recovery_is_fast_once_quorum_agrees(self):
        cluster = started(n=3)
        cluster.write_sync(0, "x")
        cluster.crash(2)
        cluster.recover(2, wait=True)
        handle = cluster.wait(cluster.read(2))
        assert handle.result == "x"
        assert handle.causal_logs == 0
