"""Integration: the fast-read optimization (extension)."""

import pytest

from repro.api import open_cluster
from repro.protocol.messages import WriteRequest
from repro.scenarios.faults import RandomCrashPlan
from repro.workloads.generators import run_closed_loop


def started(n=5, **kwargs):
    cluster = open_cluster("sim", protocol="persistent-fastread", num_processes=n, **kwargs)
    cluster.start()
    return cluster


class TestFastPath:
    def test_quiescent_read_is_one_round_trip(self):
        fast = started()
        base = open_cluster("sim", protocol="persistent", num_processes=5)
        base.start()
        fast.session(0).write_sync("x")
        base.session(0).write_sync("x")
        fast_latency = fast.wait(fast.session(1).read()).latency
        base_latency = base.wait(base.session(1).read()).latency
        assert fast_latency == pytest.approx(base_latency / 2, rel=0.15)

    def test_fast_reads_still_return_the_latest_value(self):
        cluster = started()
        for i in range(5):
            cluster.session(0).write_sync(f"v{i}")
            assert cluster.session(1).read_sync() == f"v{i}"

    def test_fast_path_counter_increments(self):
        cluster = started()
        cluster.session(0).write_sync("x")
        cluster.wait(cluster.session(1).read())
        assert cluster.node(1).protocol.fast_reads == 1
        assert cluster.node(1).protocol.slow_reads == 0

    def test_writes_unchanged(self):
        cluster = started()
        handle = cluster.session(0).write_sync("x")
        assert handle.causal_logs == 2

    def test_initial_read_before_any_write_is_fast(self):
        # All processes report the durable bottom tag unanimously.
        cluster = started()
        handle = cluster.wait(cluster.session(2).read())
        assert handle.result is None
        assert cluster.node(2).protocol.fast_reads == 1


class TestSlowPathFallback:
    def test_read_concurrent_with_write_falls_back(self):
        cluster = started(n=3)
        cluster.session(0).write_sync("old")
        w = cluster.session(0).write("new")
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
        read = cluster.wait(cluster.session(1).read())
        assert read.result == "new"
        assert cluster.node(1).protocol.slow_reads == 1
        assert read.causal_logs == 1  # the write-back logged at p1
        cluster.network.heal_all()
        remove()
        cluster.wait(w)
        assert cluster.check().ok

    def test_atomicity_after_mixed_fast_and_slow_reads(self):
        cluster = started(n=3, seed=5)
        cluster.session(0).write_sync("a")
        cluster.session(1).read_sync()
        cluster.session(1).write_sync("b")
        cluster.session(2).read_sync()
        assert cluster.check().ok


class TestFastReadUnderAdversity:
    def test_random_crashy_workload_stays_atomic(self):
        cluster = started(seed=33)
        RandomCrashPlan(horizon=0.2, seed=34, crash_rate=0.6).arm(
            cluster
        )
        report = run_closed_loop(
            cluster, operations_per_client=6, read_fraction=0.6, seed=33
        )
        assert report.unissued == 0
        assert cluster.check().ok

    def test_value_survives_total_crash(self):
        cluster = started(n=3)
        cluster.session(0).write_sync("durable")
        for pid in range(3):
            cluster.crash(pid)
        for pid in range(3):
            cluster.recover(pid, wait=False)
        cluster.run_until(lambda: all(n.ready for n in cluster.nodes), timeout=1.0)
        assert cluster.session(1).read_sync() == "durable"

    def test_read_after_recovery_is_fast_once_quorum_agrees(self):
        cluster = started(n=3)
        cluster.session(0).write_sync("x")
        cluster.crash(2)
        cluster.recover(2)
        handle = cluster.wait(cluster.session(2).read())
        assert handle.result == "x"
        assert handle.causal_logs == 0
