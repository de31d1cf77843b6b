"""Integration: concurrent operations, contention, and quorum steering."""

import pytest

from repro.api import open_cluster
from repro.history.register_checker import check_tagged_history
from repro.workloads.generators import run_closed_loop

PROTOCOLS = ["crash-stop", "transient", "persistent"]


def started(protocol, n=5, **kwargs):
    cluster = open_cluster("sim", protocol=protocol, num_processes=n, **kwargs)
    cluster.start()
    return cluster


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestConcurrentWriters:
    def test_two_concurrent_writers_produce_distinct_tags(self, protocol):
        cluster = started(protocol)
        wa = cluster.session(0).write("a")
        wb = cluster.session(1).write("b")
        cluster.wait_all([wa, wb])
        tag_a = cluster.recorder.tag_of(wa.op)
        tag_b = cluster.recorder.tag_of(wb.op)
        assert tag_a != tag_b  # Lemma 2

    def test_reads_agree_on_the_winner(self, protocol):
        cluster = started(protocol)
        wa = cluster.session(0).write("a")
        wb = cluster.session(1).write("b")
        cluster.wait_all([wa, wb])
        first = cluster.session(2).read_sync()
        second = cluster.session(3).read_sync()
        third = cluster.session(4).read_sync()
        assert first == second == third
        assert first in ("a", "b")

    def test_all_processes_writing_at_once(self, protocol):
        cluster = started(protocol)
        handles = [cluster.session(pid).write(f"w{pid}") for pid in range(5)]
        cluster.wait_all(handles)
        assert cluster.check().ok

    def test_concurrent_read_write_pairs(self, protocol):
        cluster = started(protocol)
        cluster.session(0).write_sync("base")
        writes = [cluster.session(0).write("new")]
        reads = [cluster.session(pid).read() for pid in (1, 2, 3)]
        cluster.wait_all(writes + reads)
        for read in reads:
            assert read.result in ("base", "new")
        assert cluster.check().ok


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestClosedLoopMix:
    def test_mixed_workload_stays_atomic(self, protocol):
        cluster = started(protocol, seed=23)
        report = run_closed_loop(
            cluster, operations_per_client=6, read_fraction=0.5, seed=23
        )
        assert report.completed == report.issued
        assert cluster.check().ok

    def test_white_box_checker_agrees(self, protocol):
        cluster = started(protocol, seed=29)
        run_closed_loop(cluster, operations_per_client=6, read_fraction=0.4, seed=29)
        criterion = "transient" if protocol == "transient" else "persistent"
        result = check_tagged_history(
            cluster.history, cluster.recorder, criterion=criterion
        )
        assert result.ok, result.violations


class TestReadLogging:
    def test_read_concurrent_with_write_may_log_once(self):
        """A read that propagates a not-yet-settled value logs once."""
        from repro.protocol.messages import WriteRequest

        cluster = started("persistent", n=3)
        cluster.session(0).write_sync("old")
        w = cluster.session(0).write("new")
        # The write's second round reaches only p2.
        remove = cluster.network.add_filter(
            lambda src, dst, msg: (
                isinstance(msg, WriteRequest) and msg.op == w.op and dst != 2
            )
        )
        cluster.run_until(
            lambda: cluster.node(2).protocol.durable_tag.sn >= 2, timeout=1.0
        )
        # The reader's quorum includes p2, so it must propagate "new"
        # to a majority before returning it: exactly one causal log.
        cluster.network.block(0, 1)
        read = cluster.wait(cluster.session(1).read())
        assert read.result == "new"
        assert read.causal_logs == 1
        cluster.network.heal_all()
        remove()
        cluster.wait(w)

    def test_read_after_settled_write_logs_nothing(self):
        cluster = started("persistent", n=3)
        cluster.session(0).write_sync("settled")
        read = cluster.wait(cluster.session(1).read())
        assert read.causal_logs == 0


class TestQuorumIntersection:
    def test_any_majority_sees_the_latest_write(self):
        cluster = started("persistent", n=5)
        cluster.session(0).write_sync("everywhere")
        # Try every read quorum of size 3 by blocking the other two.
        import itertools

        for quorum in itertools.combinations(range(5), 3):
            reader = quorum[0]
            blocked = [pid for pid in range(5) if pid not in quorum]
            for pid in blocked:
                cluster.network.block(pid, reader)
            assert cluster.session(reader).read_sync() == "everywhere"
            cluster.network.heal_all()
