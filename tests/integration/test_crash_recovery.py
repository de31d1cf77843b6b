"""Integration: crash/recovery semantics of the crash-recovery algorithms."""

import pytest

from repro.api import open_cluster
from repro.obs import tracing

CRASH_RECOVERY = ["transient", "persistent", "naive"]


def started(protocol, n=3, **kwargs):
    cluster = open_cluster("sim", protocol=protocol, num_processes=n, **kwargs)
    cluster.start()
    return cluster


@pytest.mark.parametrize("protocol", CRASH_RECOVERY)
class TestValuePersistence:
    def test_value_survives_one_crash(self, protocol):
        cluster = started(protocol)
        cluster.session(0).write_sync("precious")
        cluster.crash(2)
        cluster.recover(2)
        assert cluster.session(2).read_sync() == "precious"

    def test_value_survives_total_simultaneous_crash(self, protocol):
        # "does not exclude scenarios where all the processes crash,
        # possibly at the same time, as long as a majority eventually
        # recovers" -- Section I-D.
        cluster = started(protocol)
        cluster.session(0).write_sync("precious")
        for pid in range(3):
            cluster.crash(pid)
        for pid in range(3):
            cluster.recover(pid, wait=False)
        cluster.run_until(
            lambda: all(node.ready for node in cluster.nodes), timeout=1.0
        )
        assert cluster.session(1).read_sync() == "precious"

    def test_value_survives_majority_recovering_only(self, protocol):
        cluster = started(protocol, n=5)
        cluster.session(0).write_sync("precious")
        for pid in range(5):
            cluster.crash(pid)
        for pid in (0, 2, 4):  # only a majority comes back
            cluster.recover(pid, wait=False)
        cluster.run_until(
            lambda: all(cluster.node(pid).ready for pid in (0, 2, 4)), timeout=1.0
        )
        assert cluster.session(2).read_sync() == "precious"

    def test_writes_continue_after_recovery(self, protocol):
        cluster = started(protocol)
        cluster.session(0).write_sync("before")
        cluster.crash(0)
        cluster.recover(0)
        cluster.session(0).write_sync("after")
        assert cluster.session(1).read_sync() == "after"
        assert cluster.check().ok

    def test_minority_down_does_not_block(self, protocol):
        cluster = started(protocol, n=5)
        cluster.crash(3)
        cluster.crash(4)
        cluster.session(0).write_sync("still-works")
        assert cluster.session(1).read_sync() == "still-works"

    def test_operations_block_while_majority_down(self, protocol):
        cluster = started(protocol, n=3)
        cluster.crash(1)
        cluster.crash(2)
        handle = cluster.session(0).write("stuck")
        cluster.run(duration=0.05)
        assert not handle.settled
        # Recovery of one process restores a majority; the operation
        # (still retransmitting) completes.
        cluster.recover(1, wait=False)
        cluster.wait(handle, timeout=1.0)
        assert handle.done


@pytest.mark.parametrize("protocol", ["persistent", "naive"])
class TestInterruptedWriteReplay:
    def test_recovery_finishes_the_interrupted_write(self, protocol):
        from repro.protocol.messages import WriteRequest

        cluster = started(protocol)
        cluster.session(0).write_sync("v1")
        w2 = cluster.session(0).write("v2")
        # Withhold the second round from everyone but the writer's own
        # listener, then crash after the writer logged `writing`.
        remove = cluster.network.add_filter(
            lambda src, dst, msg: isinstance(msg, WriteRequest) and msg.op == w2.op
        )
        cluster.run_until(
            lambda: cluster.node(0).storage.retrieve("writing") is not None
            and cluster.node(0).storage.retrieve("writing")[1] == "v2",
            timeout=1.0,
        )
        cluster.crash(0)
        remove()
        # Recovery replays the `writing` record to a majority.
        cluster.recover(0)
        assert cluster.session(1).read_sync() == "v2"
        assert cluster.check().ok

    def test_replay_of_finished_write_is_harmless(self, protocol):
        cluster = started(protocol)
        cluster.session(0).write_sync("old")
        cluster.session(1).write_sync("new")
        # p0's `writing` record still says "old"; recovery replays it.
        cluster.crash(0)
        cluster.recover(0)
        assert cluster.session(2).read_sync() == "new"


class TestTransientRecoveryCounter:
    def test_rec_is_durable_across_crashes(self):
        cluster = started("transient")
        for expected in (1, 2, 3):
            cluster.crash(1)
            cluster.recover(1)
            assert cluster.node(1).protocol.rec == expected
            assert cluster.node(1).storage.retrieve("recovered") == (expected,)

    def test_interrupted_write_never_blocks_future_writes(self):
        from repro.protocol.messages import WriteRequest

        cluster = started("transient")
        cluster.session(0).write_sync("v1")
        w2 = cluster.session(0).write("v2")
        remove = cluster.network.add_filter(
            lambda src, dst, msg: isinstance(msg, WriteRequest) and msg.op == w2.op
        )
        cluster.run(duration=0.001)
        cluster.crash(0)
        remove()
        cluster.recover(0)
        cluster.session(0).write_sync("v3")
        assert cluster.session(1).read_sync() == "v3"
        assert cluster.check(criterion="transient").ok

    def test_tags_strictly_increase_across_recoveries(self):
        cluster = started("transient")
        tags = []
        for i in range(3):
            handle = cluster.session(0).write_sync(f"v{i}")
            tags.append(cluster.recorder.tag_of(handle.op))
            cluster.crash(0)
            cluster.recover(0)
        assert tags == sorted(tags)
        assert len(set(tags)) == 3


class TestRecoveryDuringLoad:
    def test_reader_crash_between_reads_is_safe(self):
        cluster = started("persistent")
        cluster.session(0).write_sync("x")
        assert cluster.session(1).read_sync() == "x"
        cluster.crash(1)
        cluster.recover(1)
        assert cluster.session(1).read_sync() == "x"
        assert cluster.check().ok

    def test_many_cycles_remain_atomic(self):
        cluster = started("persistent", seed=17)
        for i in range(8):
            cluster.session(i % 3).write_sync(f"v{i}")
            victim = (i + 1) % 3
            cluster.crash(victim)
            cluster.recover(victim)
            cluster.session((i + 2) % 3).read_sync()
        verdict = cluster.check()
        assert verdict.ok, cluster.history.format()


def judge_first_boot_ready(cluster):
    """Judge every node's first-boot ``recovery_done`` as it happens.

    Until a node first reports ready, every store it issues is one of
    ``initialize()``'s; at that report each of their keys must be
    retrievable from the node's stable storage.  A crash ends the first
    boot unjudged: a recover after a crash before initialisation
    finished may legitimately report ready first.  Returns the
    violations and the pids judged, both filled in as the run goes.
    """
    init_keys = {pid: [] for pid in range(len(cluster.nodes))}
    violations, judged = [], []

    def listen(event):
        keys = init_keys.get(event.pid)
        if keys is None:
            return
        if event.kind == tracing.STORE_BEGIN:
            keys.append(event.detail["key"])
            return
        del init_keys[event.pid]
        if event.kind == tracing.RECOVERY_DONE:
            judged.append(event.pid)
            storage = cluster.node(event.pid).storage
            missing = [key for key in keys if storage.retrieve(key) is None]
            if missing:
                violations.append(
                    f"p{event.pid} ready at {event.time * 1e6:.1f}us with "
                    f"{missing} not durable"
                )

    cluster.trace.subscribe(
        listen, kinds=(tracing.STORE_BEGIN, tracing.CRASH, tracing.RECOVERY_DONE)
    )
    return violations, judged


@pytest.mark.parametrize("protocol", ["persistent", "persistent-fastread", "transient"])
def test_no_recovery_complete_before_the_init_stores_are_durable(protocol):
    cluster = open_cluster("sim", protocol=protocol, num_processes=3, seed=3)
    violations, judged = judge_first_boot_ready(cluster)
    cluster.start()
    cluster.session(0).write_sync("v")
    cluster.crash(2)
    cluster.recover(2)
    assert cluster.session(2).read_sync() == "v"
    assert violations == []
    assert sorted(judged) == [0, 1, 2]
