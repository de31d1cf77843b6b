"""Unit tests for the simulated node: lifecycle, guards, incarnations."""

import pytest

from repro.common.errors import (
    NotRecoveredError,
    ProcessCrashed,
    ProtocolError,
)
from repro.api import open_cluster


def started_cluster(protocol="persistent", n=3, **kwargs):
    cluster = open_cluster("sim", protocol=protocol, num_processes=n, **kwargs)
    cluster.start()
    return cluster


class TestLifecycle:
    def test_nodes_ready_after_start(self):
        cluster = started_cluster()
        assert all(node.ready for node in cluster.nodes)
        assert all(not node.crashed for node in cluster.nodes)

    def test_crash_marks_node_down(self):
        cluster = started_cluster()
        cluster.crash(1)
        node = cluster.node(1)
        assert node.crashed
        assert not node.ready
        assert node.crash_count == 1

    def test_double_crash_rejected(self):
        cluster = started_cluster()
        cluster.crash(1)
        with pytest.raises(ProcessCrashed):
            cluster.crash(1)

    def test_recover_requires_crash(self):
        cluster = started_cluster()
        with pytest.raises(ProtocolError):
            cluster.recover(0, wait=False)

    def test_recovery_completes_and_node_is_usable(self):
        cluster = started_cluster()
        cluster.session(0).write_sync("x")
        cluster.crash(1)
        cluster.recover(1)
        assert cluster.node(1).ready
        assert cluster.session(1).read_sync() == "x"

    def test_incarnation_increases_per_crash(self):
        cluster = started_cluster()
        node = cluster.node(2)
        start = node.incarnation
        cluster.crash(2)
        cluster.recover(2)
        cluster.crash(2)
        cluster.recover(2)
        assert node.incarnation == start + 2


class TestInvocationGuards:
    def test_invoke_on_crashed_process_rejected(self):
        cluster = started_cluster()
        cluster.crash(0)
        with pytest.raises(ProcessCrashed):
            cluster.session(0).write("x")

    def test_invoke_during_recovery_rejected(self):
        cluster = started_cluster()
        cluster.crash(0)
        cluster.node(0).recover()  # do not wait for completion
        with pytest.raises(NotRecoveredError):
            cluster.session(0).read()

    def test_second_concurrent_invocation_rejected(self):
        cluster = started_cluster()
        cluster.session(0).write("x")  # in flight
        with pytest.raises(ProtocolError):
            cluster.session(0).read()

    def test_new_operation_allowed_after_completion(self):
        cluster = started_cluster()
        cluster.session(0).write_sync("x")
        cluster.session(0).write_sync("y")
        assert cluster.session(1).read_sync() == "y"


class TestCrashAbort:
    def test_in_flight_operation_aborts_on_crash(self):
        cluster = started_cluster()
        handle = cluster.session(0).write("doomed")
        cluster.crash(0)
        assert handle.aborted
        assert not handle.done

    def test_aborted_operation_is_pending_in_history(self):
        cluster = started_cluster()
        cluster.session(0).write("doomed")
        cluster.crash(0)
        pending = cluster.history.pending_operations()
        assert len(pending) == 1
        assert pending[0].value == "doomed"

    def test_callbacks_fire_on_abort(self):
        cluster = started_cluster()
        handle = cluster.session(0).write("doomed")
        seen = []
        handle.add_callback(seen.append)
        cluster.crash(0)
        assert seen == [handle]

    def test_callback_fires_immediately_if_already_settled(self):
        cluster = started_cluster()
        handle = cluster.session(0).write_sync("x")
        seen = []
        handle.add_callback(seen.append)
        assert seen == [handle]


class TestIncarnationGuards:
    def test_stale_timers_do_not_fire_after_recovery(self):
        # Crash with an operation (and its retransmission timer) in
        # flight; recover; the old timer must not disturb the new
        # incarnation.
        cluster = started_cluster()
        cluster.session(0).write("doomed")
        cluster.crash(0)
        cluster.recover(0)
        cluster.session(0).write_sync("fresh")  # would break if stale state leaked
        assert cluster.session(1).read_sync() == "fresh"

    def test_repeated_crash_recover_cycles(self):
        cluster = started_cluster()
        for i in range(5):
            cluster.session(0).write_sync(f"v{i}")
            cluster.crash(0)
            cluster.recover(0)
        assert cluster.session(0).read_sync() == "v4"
        assert cluster.check().ok


class TestHistoryRecording:
    def test_crash_and_recovery_events_recorded(self):
        cluster = started_cluster()
        cluster.crash(1)
        cluster.recover(1)
        kinds = [type(e).__name__ for e in cluster.history.events]
        assert "Crash" in kinds
        assert "Recover" in kinds

    def test_reply_carries_latency_and_causal_logs(self):
        cluster = started_cluster()
        handle = cluster.session(0).write_sync("x")
        assert handle.latency > 0
        assert handle.causal_logs == 2  # persistent write

    def test_history_is_well_formed(self):
        cluster = started_cluster()
        cluster.session(0).write_sync("x")
        cluster.crash(0)
        cluster.recover(0)
        cluster.session(0).read_sync()
        cluster.history.assert_well_formed()
