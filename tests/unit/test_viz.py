"""Unit tests for the ASCII run visualizer."""

from repro.api import open_cluster
from repro.common.ids import OperationId
from repro.history.events import Crash, Invoke, Recover, Reply
from repro.history.history import History
from repro.viz import render_history


def op(pid, seq):
    return OperationId(pid=pid, seq=seq)


def sample_history():
    return History(
        [
            Invoke(time=0.0, pid=0, op=op(0, 1), kind="write", value="v1"),
            Reply(time=1.0, pid=0, op=op(0, 1), kind="write"),
            Invoke(time=2.0, pid=0, op=op(0, 2), kind="write", value="v2"),
            Crash(time=3.0, pid=0),
            Recover(time=4.0, pid=0),
            Invoke(time=5.0, pid=1, op=op(1, 3), kind="read"),
            Reply(time=6.0, pid=1, op=op(1, 3), kind="read", result="v1"),
        ]
    )


class TestRenderHistory:
    def test_empty_history(self):
        assert render_history(History()) == "(empty history)"

    def test_one_line_per_process(self):
        text = render_history(sample_history(), width=60)
        lines = text.splitlines()
        assert lines[0].startswith("p0 |")
        assert lines[1].startswith("p1 |")

    def test_operations_appear_on_their_process_line(self):
        text = render_history(sample_history(), width=80)
        p0_line, p1_line = text.splitlines()[:2]
        assert "W(v1)" in p0_line
        assert "W(v1)" not in p1_line
        assert "R():v1" in p1_line

    def test_crash_and_recovery_markers(self):
        text = render_history(sample_history(), width=80)
        p0_line = text.splitlines()[0]
        assert "X" in p0_line
        assert "R" in p0_line

    def test_pending_operations_render_with_ellipsis(self):
        text = render_history(sample_history(), width=80)
        assert "W(v2)..." in text

    def test_pid_filter(self):
        text = render_history(sample_history(), width=60, pids=[1])
        lines = text.splitlines()
        assert lines[0].startswith("p1 |")
        assert not any(line.startswith("p0") for line in lines)

    def test_time_axis_footer(self):
        text = render_history(sample_history(), width=60)
        assert "0 us" in text

    def test_real_cluster_history_renders(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3)
        cluster.start()
        cluster.session(0).write_sync("a")
        cluster.crash(1)
        cluster.recover(1)
        cluster.session(1).read_sync()
        text = render_history(cluster.history)
        assert "W(a)" in text
        assert "X" in text

