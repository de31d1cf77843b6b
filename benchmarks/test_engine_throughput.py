"""Engine checks (ours): the simulator and the checkers at load.

Not a figure from the paper -- these keep the reproduction honest as a
piece of software: closed-loop runs complete with and without trace
capture, and both checkers accept well-formed histories.  Engine speed
is measured by ``bench/run.py``.
"""

import pytest

from repro.api import open_cluster
from repro.common.ids import OperationId
from repro.history.checker import check_persistent_atomicity
from repro.history.events import Invoke, Reply
from repro.history.history import History
from repro.history.register_checker import check_tagged_history
from repro.workloads.generators import run_closed_loop


@pytest.mark.parametrize("capture", [False, True], ids=["trace-off", "trace-on"])
@pytest.mark.parametrize("protocol", ["crash-stop", "transient", "persistent"])
def test_simulator_operation_throughput(protocol, capture):
    """100 simulated operations on 5 processes all complete.

    The trace-off variant is the engine's allocation-free fast path;
    trace-on additionally runs full event capture.
    """
    cluster = open_cluster(
        "sim", protocol=protocol, num_processes=5, capture_trace=capture
    ).start()
    report = run_closed_loop(
        cluster, operations_per_client=20, read_fraction=0.5, seed=0
    )
    assert report.completed == 100


def _sequential_history(num_ops):
    events = []
    value = None
    for i in range(num_ops):
        op = OperationId(pid=i % 3, seq=i)
        if i % 2 == 0:
            value = f"v{i}"
            events.append(
                Invoke(time=2.0 * i, pid=op.pid, op=op, kind="write", value=value)
            )
            events.append(Reply(time=2.0 * i + 1, pid=op.pid, op=op, kind="write"))
        else:
            events.append(Invoke(time=2.0 * i, pid=op.pid, op=op, kind="read"))
            events.append(
                Reply(time=2.0 * i + 1, pid=op.pid, op=op, kind="read", result=value)
            )
    return History(events)


def test_blackbox_checker_on_30_operations():
    history = _sequential_history(30)
    verdict = check_persistent_atomicity(history)
    assert verdict.ok


def test_whitebox_checker_on_2000_operations():
    from repro.common.timestamps import Tag
    from repro.history.recorder import HistoryRecorder

    recorder = HistoryRecorder(clock=lambda: 0.0)
    time = [0.0]

    def tick():
        time[0] += 1.0
        return time[0]

    recorder._clock = tick  # deterministic increasing clock
    tag = None
    for i in range(1, 1001):
        op = OperationId(pid=0, seq=i)
        tag = Tag(i, 0)
        recorder.record_invoke(op, 0, "write", f"v{i}")
        recorder.record_reply(op, 0, "write")
        recorder.record_tag(op, tag)
        rop = OperationId(pid=1, seq=10_000 + i)
        recorder.record_invoke(rop, 1, "read")
        recorder.record_reply(rop, 1, "read", f"v{i}")
        recorder.record_tag(rop, tag)

    result = check_tagged_history(recorder.history, recorder, "persistent")
    assert result.ok
    assert result.operations == 2000
