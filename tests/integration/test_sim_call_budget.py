"""Integration: what a settled simulated write, and a quiet read, cost in Python calls.

The simulator runs the protocol handlers the live runtime runs, and on
a simulated operation nothing but Python calls costs time.  Every
message, effect and history record on that path is built with one C
call (``tuple.__new__`` with every field); a generated constructor --
a named tuple's ``__new__`` or a dataclass's ``__init__``, both
compiled from ``<string>`` -- adds a Python frame per message.  So this
pins, on a 5-node ``persistent`` simulated cluster, the calls a
profiler hook sees from a write's invocation to its settled handle, the
same for a quiet read, and the generated frames each operation runs.

The call counts use the live budgets' harness and slack.  The
generated frames are exact: the simulator is deterministic, and the
one left is the recorder's mutable ``OperationMeta``.
"""

import statistics
import sys

from repro.api import open_cluster
from tests.integration.test_read_call_budget import SLACK, calls_of

#: Calls per settled simulated write, measured on CPython 3.11.
SIM_WRITE_CALL_BUDGET = 687

#: Calls per settled quiet simulated read, measured on CPython 3.11.
SIM_READ_CALL_BUDGET = 492

#: Generated (``<string>``) frames per operation: ``OperationMeta``.
GENERATED_FRAMES_PER_OP = 1


def generated_frames_of(action):
    """The Python frames ``action()`` runs whose code was compiled from ``<string>``."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename == "<string>":
            count += 1

    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(None)
    return count


def medians(operation):
    """Median calls and generated frames of 30 ``operation(session, index)``, settled."""
    with open_cluster(backend="sim", protocol="persistent", num_processes=5, seed=3) as cluster:
        sessions = [cluster.session(pid) for pid in range(5)]
        for index in range(30):  # warm up: every node writes and reads
            session = sessions[index % 5]
            cluster.wait(session.write(f"v{index}") if index % 2 else session.read())

        def run(index):
            return lambda: cluster.wait(operation(sessions[index % 5], index))

        calls = [calls_of(run(index)) for index in range(30)]
        frames = [generated_frames_of(run(index)) for index in range(30, 60)]
        assert cluster.check().ok
    return statistics.median(calls), sorted(calls), max(frames)


def test_a_simulated_write_stays_within_its_call_budget():
    median, calls, frames = medians(lambda session, index: session.write(f"w{index}"))
    assert median <= SIM_WRITE_CALL_BUDGET * SLACK, (median, calls)
    assert frames == GENERATED_FRAMES_PER_OP


def test_a_quiet_simulated_read_stays_within_its_call_budget():
    median, calls, frames = medians(lambda session, index: session.read())
    assert median <= SIM_READ_CALL_BUDGET * SLACK, (median, calls)
    assert frames == GENERATED_FRAMES_PER_OP
