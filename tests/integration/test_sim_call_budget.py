"""Integration: what a settled simulated write, and a quiet read, cost in Python calls and bytecodes.

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

Calls price a frame but not what runs inside it, so the bytecodes the
interpreter executes are pinned too, with the same slack: the measure
``tools/opcount.py`` takes, by layer, over a whole benchmark round.
Bytecode differs between CPython versions, so that budget holds on
3.11, the benchmark's interpreter, and is skipped elsewhere.
"""

import statistics
import sys

import pytest

from repro.api import open_cluster
from tests.integration.test_read_call_budget import SLACK, calls_of

#: Calls per settled simulated write, measured on CPython 3.11.
SIM_WRITE_CALL_BUDGET = 571

#: Calls per settled quiet simulated read, measured on CPython 3.11.
SIM_READ_CALL_BUDGET = 422

#: Bytecodes per settled simulated write, on CPython 3.11.
SIM_WRITE_BYTECODE_BUDGET = 14762

#: Bytecodes per settled quiet simulated read, on CPython 3.11.
SIM_READ_BYTECODE_BUDGET = 10636

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


def bytecodes_of(action):
    """The bytecodes ``action()`` executes, as ``sys.settrace`` counts them."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        action()
    finally:
        sys.settrace(None)
    return count


def medians(operation, cost=calls_of):
    """Median ``cost`` (calls by default) and generated frames of 30
    ``operation(session, index)``, settled."""
    with open_cluster(backend="sim", protocol="persistent", num_processes=5, seed=3) as cluster:
        sessions = [cluster.session(pid) for pid in range(5)]
        for index in range(30):  # warm up: every node writes and reads
            session = sessions[index % 5]
            cluster.wait(session.write(f"v{index}") if index % 2 else session.read())

        def run(index):
            return lambda: cluster.wait(operation(sessions[index % 5], index))

        calls = [cost(run(index)) for index in range(30)]
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


only_on_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="bytecode differs between CPython versions; the budgets are 3.11's",
)


@only_on_311
def test_a_simulated_write_stays_within_its_bytecode_budget():
    median, counts, _frames = medians(
        lambda session, index: session.write(f"w{index}"), bytecodes_of
    )
    assert median <= SIM_WRITE_BYTECODE_BUDGET * SLACK, (median, counts)


@only_on_311
def test_a_quiet_simulated_read_stays_within_its_bytecode_budget():
    median, counts, _frames = medians(lambda session, index: session.read(), bytecodes_of)
    assert median <= SIM_READ_BYTECODE_BUDGET * SLACK, (median, counts)
