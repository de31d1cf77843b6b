"""Integration: what a quiet live read, and a write, cost in Python calls.

A quiet read logs nothing and takes four communication steps, so on
localhost its latency is processor time, nearly all of it Python calls
between the wire and the protocol handlers.  This pins that count: the
calls a profiler hook sees (Python frames and built-ins alike) from the
read's invocation to its settled handle, on a 3-node cluster.  A write
takes four steps and two logs; its count is pinned the same way.

The median of 30 operations must stay within 10 % of the budget, so a
retransmission on a loaded box (an operation that pays a timer and a
resend) moves no verdict, while a layer that grows by a frame per
datagram does.
"""

import statistics
import sys

from repro.api import open_cluster

#: Calls per settled quiet read, measured on CPython 3.11 (the
#: harness's own ``operation`` frame included, as in the next budget).
READ_CALL_BUDGET = 385

#: Calls per settled write, measured on CPython 3.11.
WRITE_CALL_BUDGET = 554

#: Headroom for other CPython versions and a retransmitted read.
SLACK = 1.10


def calls_of(action):
    """``action()``'s calls, Python and built-in, as ``sys.setprofile`` sees them."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(None)
    return count


def median_calls(operation):
    """The median calls of 30 ``operation(session, index)``, settled, on a warm cluster."""
    with open_cluster(backend="live", num_processes=3) as cluster:
        sessions = [cluster.session(pid) for pid in range(3)]
        for index in range(30):  # warm up: every node writes and reads
            session = sessions[index % 3]
            cluster.wait(session.write(f"v{index}") if index % 2 else session.read())
        counts = [
            calls_of(
                lambda session=sessions[index % 3], index=index: cluster.wait(
                    operation(session, index)
                )
            )
            for index in range(30)
        ]
        assert cluster.check().ok
    return statistics.median(counts), sorted(counts)


def test_a_quiet_read_stays_within_its_call_budget():
    median, counts = median_calls(lambda session, index: session.read())
    assert median <= READ_CALL_BUDGET * SLACK, (median, counts)


def test_a_write_stays_within_its_call_budget():
    median, counts = median_calls(lambda session, index: session.write(f"w{index}"))
    assert median <= WRITE_CALL_BUDGET * SLACK, (median, counts)
