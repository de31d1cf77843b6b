"""White-box checker throughput: operations checked per second.

Not a figure from the paper -- this keeps the tag checker honest as
the only affordable verifier at soak scale.  The near-linear rewrite
checks 10k-operation histories in ~0.1s (the all-pairs scan took about
a minute); these tests check 1k and 10k operations under both
criteria.  ``bench/run.py`` is what measures checker speed.
"""

import pytest

from repro.history.register_checker import check_tagged_history

SIZES = (1_000, 10_000)
CRITERIA = ("persistent", "transient")


def make_tagged_history(operations: int):
    """A ``(history, recorder)`` pair of ``operations`` tagged ops.

    Alternating write/read pairs with matching tags stamped by a
    deterministic increasing clock -- the standard white-box checker
    workload.
    """
    from repro.common.ids import OperationId
    from repro.common.timestamps import Tag
    from repro.history.recorder import HistoryRecorder

    clock = [0.0]

    def tick() -> float:
        clock[0] += 1.0
        return clock[0]

    recorder = HistoryRecorder(clock=tick)
    for i in range(1, operations // 2 + 1):
        op = OperationId(pid=0, seq=i)
        tag = Tag(i, 0)
        recorder.record_invoke(op, 0, "write", f"v{i}")
        recorder.record_reply(op, 0, "write")
        recorder.record_tag(op, tag)
        rop = OperationId(pid=1, seq=10_000_000 + i)
        recorder.record_invoke(rop, 1, "read")
        recorder.record_reply(rop, 1, "read", f"v{i}")
        recorder.record_tag(rop, tag)
    return recorder.history, recorder


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("operations", SIZES)
def test_whitebox_checker_throughput(operations, criterion):
    history, recorder = make_tagged_history(operations)
    result = check_tagged_history(history, recorder, criterion)
    assert result.ok, result.violations
    assert result.operations == operations
