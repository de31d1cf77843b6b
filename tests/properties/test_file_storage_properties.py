"""Property-based tests for the live backend's append-only log.

Random programs of store / delete / compact / reopen / cut-the-file-
anywhere-then-reopen run against a dictionary model.  The model keeps,
for every frame boundary of the current log file, the view a replay up
to that boundary yields; a cut keeps the last boundary at or below it.
"""

import os
import pickle
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.runtime.storage import FileStableStorage

KEYS = st.sampled_from(["written", "writing", "a/b", "a_b", "é"])
OPS = st.one_of(
    st.tuples(st.just("store"), KEYS, st.binary(max_size=40)),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("compact")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("cut"), st.integers(min_value=0)),
)


# Fewer than the 64 frames at which a log starts compacting itself.
@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_reopened_view_is_the_model_at_the_last_complete_frame(program):
    with tempfile.TemporaryDirectory() as root:
        log = Path(root) / "wal.log"
        storage = FileStableStorage(Path(root))
        model = {}
        boundaries = [(0, {})]  # (file length, view replayed up to it)
        for op in program:
            if op[0] == "store":
                storage.store(op[1], (op[2],), size=len(op[2]))
                model[op[1]] = (op[2],)
            elif op[0] == "delete":
                storage.delete(op[1])
                model.pop(op[1], None)
            elif op[0] == "compact":
                dead = len(boundaries) - 1 > len(model)
                storage.compact_file()
                if dead:
                    # Rewritten as the live records, in the view's order.
                    boundaries, view = [(0, {})], {}
                    for key, record in model.items():
                        view[key] = record
                        size = boundaries[-1][0] + _frame_size(key, record)
                        boundaries.append((size, dict(view)))
            else:
                storage.close()
                if op[0] == "cut":
                    cut = op[1] % (log.stat().st_size + 1)
                    os.truncate(log, cut)
                    while boundaries[-1][0] > cut:
                        boundaries.pop()
                    model = dict(boundaries[-1][1])
                storage = FileStableStorage(Path(root))
                assert storage.records_quarantined == 0
            size = log.stat().st_size
            if size > boundaries[-1][0]:
                boundaries.append((size, dict(model)))
            assert size == boundaries[-1][0] == storage.log_bytes
            assert storage.log_records == len(boundaries) - 1
            assert storage.records == model
        storage.close()
        assert FileStableStorage(Path(root)).records == model


def _frame_size(key, record):
    return 8 + len(pickle.dumps((key, record)))
