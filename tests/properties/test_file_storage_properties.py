"""Property-based tests for the live backend's segmented log.

Random programs of store / delete / compact / reopen / cut-the-file-
anywhere / zero-it-from-anywhere-on, then reopen, run against a
dictionary model.  The model keeps, for every frame boundary of the
current log, the view a replay up to that boundary yields, and the
file's length: the frames, then zeros to a segment boundary.  A cut or
a zeroing keeps the last boundary at or below it.  The segment is
shrunk so that short programs grow the log and compact it.
"""

import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.runtime import storage as storage_module
from repro.runtime.storage import FileStableStorage, encode_frame

SEGMENT = 64

KEYS = st.sampled_from(["written", "writing", "a/b", "a_b", "é"])
OPS = st.one_of(
    st.tuples(st.just("store"), KEYS, st.binary(max_size=40)),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("compact")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("cut"), st.integers(min_value=0)),
    st.tuples(st.just("zero"), st.integers(min_value=0)),
)


def _segments(size):
    return max(SEGMENT, -(-size // SEGMENT) * SEGMENT)


@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_reopened_view_is_the_model_at_the_last_complete_frame(program):
    with tempfile.TemporaryDirectory() as root, mock.patch.object(
        storage_module, "_SEGMENT", SEGMENT
    ):
        log = Path(root) / "wal.log"
        storage = FileStableStorage(Path(root))
        model = {}
        boundaries = [(0, {})]  # (frames' length, view replayed up to it)
        size = SEGMENT

        def rewrite():
            # Compaction: the live frames in the view's order, new zeros.
            nonlocal boundaries, size
            boundaries, view = [(0, {})], {}
            for key, record in model.items():
                view[key] = record
                end = boundaries[-1][0] + len(encode_frame(key, record))
                boundaries.append((end, dict(view)))
            size = _segments(boundaries[-1][0])

        def append(key, record):
            nonlocal size
            frame = len(encode_frame(key, record))
            while boundaries[-1][0] + frame > size:
                frames = len(boundaries) - 1
                if (frames - len(model)) * 2 > frames:
                    rewrite()
                else:
                    size += SEGMENT
            if record is None:
                del model[key]
            else:
                model[key] = record
            boundaries.append((boundaries[-1][0] + frame, dict(model)))

        for op in program:
            if op[0] == "store":
                storage.store(op[1], (op[2],), size=len(op[2]))
                append(op[1], (op[2],))
            elif op[0] == "delete":
                storage.delete(op[1])
                if op[1] in model:
                    append(op[1], None)
            elif op[0] == "compact":
                storage.compact_file()
                if len(boundaries) - 1 > len(model):
                    rewrite()
            else:
                storage.close()
                if op[0] in ("cut", "zero"):
                    at = op[1] % (size + 1)
                    if op[0] == "cut":
                        os.truncate(log, at)
                        size = _segments(at)
                    else:
                        with open(log, "r+b") as file:
                            file.seek(at)
                            file.write(bytes(size - at))
                    while boundaries[-1][0] > at:
                        boundaries.pop()
                    model = dict(boundaries[-1][1])
                storage = FileStableStorage(Path(root))
                assert storage.records_quarantined == 0
            data, end = log.read_bytes(), boundaries[-1][0]
            assert len(data) == size
            assert data[end:] == bytes(size - end)
            assert (storage.log_bytes, storage.log_records) == (end, len(boundaries) - 1)
            assert storage.records == model
        storage.close()
        assert FileStableStorage(Path(root)).records == model
