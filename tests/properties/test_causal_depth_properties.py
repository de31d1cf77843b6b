"""Property: the depth tracker is a per-operation running maximum."""

from hypothesis import given, strategies as st

from repro.common.ids import OperationId
from repro.history.causal_logs import CausalDepthTracker

OPS = st.one_of(
    st.none(),
    st.builds(OperationId, st.integers(0, 2), st.integers(0, 3)),
)
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["observe", "record_store", "outgoing_depth", "depth_of"]),
        OPS,
        st.integers(0, 6),
    ),
    max_size=60,
)


@given(STEPS)
def test_tracker_matches_a_reference_max_fold(steps):
    tracker = CausalDepthTracker()
    deepest = {}  # the reference: op -> max depth folded in so far
    for verb, op, depth in steps:
        known = deepest.get(op, 0)
        if verb == "observe":
            expected = depth if op is None else max(known, depth)
            assert tracker.observe(op, depth) == expected
            if op is not None:
                deepest[op] = expected
        elif verb == "record_store":
            assert tracker.record_store(op, depth) == depth + 1
            if op is not None:
                deepest[op] = max(known, depth + 1)
        elif verb == "outgoing_depth":
            expected = depth if op is None else max(known, depth)
            assert tracker.outgoing_depth(op, depth) == expected
        elif op is not None:
            assert tracker.depth_of(op) == known
    for op, depth in deepest.items():
        assert tracker.depth_of(op) == depth
