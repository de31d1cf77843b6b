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
        st.sampled_from(["observe", "deepen", "read"]),
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
        elif verb == "deepen":
            # As a host calls it: for an operation, on a rise.
            if op is not None and depth > known:
                tracker.deepen(op, depth)
                deepest[op] = depth
        elif op is not None:
            assert tracker.depths.get(op, 0) == known
    for op, depth in deepest.items():
        assert tracker.depths.get(op, 0) == depth
