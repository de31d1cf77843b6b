"""Unit tests for causal-log depth accounting."""

import pytest

from repro.common.ids import make_operation_id
from repro.history.causal_logs import CausalDepthTracker


class TestCausalDepthTracker:
    def test_observe_returns_max_of_event_and_known(self):
        tracker = CausalDepthTracker()
        op = make_operation_id(0)
        assert tracker.observe(op, 2) == 2
        assert tracker.observe(op, 1) == 2  # known depth dominates
        assert tracker.observe(op, 5) == 5

    def test_observe_outside_operations_passes_through(self):
        tracker = CausalDepthTracker()
        assert tracker.observe(None, 4) == 4
        assert tracker.observe(None, 0) == 0

    def test_deepen_raises_the_recorded_depth(self):
        tracker = CausalDepthTracker()
        op = make_operation_id(0)
        tracker.deepen(op, 1)
        assert tracker.depths[op] == 1
        tracker.deepen(op, 2)
        assert tracker.depths.get(op, 0) == 2

    def test_reset_forgets_everything(self):
        tracker = CausalDepthTracker()
        op = make_operation_id(0)
        tracker.deepen(op, 1)
        depths = tracker.depths
        tracker.reset()
        assert tracker.depths.get(op, 0) == 0
        assert tracker.depths is depths  # cleared in place: hosts bind its get

    def test_retention_cap_evicts_oldest(self):
        tracker = CausalDepthTracker(retention=2)
        ops = [make_operation_id(0) for _ in range(3)]
        for op in ops:
            tracker.deepen(op, 1)
        assert tracker.depths.get(ops[0], 0) == 0  # evicted
        assert tracker.depths.get(ops[2], 0) == 1

    def test_eviction_is_first_in_first_out(self):
        tracker = CausalDepthTracker(retention=2)
        a, b, c = (make_operation_id(0) for _ in range(3))
        tracker.deepen(a, 1)
        tracker.deepen(b, 1)
        assert tracker.observe(a, 2) == 2  # a rise does not renew a's place
        tracker.deepen(c, 1)
        assert tracker.depths.get(a, 0) == 0  # first in, first out
        assert tracker.depths.get(b, 0) == 1
        assert tracker.depths.get(c, 0) == 1

    def test_depth_zero_observations_take_no_room(self):
        tracker = CausalDepthTracker(retention=1)
        op = make_operation_id(0)
        tracker.deepen(op, 1)
        for _ in range(5):
            assert tracker.observe(make_operation_id(1), 0) == 0
        assert tracker.depths.get(op, 0) == 1

    def test_rejects_negative_depth(self):
        tracker = CausalDepthTracker()
        with pytest.raises(ValueError):
            tracker.observe(make_operation_id(0), -1)

    def test_rejects_zero_retention(self):
        with pytest.raises(ValueError):
            CausalDepthTracker(retention=0)
