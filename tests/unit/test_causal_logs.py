"""Unit tests for causal-log depth accounting."""

import pytest

from repro.common.ids import make_operation_id
from repro.history.causal_logs import CausalDepthTracker, summarize_causal_logs


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

    def test_store_deepens_the_chain_by_one(self):
        tracker = CausalDepthTracker()
        op = make_operation_id(0)
        assert tracker.record_store(op, 0) == 1
        assert tracker.depth_of(op) == 1
        assert tracker.record_store(op, 1) == 2
        assert tracker.depth_of(op) == 2

    def test_parallel_stores_do_not_stack(self):
        # Two logs issued at the same depth are causally independent:
        # both complete at depth issue+1, the op's depth stays 1.
        tracker = CausalDepthTracker()
        op = make_operation_id(0)
        tracker.record_store(op, 0)
        tracker.record_store(op, 0)
        assert tracker.depth_of(op) == 1

    def test_outgoing_depth_includes_local_store_history(self):
        # A resent ack still causally follows the log this process
        # performed for the operation earlier (process order).
        tracker = CausalDepthTracker()
        op = make_operation_id(0)
        tracker.record_store(op, 1)  # log completed at depth 2
        assert tracker.outgoing_depth(op, 0) == 2

    def test_outgoing_depth_outside_operations(self):
        tracker = CausalDepthTracker()
        assert tracker.outgoing_depth(None, 3) == 3

    def test_reset_forgets_everything(self):
        tracker = CausalDepthTracker()
        op = make_operation_id(0)
        tracker.record_store(op, 0)
        tracker.reset()
        assert tracker.depth_of(op) == 0

    def test_retention_cap_evicts_oldest(self):
        tracker = CausalDepthTracker(retention=2)
        ops = [make_operation_id(0) for _ in range(3)]
        for op in ops:
            tracker.record_store(op, 0)
        assert tracker.depth_of(ops[0]) == 0  # evicted
        assert tracker.depth_of(ops[2]) == 1

    def test_eviction_is_first_in_first_out(self):
        tracker = CausalDepthTracker(retention=2)
        a, b, c = (make_operation_id(0) for _ in range(3))
        tracker.record_store(a, 0)
        tracker.record_store(b, 0)
        assert tracker.observe(a, 2) == 2  # a rise does not renew a's place
        tracker.record_store(c, 0)
        assert tracker.depth_of(a) == 0  # first in, first out
        assert tracker.depth_of(b) == 1
        assert tracker.depth_of(c) == 1

    def test_depth_zero_observations_take_no_room(self):
        tracker = CausalDepthTracker(retention=1)
        op = make_operation_id(0)
        tracker.record_store(op, 0)
        for _ in range(5):
            assert tracker.observe(make_operation_id(1), 0) == 0
        assert tracker.depth_of(op) == 1

    def test_rejects_negative_depth(self):
        tracker = CausalDepthTracker()
        with pytest.raises(ValueError):
            tracker.observe(make_operation_id(0), -1)

    def test_rejects_zero_retention(self):
        with pytest.raises(ValueError):
            CausalDepthTracker(retention=0)


class TestSummaries:
    def test_summarize_computes_min_mean_max(self):
        summary = summarize_causal_logs({"write": [2, 2, 2], "read": [0, 1]})
        assert summary["write"] == {"min": 2.0, "mean": 2.0, "max": 2.0, "count": 3.0}
        assert summary["read"]["max"] == 1.0
        assert summary["read"]["mean"] == pytest.approx(0.5)

    def test_empty_kinds_are_skipped(self):
        assert "read" not in summarize_causal_logs({"read": []})
