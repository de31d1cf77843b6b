"""Unit tests for the discrete-event kernel."""

import ast
from pathlib import Path

import pytest

import repro
from repro.sim.kernel import Kernel


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(0.3, fired.append, "c")
        kernel.schedule(0.1, fired.append, "a")
        kernel.schedule(0.2, fired.append, "b")
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_insertion_order(self):
        kernel = Kernel()
        fired = []
        for label in "abcde":
            kernel.schedule(1.0, fired.append, label)
        kernel.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(2.5, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [2.5]
        assert kernel.now == 2.5

    def test_nested_scheduling_during_callbacks(self):
        kernel = Kernel()
        fired = []

        def outer():
            fired.append(("outer", kernel.now))
            kernel.schedule(1.0, inner)

        def inner():
            fired.append(("inner", kernel.now))

        kernel.schedule(1.0, outer)
        kernel.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_zero_delay_allowed(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(0.0, fired.append, 1)
        kernel.run()
        assert fired == [1]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Kernel().schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "schedule_cancellable"])
    def test_a_nan_delay_is_refused_like_a_negative_one(self, method):
        # NaN is no time: it used to land in the heap and send a
        # virtual run down the live branch, which has no clock to read.
        kernel = Kernel()
        with pytest.raises(ValueError, match=r"cannot schedule into the past \(delay=nan\)"):
            getattr(kernel, method)(float("nan"), lambda: None)
        assert kernel.queue == []
        kernel.run()


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        kernel = Kernel()
        fired = []
        handle = kernel.schedule_cancellable(1.0, fired.append, "x")
        handle.cancel()
        kernel.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        kernel = Kernel()
        handle = kernel.schedule_cancellable(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        kernel.run()
        assert kernel.pending_events == 0

    def test_cancel_after_firing_is_a_no_op(self):
        kernel = Kernel()
        fired = []
        handle = kernel.schedule_cancellable(1.0, fired.append, "x")
        kernel.schedule(2.0, fired.append, "y")
        kernel.run()
        handle.cancel()  # must not corrupt the live-event accounting
        assert fired == ["x", "y"]
        assert kernel.pending_events == 0

    def test_pending_events_excludes_cancelled(self):
        kernel = Kernel()
        keep = kernel.schedule_cancellable(1.0, lambda: None)
        drop = kernel.schedule_cancellable(2.0, lambda: None)
        drop.cancel()
        assert kernel.pending_events == 1
        keep.cancel()
        assert kernel.pending_events == 0

    def test_cancellable_and_plain_events_interleave_in_order(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "plain")
        kernel.schedule_cancellable(1.0, fired.append, "cancellable")
        kernel.schedule(1.0, fired.append, "plain2")
        kernel.run()
        assert fired == ["plain", "cancellable", "plain2"]

    def test_mass_cancellation_keeps_the_heap_bounded(self):
        # The paper's protocols arm a retransmit timer per round and
        # cancel it on quorum; 10k cancelled timers must not linger in
        # the queue until their (possibly far-future) deadlines.
        kernel = Kernel()
        live = kernel.schedule_cancellable(1e9, lambda: None)
        for _ in range(10_000):
            kernel.schedule_cancellable(1e6, lambda: None).cancel()
        assert kernel.pending_events == 1
        # Compaction keeps the internal heap proportional to the live
        # entries, not to the cancellation history.
        assert len(kernel.queue) < 100
        live.cancel()
        assert kernel.pending_events == 0


class TestRunBounds:
    def test_run_until_time_bound_stops_early(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(3.0, fired.append, "b")
        kernel.run(until=2.0)
        assert fired == ["a"]
        assert kernel.now == 2.0
        kernel.run()
        assert fired == ["a", "b"]

    def test_run_until_a_time_past_the_last_event_advances_the_clock(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a")
        kernel.run(until=2.0)
        assert fired == ["a"]
        assert kernel.now == 2.0
        kernel.run(until=2.5)  # on an empty queue too
        assert kernel.now == 2.5

    def test_run_refuses_a_time_before_now(self):
        kernel = Kernel()
        kernel.run(until=1.0)
        with pytest.raises(ValueError):
            kernel.run(until=0.5)
        assert kernel.now == 1.0

    def test_run_refuses_a_nan_time(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="cannot run back to nan"):
            kernel.run(until=float("nan"))
        assert kernel.now == 0.0 and kernel.pending_events == 1

    def test_run_until_refuses_a_nan_timeout(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match=r"cannot run into the past \(timeout=nan\)"):
            kernel.run_until(lambda: False, timeout=float("nan"))
        assert kernel.now == 0.0 and kernel.pending_events == 1

    def test_run_until_refuses_a_negative_timeout(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            kernel.run_until(lambda: False, timeout=-1.0)
        assert kernel.now == 0.0 and kernel.pending_events == 1

    def test_a_raising_callback_raises_through_on_virtual_time(self):
        kernel = Kernel()

        def failing():
            raise RuntimeError("callback failed")

        kernel.schedule(1.0, failing)
        kernel.schedule(2.0, lambda: None)
        with pytest.raises(RuntimeError, match="callback failed"):
            kernel.run()
        assert kernel.now == 1.0 and kernel.pending_events == 1

    def test_run_with_event_budget(self):
        kernel = Kernel()
        fired = []
        for i in range(10):
            kernel.schedule(float(i), fired.append, i)
        kernel.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_run_until_predicate(self):
        kernel = Kernel()
        count = []
        for i in range(10):
            kernel.schedule(float(i), count.append, i)
        ok = kernel.run_until(lambda: len(count) >= 3)
        assert ok
        assert len(count) == 3

    def test_run_until_returns_false_when_queue_drains(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        assert not kernel.run_until(lambda: False, max_events=100)

    def test_run_until_respects_timeout(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(10.0, fired.append, "late")
        ok = kernel.run_until(lambda: bool(fired), timeout=1.0)
        assert not ok
        assert fired == []
        assert kernel.now == pytest.approx(1.0)

    def test_events_processed_counter(self):
        kernel = Kernel()
        for i in range(5):
            kernel.schedule(float(i), lambda: None)
        kernel.run()
        assert kernel.events_processed == 5

    def test_run_until_sheds_a_cancelled_entry_at_the_heap_head(self):
        kernel = Kernel()
        fired = []
        kernel.schedule_cancellable(1.0, fired.append, "cancelled").cancel()
        kernel.schedule_cancellable(2.0, fired.append, "timer")
        kernel.schedule(3.0, fired.append, "plain")
        assert kernel.run_until(lambda: len(fired) == 2)
        assert fired == ["timer", "plain"]
        assert kernel.now == 3.0
        assert kernel.events_processed == 2
        assert kernel.pending_events == 0
        assert kernel._cancelled == 0 and kernel.queue == []

    def test_run_until_survives_a_compaction_from_inside_a_callback(self):
        # A callback that cancels >= 64 timers compacts the heap while
        # run_until is iterating it; nothing scheduled before or after
        # the compaction may be lost.
        kernel = Kernel()
        fired = []
        timers = [
            kernel.schedule_cancellable(50.0 + i, fired.append, f"timer{i}")
            for i in range(100)
        ]

        def cancel_all():
            fired.append("cancel")
            for timer in timers:
                timer.cancel()
            kernel.schedule(1.0, fired.append, "after")

        kernel.schedule(1.0, cancel_all)
        kernel.schedule(3.0, fired.append, "before")
        assert not kernel.run_until(lambda: False)  # drains
        assert fired == ["cancel", "after", "before"]
        assert kernel.now == 3.0
        assert kernel.pending_events == 0
        assert kernel._cancelled == 0 and kernel.queue == []

    def test_run_until_timeout_between_two_events_is_exact(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "early")
        kernel.schedule_cancellable(1.5, fired.append, "cancelled").cancel()
        kernel.schedule(3.0, fired.append, "late")
        assert not kernel.run_until(lambda: len(fired) == 2, timeout=2.0)
        assert fired == ["early"]
        assert kernel.now == 2.0
        assert kernel.pending_events == 1
        assert kernel.run_until(lambda: len(fired) == 2, timeout=1.0)  # 3.0 is in reach
        assert fired == ["early", "late"]
        assert kernel.now == 3.0

    def test_run_until_poll_every_overshoots_by_less_than_its_stride(self):
        kernel = Kernel()
        fired = []
        for i in range(1000):
            kernel.schedule(float(i), fired.append, i)
        assert kernel.run_until(lambda: len(fired) >= 10, poll_every=64)
        assert 10 <= len(fired) <= 10 + 63
        # The event budget stays exact whatever the stride.
        assert not kernel.run_until(lambda: False, max_events=100, poll_every=64)
        assert kernel.events_processed == len(fired) == 64 + 100


class TestDeterminism:
    def test_same_seed_same_random_stream(self):
        a = Kernel(seed=42)
        b = Kernel(seed=42)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        assert Kernel(seed=1).rng.random() != Kernel(seed=2).rng.random()

    def test_only_the_kernel_writes_its_clock_and_random_stream(self):
        # ``Kernel.now`` and ``Kernel.rng`` are plain attributes (every
        # layer reads them per event), so nothing stops an assignment:
        # one from outside ``common/kernel.py`` would silently break
        # determinism.  No file under ``src/`` may store to either name.
        root = Path(repro.__file__).parent
        stores = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            if path != root / "common" / "kernel.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and node.attr in ("now", "rng")
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ]
        assert stores == []
