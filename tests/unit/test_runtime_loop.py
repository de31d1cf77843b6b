"""Unit tests for the live event loop: the kernel on the wall clock.

The kernel is built as the live backend builds it, with
:func:`repro.runtime.node.live_kernel` (``time.monotonic`` and one
``select.poll`` over the nodes' sockets); "call soon" is a zero-delay
:meth:`~repro.common.kernel.Kernel.schedule`.
"""

import threading
import time

import pytest

from repro.common.errors import ReproError
from repro.runtime.node import live_kernel


@pytest.fixture
def kernel():
    return live_kernel()


def test_callbacks_run_in_call_order(kernel):
    ran = []
    for i in range(5):
        kernel.schedule(0.0, ran.append, i)
    assert kernel.run_until(lambda: len(ran) == 5, timeout=1.0)
    assert ran == [0, 1, 2, 3, 4]


def test_a_callback_queued_by_a_callback_runs_on_the_next_iteration(kernel):
    """The transport's "never inside ``send``" rests on this."""
    ran = []

    def first():
        ran.append("first")
        kernel.schedule(0.0, ran.append, "queued by first")

    kernel.schedule(0.0, first)
    kernel.schedule(0.0, ran.append, "second")
    # The first iteration ran the two callbacks queued before it, and
    # nothing that they queued.
    assert kernel.run_until(lambda: "second" in ran, timeout=1.0)
    assert ran == ["first", "second"]
    assert kernel.run_until(lambda: len(ran) == 3, timeout=1.0)
    assert ran[-1] == "queued by first"


def test_the_sockets_are_polled_again_before_what_a_callback_queued(kernel):
    """A chain of zero-delay callbacks cannot starve the sockets."""
    ran, polls = [], []
    poll = kernel.io.poll

    def counted(milliseconds):
        polls.append((len(ran), milliseconds))
        return poll(milliseconds)

    kernel.io.poll = counted

    def first():
        ran.append("first")
        kernel.schedule(0.0, ran.append, "queued by first")

    kernel.schedule(0.0, first)
    kernel.schedule(0.0, ran.append, "second")
    assert kernel.run_until(lambda: len(ran) == 3, timeout=1.0)
    assert ran == ["first", "second", "queued by first"]
    # Once before the first iteration, once before the second; neither
    # blocks, because each found an event already due.
    assert polls == [(0, 0), (2, 0)]


def test_timers_fire_in_deadline_order(kernel):
    fired = []
    for delay in (0.004, 0.001, 0.003, 0.002):
        kernel.schedule_cancellable(delay, fired.append, delay)
    assert kernel.run_until(lambda: len(fired) == 4, timeout=1.0)
    assert fired == [0.001, 0.002, 0.003, 0.004]


def test_a_cancelled_timer_never_fires(kernel):
    fired = []
    timer = kernel.schedule_cancellable(0.001, fired.append, "cancelled")
    kernel.schedule_cancellable(0.002, fired.append, "kept")
    timer.cancel()
    timer.cancel()  # idempotent
    kernel.run_until(lambda: False, timeout=0.01)
    assert fired == ["kept"]


def test_cancelled_timers_do_not_pile_up_in_the_heap(kernel):
    """Every operation arms a 10 s timeout that it almost always cancels."""
    live = []
    for i in range(20_000):
        timer = kernel.schedule_cancellable(10.0, print)
        if i % 100 == 0:
            live.append(timer)
        else:
            timer.cancel()
        assert len(kernel.queue) <= max(2 * len(live), 64)
    assert len(kernel.queue) <= 2 * len(live)


def test_a_raising_callback_reaches_the_handler_and_the_batch_runs_on(kernel):
    errors, ran = [], []

    def failing():
        raise RuntimeError("callback failed")

    kernel.on_error = errors.append
    kernel.schedule(0.0, failing)
    kernel.schedule(0.0, ran.append, "next")
    assert kernel.run_until(lambda: ran, timeout=1.0)
    assert len(errors) == 1
    assert isinstance(errors[0]["exception"], RuntimeError)
    assert "failing" in errors[0]["message"]


def test_run_until_returns_before_a_later_timer_fires(kernel):
    """It returns after the iteration in which its predicate turned true."""
    done, fired = [], []

    def turn_true():
        kernel.schedule_cancellable(0.0015, fired.append, "later")
        done.append(True)

    kernel.schedule(0.0, turn_true)
    assert kernel.run_until(lambda: done, timeout=1.0)
    assert fired == []
    assert kernel.run_until(lambda: fired, timeout=1.0)


def test_run_until_honours_a_timeout_below_a_millisecond(kernel):
    started = time.monotonic()
    assert kernel.run_until(lambda: False, timeout=0.0002) is False
    assert 0.0002 <= time.monotonic() - started < 0.05


def test_run_until_refuses_another_thread(kernel):
    raised = []

    def elsewhere():
        try:
            kernel.run_until(lambda: True, timeout=0.01)
        except Exception as error:
            raised.append(error)

    thread = threading.Thread(target=elsewhere)
    thread.start()
    thread.join()
    with pytest.raises(ReproError, match="thread that built it"):
        raise raised[0]
