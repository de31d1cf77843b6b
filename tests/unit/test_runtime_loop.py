"""Unit tests for the live runtime's caller-driven selector loop."""

import threading
import time

import pytest

from repro.common.errors import ReproError
from repro.runtime.node import Loop


@pytest.fixture
def loop():
    loop = Loop()
    yield loop
    loop.close()


def test_callbacks_run_in_call_order(loop):
    ran = []
    for i in range(5):
        loop.call_soon(ran.append, i)
    assert loop.run_until(lambda: len(ran) == 5, timeout=1.0)
    assert ran == [0, 1, 2, 3, 4]


def test_a_callback_queued_by_a_callback_runs_on_the_next_iteration(loop):
    """The transport's "never inside ``send``" rests on this."""
    ran = []

    def first():
        ran.append("first")
        loop.call_soon(ran.append, "queued by first")

    loop.call_soon(first)
    loop.call_soon(ran.append, "second")
    # The predicate is checked after each iteration: the first one ran
    # the two callbacks queued before it, and nothing that they queued.
    assert loop.run_until(lambda: "second" in ran, timeout=1.0)
    assert ran == ["first", "second"]
    assert loop.run_until(lambda: len(ran) == 3, timeout=1.0)
    assert ran[-1] == "queued by first"


def test_timers_fire_in_deadline_order(loop):
    fired = []
    for delay in (0.004, 0.001, 0.003, 0.002):
        loop.call_later(delay, fired.append, delay)
    assert loop.run_until(lambda: len(fired) == 4, timeout=1.0)
    assert fired == [0.001, 0.002, 0.003, 0.004]


def test_a_cancelled_timer_never_fires(loop):
    fired = []
    timer = loop.call_later(0.001, fired.append, "cancelled")
    loop.call_later(0.002, fired.append, "kept")
    timer.cancel()
    timer.cancel()  # idempotent
    loop.run_until(lambda: False, timeout=0.01)
    assert fired == ["kept"]


def test_cancelled_timers_do_not_pile_up_in_the_heap(loop):
    """Every operation arms a 10 s timeout that it almost always cancels."""
    live = []
    for i in range(20_000):
        timer = loop.call_later(10.0, print)
        if i % 100 == 0:
            live.append(timer)
        else:
            timer.cancel()
        assert len(loop._timers) <= max(2 * len(live), 64)
    assert len(loop._timers) <= 2 * len(live)


def test_a_raising_callback_reaches_the_handler_and_the_batch_runs_on(loop):
    errors, ran = [], []

    def failing():
        raise RuntimeError("callback failed")

    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    loop.call_soon(failing)
    loop.call_soon(ran.append, "next")
    assert loop.run_until(lambda: ran, timeout=1.0)
    assert len(errors) == 1
    assert isinstance(errors[0]["exception"], RuntimeError)
    assert "failing" in errors[0]["message"]


def test_run_until_returns_before_a_later_timer_fires(loop):
    """It returns after the iteration in which its predicate turned true."""
    done, fired = [], []

    def turn_true():
        loop.call_later(0.0015, fired.append, "later")
        done.append(True)

    loop.call_soon(turn_true)
    assert loop.run_until(lambda: done, timeout=1.0)
    assert fired == []
    assert loop.run_until(lambda: fired, timeout=1.0)


def test_run_until_honours_a_timeout_below_a_millisecond(loop):
    started = time.monotonic()
    assert loop.run_until(lambda: False, timeout=0.0002) is False
    assert 0.0002 <= time.monotonic() - started < 0.05


def test_run_until_refuses_another_thread(loop):
    raised = []

    def elsewhere():
        try:
            loop.run_until(lambda: True, timeout=0.01)
        except Exception as error:
            raised.append(error)

    thread = threading.Thread(target=elsewhere)
    thread.start()
    thread.join()
    with pytest.raises(ReproError, match="thread that built it"):
        raise raised[0]
