"""The event scheduler: one scheduler, two clocks.

The simulator and the live runtime run on this one kernel, which is
why it lives here and not under either of them
(:mod:`repro.sim.kernel` names it for the simulator); the three things
that differ between them are constructor arguments.  The clock:
virtual by default, where :attr:`Kernel.now` jumps to the next event;
live passes ``time.monotonic``, and a delay counts from a fresh read of
it (between two verbs the last event's time can be seconds stale).  The
I/O step: none on virtual time; live passes a poll over its sockets.
The error policy: a callback's exception raises through a simulated
run; live reports it to ``on_error`` and runs on.

Events scheduled for the same instant fire in insertion order, and the
only source of randomness is the seeded :class:`random.Random` the
kernel owns, so a simulated run is a pure function of (program, seed).
That determinism is what lets the test suite replay the paper's
adversarial schedules (runs rho_1 .. rho_4 of the lower-bound proofs)
exactly.  Live orders same-instant events by the same rule: "call soon"
is a zero-delay event.

Hot-loop design.  A simulated message costs at least two kernel events,
so the queue is kept allocation-free on the common path: an event is a
plain ``(time, seq, callback, args)`` tuple (tuples compare in C, and
``seq`` is unique so comparison never reaches the callback).  Only
:meth:`Kernel.schedule_cancellable` -- used for timers and other events
that may be revoked -- pays for an :class:`EventHandle`; its heap entry
is ``(time, seq, handle, None)``, distinguished by the ``None`` in the
args slot (real argument tuples are never ``None``).  Cancellation is
O(1): the handle flips a flag and the kernel skips the entry when it
surfaces.  Counting the cancelled entries still in the heap keeps
:attr:`Kernel.pending_events` O(1) (the rest are live), and the heap is
compacted whenever cancelled entries outnumber live ones, so
mass-cancelling timers cannot leak queue memory.

Loop order.  The one run loop takes one look at the heap per event and
does the first of: shed a cancelled head; fire the head if it is due by
the last poll's clock reading (on virtual time, every head up to the
deadline is); run the next reader that poll found readable; stop at the
deadline (virtual time) or poll (live).  A reader runs straight
from the poll's result, never through the heap: it is due at the poll's
reading, after everything that was due by then and before anything
queued since, which lies later on the clock.  A poll that reaches the
deadline returns at once, and the readers it found stay unread for the
next run.  A reader counts as an event, for the budget and the
predicate's stride.  Compaction is in place because the loop holds the
heap's list.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ReproError

#: Minimum heap size before cancellation triggers a compaction sweep.
_COMPACT_MIN = 64


class EventHandle:
    """A cancellable reference to one scheduled callback."""

    __slots__ = ("_kernel", "callback", "args", "cancelled", "fired", "time")

    def __init__(
        self,
        kernel: "Kernel",
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
    ):
        self._kernel = kernel
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self._kernel._on_cancel()


class Kernel:
    """Clock and event queue driving one simulation run or one live cluster.

    The I/O step ``io`` has ``poll(milliseconds)``, which waits up to
    that long (``None``: no bound) and returns the ``(fd, event)`` pairs
    that are ready, as :meth:`select.poll.poll` does, and ``readers``,
    each watched ``fd``'s ``(fn, args)``.  ``on_error`` takes a
    ``{"message", "exception"}`` dict.  A kernel with an I/O step runs
    only on the thread that built it.
    """

    def __init__(
        self,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        io: Any = None,
        on_error: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        #: Current virtual time in seconds (on a wall clock, the last
        #: event's).  Plain attributes, not properties, because every
        #: layer reads them per event; only the kernel writes ``now``.
        self.now = 0.0
        #: The run's single seeded random stream.
        self.rng = random.Random(seed)
        self.clock = clock
        self.io = io
        self.on_error = on_error
        self._thread = threading.get_ident()
        #: The event heap and its entries' ``seq`` counter, public for
        #: the simulated network and storage, which push straight onto
        #: it on virtual time: ``schedule``'s entry, ``now + delay``, with
        #: a delay they validated (>= 0, never NaN).  Others schedule.
        self.queue: List[Tuple[float, int, Any, Any]] = []
        self.seq = itertools.count()
        self._events_processed = 0
        # Cancelled entries still in the heap; every other entry is live.
        self._cancelled = 0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for run budgets)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return len(self.queue) - self._cancelled

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds.

        This is the allocation-free fast path; the event cannot be
        revoked.  Use :meth:`schedule_cancellable` when the caller needs
        a handle to :meth:`~EventHandle.cancel`.
        """
        if not delay >= 0:  # NaN too
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        clock = self.clock
        time = (self.now if clock is None else clock()) + delay
        heappush(self.queue, (time, next(self.seq), callback, args))

    def schedule_cancellable(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if not delay >= 0:  # NaN too
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        clock = self.clock
        time = (self.now if clock is None else clock()) + delay
        handle = EventHandle(self, time, callback, args)
        heappush(self.queue, (time, next(self.seq), handle, None))
        return handle

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` bounds virtual time (events after it stay queued and
        the clock advances exactly to ``until``, also when the queue
        drains first); ``max_events`` bounds the number of callbacks,
        guarding against livelock in buggy or adversarial
        configurations.
        """
        if until is not None and not until >= self.now:  # NaN too
            raise ValueError(f"cannot run back to {until} from {self.now}")
        self._run(lambda: False, max_events, until, sys.maxsize)
        if until is not None and not self.pending_events:
            self.now = until

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_events: Optional[int] = 1_000_000,
        timeout: Optional[float] = None,
        poll_every: int = 1,
    ) -> bool:
        """Run until ``predicate()`` holds.

        Returns ``True`` if the predicate was satisfied, ``False`` if
        the queue drained, the event budget ran out, or ``timeout``
        seconds passed first (``None``: no bound, as for ``max_events``).
        A live queue never drains: it waits on its I/O step.

        ``poll_every`` amortizes the predicate: it is evaluated every
        ``poll_every`` executed events instead of before every single
        one.  The default of 1 preserves exact stop positions (no event
        runs after the predicate turns true); closed-loop drivers that
        tolerate up to ``poll_every - 1`` events of overshoot pass a
        larger stride so a long drain stops paying a Python call per
        kernel event.  ``timeout`` stays exact either way.
        """
        if timeout is None:
            deadline = None
        elif not timeout >= 0:  # NaN too
            raise ValueError(f"cannot run into the past (timeout={timeout})")
        else:
            deadline = (self.now if self.clock is None else self.clock()) + timeout
        return self._run(predicate, max_events, deadline, poll_every)

    def _run(
        self,
        predicate: Callable[[], bool],
        max_events: Optional[int],
        deadline: Optional[float],
        poll_every: int,
    ) -> bool:
        """The run loop: fire events up to ``deadline`` until ``predicate()``."""
        if poll_every < 1:
            raise ValueError(f"poll_every must be >= 1, got {poll_every}")
        io, clock = self.io, self.clock
        if io is not None:
            if threading.get_ident() != self._thread:
                raise ReproError("the live loop runs only on the thread that built it")
            poll, readers = io.poll, io.readers
        budget = sys.maxsize if max_events is None else max_events
        limit = inf if deadline is None else deadline
        # Entries due by ``polled`` fire without another look at the
        # I/O step: on virtual time every one up to the deadline.
        polled = limit if io is None else -inf
        # The last poll's readable (fd, event) pairs; those from ``at`` on
        # are still to run.
        ready: List[Tuple[int, int]] = []
        at = count = 0
        queue = self.queue  # _compact keeps this list
        if predicate():
            return True
        if budget < 1:
            return predicate()
        # One countdown to the next stop: the predicate's or the budget's.
        left = stride = poll_every if poll_every < budget else budget
        while True:
            # One look at the heap head (see "Loop order"); a due head,
            # the common case, takes no jump it can avoid.
            if not queue:
                if io is None:
                    return predicate()
                time = inf
            else:
                time, _seq, target, args = queue[0]
                if args is None and target.cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
            if not time <= polled:
                if at < count:
                    # Straight from the poll's result, never through the heap.
                    fd = ready[at][0]
                    at += 1
                    if fd not in readers:  # its reader was removed since the poll
                        continue
                    target, args = readers[fd]
                    self.now = polled
                elif io is None:  # virtual time: the head lies past the deadline
                    self.now = limit
                    return predicate()
                else:
                    # Live: wait for the sockets until the head or the
                    # deadline is due.
                    wait = (time if time < limit else limit) - clock()
                    ready = poll(None if wait == inf else wait * 1000 if wait > 0 else 0)
                    polled = clock()
                    if polled >= limit:
                        return predicate()
                    at, count = 0, len(ready)
                    continue
            else:
                heappop(queue)
                if args is None:  # cancellable entry: target is its handle
                    target.fired = True
                    target, args = target.callback, target.args
                self.now = time
            self._events_processed += 1
            try:
                target(*args)
            except Exception as error:
                if self.on_error is None:
                    raise
                self.on_error(
                    {"message": f"Exception in callback {target!r}", "exception": error}
                )
            left -= 1
            if not left:
                budget -= stride
                if not budget:
                    return predicate()
                if predicate():
                    return True
                left = stride = poll_every if poll_every < budget else budget

    def _on_cancel(self) -> None:
        """Bookkeeping for one newly-cancelled live entry."""
        self._cancelled += 1
        size = len(self.queue)
        if self._cancelled * 2 > size and size >= _COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify, in place.

        In place because the run loop holds the list while a callback's
        ``cancel()`` may land here.
        """
        self.queue[:] = [
            entry
            for entry in self.queue
            if entry[3] is not None or not entry[2].cancelled
        ]
        heapify(self.queue)
        self._cancelled = 0
