"""Discrete-event simulation kernel: virtual clock plus event queue.

The kernel is deliberately tiny and deterministic.  Events scheduled for
the same instant fire in insertion order, and the only source of
randomness is the seeded :class:`random.Random` the kernel owns, so a
run is a pure function of (program, seed).  That determinism is what
lets the test suite replay the paper's adversarial schedules (runs
rho_1 .. rho_4 of the lower-bound proofs) exactly.

Hot-loop design.  A simulated message costs at least two kernel events,
so the queue is kept allocation-free on the common path: an event is a
plain ``(time, seq, callback, args)`` tuple (tuples compare in C, and
``seq`` is unique so comparison never reaches the callback).  Only
:meth:`Kernel.schedule_cancellable` -- used for timers and other events
that may be revoked -- pays for an :class:`EventHandle`; its heap entry
is ``(time, seq, handle, None)``, distinguished by the ``None`` in the
args slot (real argument tuples are never ``None``).  Cancellation is
O(1): the handle flips a flag and the kernel skips the entry when it
surfaces.  A live-event counter keeps :attr:`Kernel.pending_events`
O(1), and the heap is compacted whenever cancelled entries outnumber
live ones, so mass-cancelling timers cannot leak queue memory.
:meth:`Kernel.run_until`, the loop every cluster drives, takes one look
at the heap per event -- shed a cancelled head, stop at the deadline,
or pop and fire -- instead of a peek and a ``step()`` call; compaction
is in place because that loop holds the list.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, List, Optional, Tuple

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
    """Virtual clock and event queue driving one simulation run."""

    def __init__(self, seed: int = 0):
        #: Current virtual time in seconds.  Plain attributes, not
        #: properties, because every layer reads them per event; only
        #: the kernel writes ``now``.
        self.now = 0.0
        #: The run's single seeded random stream.
        self.rng = random.Random(seed)
        # Entries: (time, seq, callback, args) or (time, seq, handle, None).
        self._queue: List[Tuple[float, int, Any, Any]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._live = 0
        self._cancelled = 0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for run budgets)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return self._live

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        This is the allocation-free fast path; the event cannot be
        revoked.  Use :meth:`schedule_cancellable` when the caller needs
        a handle to :meth:`~EventHandle.cancel`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._seq), callback, args)
        )
        self._live += 1

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} which is before now ({self.now})"
            )
        self.schedule(time - self.now, callback, *args)

    def schedule_cancellable(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        handle = EventHandle(self, self.now + delay, callback, args)
        heapq.heappush(self._queue, (handle.time, next(self._seq), handle, None))
        self._live += 1
        return handle

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if the queue is empty."""
        queue = self._queue
        while queue:
            time, _, target, args = heapq.heappop(queue)
            if args is None:  # cancellable entry: target is its handle
                if target.cancelled:
                    self._cancelled -= 1
                    continue
                target.fired = True
                callback, args = target.callback, target.args
            else:
                callback = target
            self._live -= 1
            self.now = time
            self._events_processed += 1
            callback(*args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the event queue.

        ``until`` bounds virtual time (events after it stay queued and
        the clock advances exactly to ``until``); ``max_events`` bounds
        the number of callbacks, guarding against livelock in buggy or
        adversarial configurations.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return
            next_time = self._peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                return
            self.step()
            executed += 1
        if until is not None and until > self.now:
            self.now = until

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_events: int = 1_000_000,
        timeout: Optional[float] = None,
        poll_every: int = 1,
    ) -> bool:
        """Run until ``predicate()`` holds.

        Returns ``True`` if the predicate was satisfied, ``False`` if
        the queue drained, the event budget ran out, or virtual time
        passed ``timeout`` first.

        ``poll_every`` amortizes the predicate: it is evaluated every
        ``poll_every`` executed events instead of before every single
        one.  The default of 1 preserves exact stop positions (no event
        runs after the predicate turns true); closed-loop drivers that
        tolerate up to ``poll_every - 1`` events of overshoot pass a
        larger stride so a long drain stops paying a Python call per
        kernel event.  ``timeout`` stays exact either way.
        """
        if poll_every < 1:
            raise ValueError(f"poll_every must be >= 1, got {poll_every}")
        deadline = None if timeout is None else self.now + timeout
        executed = 0
        queue = self._queue  # _compact keeps this list
        heappop = heapq.heappop
        while executed < max_events:
            if predicate():
                return True
            for _ in range(min(poll_every, max_events - executed)):
                # One look at the heap head: shed it if cancelled,
                # stop at the deadline, or fire it.
                while queue:
                    time, _seq, target, args = queue[0]
                    if args is None and target.cancelled:
                        heappop(queue)
                        self._cancelled -= 1
                        continue
                    break
                else:
                    return predicate()
                if deadline is not None and time > deadline:
                    self.now = deadline
                    return predicate()
                heappop(queue)
                if args is None:  # cancellable entry: target is its handle
                    target.fired = True
                    target, args = target.callback, target.args
                self._live -= 1
                self.now = time
                self._events_processed += 1
                target(*args)
                executed += 1
        return predicate()

    def _peek_time(self) -> Optional[float]:
        """Time of the next live event, shedding cancelled entries."""
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[3] is None and entry[2].cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def _on_cancel(self) -> None:
        """Bookkeeping for one newly-cancelled live entry."""
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled * 2 > len(self._queue)
            and len(self._queue) >= _COMPACT_MIN
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify, in place.

        In place because :meth:`run_until` holds the list while a
        callback's ``cancel()`` may land here.
        """
        self._queue[:] = [
            entry
            for entry in self._queue
            if entry[3] is not None or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled = 0
