"""Live process: :class:`~repro.protocol.host.NodeCore` on a caller-driven selector loop.

The process itself is :mod:`repro.protocol.host`, the same one the
simulator hosts.  This driver gives it real time and real I/O:

* datagrams go out through a :class:`~repro.runtime.transport.
  UdpTransport`; a crash mutes it, which with the core's incarnation
  guard and volatile-state wipe is everything a real ``kill -9`` would
  do to the algorithm, inside one OS process so tests stay hermetic;
* timers are :meth:`Loop.call_later`;
* every file operation -- a store's ``O_DSYNC`` write, a checkpoint's
  tombstones, a compaction, recovery's read-back -- is a job on the
  node's list, which the node's own event loop drains in issue order,
  like the simulator's sequential device: frames never interleave in
  the log, an acknowledged record is never overwritten by an older one,
  and recovery replays the log only after every store of the previous
  incarnation landed.  A job's completion runs right after its write
  returned, never inside the call that issued it, so the in-memory view
  shows a record only once it is durable; a checkpoint therefore never
  truncates a key that still has a store queued.

The event loop is :class:`Loop`: the simulator kernel's contract in
wall time.  A FIFO queue of ready callbacks, a heap of timers and one
:func:`select.poll` over the nodes' sockets, run only by
:meth:`Loop.run_until` on the caller's thread.  One iteration runs in
this order: shed cancelled timers at the heap's head, poll (without
blocking when callbacks are ready), queue the readable sockets' readers,
then the due timers, then run the batch queued so far; a callback
queued by the batch runs on the next iteration.  A callback that raises
goes to the exception handler and the rest of the batch still runs.  A
callback may itself run the loop (a blocking verb inside a deferred
callback): the nested run drives the same queues, as a nested
:meth:`repro.sim.kernel.Kernel.run_until` does.

Threading contract.  A node belongs to the thread that started it,
which is the thread that runs its event loop, and so does all of its
I/O: a live store crosses no thread.  Every mutator -- boot, crash,
recover, begin_checkpoint, provision_register, invoke_read/write --
raises :class:`~repro.common.errors.ReproError` when called from any
other thread, and so does :meth:`Loop.run_until`.  The live backend,
:class:`repro.api.live.LiveBackend`, starts its nodes on the caller's
thread and runs their loop inside its blocking verbs.

The first job queued after a drain schedules the next one
(``loop.call_soon``), so a burst of stores costs one loop callback.  A
job or completion that raises is reported to the loop's exception
handler and never acknowledged; the jobs behind it still run.
"""

# repro: hot-path
# (HOT001: no unguarded TraceEvent/emit on the live per-callback path.)

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import select
import threading
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.ids import ProcessId
from repro.history.recorder import HistoryRecorder
from repro.protocol.host import NodeCore, ProtocolFactory
from repro.runtime.storage import FileStableStorage, encode_frame
from repro.runtime.transport import UdpTransport

logger = logging.getLogger(__name__)

#: Minimum timer heap size before cancellation triggers a compaction
#: sweep (the simulator kernel's rule).
_COMPACT_MIN = 64

Callback = Tuple[Callable[..., Any], Tuple[Any, ...]]


class TimerHandle:
    """One armed :meth:`Loop.call_later`; ``cancel()`` keeps it from firing."""

    __slots__ = ("_loop", "_fn", "_args", "cancelled")

    def __init__(self, loop: "Loop", fn: Callable[..., Any], args: Tuple[Any, ...]):
        self._loop: Optional[Loop] = loop  # None once it left the heap
        self._fn = fn
        self._args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Keep the callback from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._loop is not None:
                self._loop._on_cancel()

    def _run(self) -> None:
        if not self.cancelled:  # cancelled between falling due and its turn
            self._fn(*self._args)


class Loop:
    """The live runtime's event loop, run by :meth:`run_until` alone.

    ``time`` is :func:`time.monotonic` itself, so clock reads on the
    datapath are one C call.  There is no ``run_forever``: the loop
    advances only inside :meth:`run_until`, on the thread that built it.
    """

    def __init__(self) -> None:
        self.time = time.monotonic
        self._thread = threading.get_ident()
        self._ready: Deque[Callback] = deque()
        # Entries: (deadline, seq, timer); seq keeps comparison off the timer.
        self._timers: List[Tuple[float, int, TimerHandle]] = []
        self._seq = itertools.count()
        self._cancelled = 0
        self._poll = select.poll()
        self._readers: Dict[int, Callback] = {}
        self._handler: Optional[Callable[["Loop", Dict[str, Any]], None]] = None

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` on the next iteration, in call order."""
        self._ready.append((fn, args))

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` once ``delay`` seconds have passed."""
        timer = TimerHandle(self, fn, args)
        heapq.heappush(self._timers, (self.time() + delay, next(self._seq), timer))
        return timer

    def add_reader(self, fd: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` on every iteration that finds ``fd`` readable."""
        self._poll.register(fd, select.POLLIN)
        self._readers[fd] = (fn, args)

    def remove_reader(self, fd: int) -> bool:
        """Stop watching ``fd``; whether it was watched."""
        if self._readers.pop(fd, None) is None:
            return False
        self._poll.unregister(fd)
        return True

    def set_exception_handler(
        self, handler: Optional[Callable[["Loop", Dict[str, Any]], None]]
    ) -> None:
        """Send what a callback raises to ``handler(loop, context)``."""
        self._handler = handler

    def call_exception_handler(self, context: Dict[str, Any]) -> None:
        """Report ``context`` (``message``, ``exception``) to the handler.

        With no handler set it is logged, message and traceback, on this
        module's logger, which with no logging configured writes both to
        stderr.
        """
        if self._handler is not None:
            self._handler(self, context)
        else:
            logger.error(context["message"], exc_info=context.get("exception"))

    def run_until(
        self, predicate: Callable[[], bool], timeout: Optional[float] = None
    ) -> bool:
        """Run iterations until ``predicate()`` holds; ``False`` on timeout.

        The predicate is checked before the first iteration and after
        every one; ``timeout`` is wall seconds (``None``: no bound).
        """
        if threading.get_ident() != self._thread:
            raise ReproError("the live loop runs only on the thread that built it")
        clock = self.time
        deadline = None if timeout is None else clock() + timeout
        ready, timers, readers = self._ready, self._timers, self._readers
        poll, popleft, heappop = self._poll.poll, ready.popleft, heapq.heappop
        while not predicate():
            now = clock()
            if deadline is not None and now >= deadline:
                return False
            while timers and timers[0][2].cancelled:
                heappop(timers)
                self._cancelled -= 1
            if ready:
                wait: Optional[float] = 0.0
            else:
                wait = None if deadline is None else deadline - now
                if timers and (wait is None or timers[0][0] - now < wait):
                    wait = timers[0][0] - now
                if wait is not None:
                    wait = max(wait, 0.0) * 1000  # milliseconds, rounded up
            for fd, _event in poll(wait):
                ready.append(readers[fd])
            now = clock()
            while timers and timers[0][0] <= now:
                timer = heappop(timers)[2]
                if timer.cancelled:
                    self._cancelled -= 1
                else:
                    timer._loop = None
                    ready.append((timer._run, ()))
            # Counted down while the queue lasts: a callback that runs
            # the loop itself may have drained part of this batch.
            count = len(ready)
            while count and ready:
                count -= 1
                fn, args = popleft()
                try:
                    fn(*args)
                except Exception as error:
                    self.call_exception_handler(
                        {"message": f"Exception in callback {fn!r}", "exception": error}
                    )
        return True

    def close(self) -> None:
        """Drop every queued callback, timer and reader."""
        for fd in list(self._readers):
            self.remove_reader(fd)
        self._ready.clear()
        self._timers.clear()
        self._cancelled = 0

    def _on_cancel(self) -> None:
        """Bookkeeping for one cancelled timer still in the heap."""
        self._cancelled += 1
        timers = self._timers
        if self._cancelled * 2 > len(timers) and len(timers) >= _COMPACT_MIN:
            # In place: run_until holds the list.
            timers[:] = [entry for entry in timers if not entry[2].cancelled]
            heapq.heapify(timers)
            self._cancelled = 0


def _loop_thread_only(method: Callable[..., Any]) -> Callable[..., Any]:
    """Refuse ``method`` off the thread that started the node (threading contract)."""

    @functools.wraps(method)
    def guarded(self: "RuntimeNode", *args: Any, **kwargs: Any) -> Any:
        if threading.get_ident() != self._thread:
            raise ReproError(
                f"node {self.pid}: {method.__name__}() called off the node's "
                f"event-loop thread (or before start()); go through LiveBackend"
            )
        return method(self, *args, **kwargs)

    return guarded


class RuntimeNode(NodeCore):
    """One live process of the emulation."""

    def __init__(
        self,
        pid: ProcessId,
        num_processes: int,
        protocol_factory: ProtocolFactory,
        storage_root: Path,
        recorder: HistoryRecorder,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.transport = UdpTransport(pid, host=host, port=port)
        self._send = self.transport.send
        self._broadcast = self.transport.broadcast
        # No trace (NULL_TRACE), no egress window, no checkpoint timer:
        # the core's defaults are the live constants.
        super().__init__(
            pid,
            num_processes,
            FileStableStorage(Path(storage_root) / f"node-{pid}"),
            protocol_factory,
            recorder,
        )
        self._loop: Optional[Loop] = None
        self._thread: Optional[int] = None
        # (done, job, args) in issue order, until the loop drains them.
        self._jobs: List[tuple] = []
        # Key -> stores queued and not durable yet.
        self._storing: Counter = Counter()

    def start(self, loop: Loop) -> None:
        """Bind the transport on ``loop``.  Peers are installed by the cluster."""
        self._loop = loop
        self._thread = threading.get_ident()
        self._now = loop.time
        self._call_later = loop.call_later
        self.transport.start(self._on_message, loop)

    def close(self) -> None:
        """Release the socket, then land every queued job and close the log.

        Nothing is acknowledged that is not on disk, and nothing queued
        is lost to the close.
        """
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self.transport.close()
        while self._jobs:
            self._drain()
        self.storage.close()

    boot = _loop_thread_only(NodeCore.boot)
    crash = _loop_thread_only(NodeCore.crash)
    recover = _loop_thread_only(NodeCore.recover)
    begin_checkpoint = _loop_thread_only(NodeCore.begin_checkpoint)
    provision_register = _loop_thread_only(NodeCore.provision_register)
    _invoke = _loop_thread_only(NodeCore._invoke)

    # -- driver primitives (the rest are bound in __init__ and start) ---------

    def _crash_io(self) -> None:
        # Queued stores are not recalled; they land as stores that beat
        # the crash, and recovery's read-back queues behind them.
        self.transport.muted = True

    def _on_disk(
        self, done: Callable[[Any], None], job: Callable[..., Any], *args: Any
    ) -> None:
        """Queue ``job(*args)`` for the loop, then ``done(result)`` there."""
        if not self._jobs:
            self._loop.call_soon(self._drain)
        self._jobs.append((done, job, args))

    def _drain(self) -> None:
        """Run the queued jobs in issue order, each followed by its ``done``."""
        jobs, self._jobs = self._jobs, []
        for done, job, args in jobs:
            try:
                done(job(*args))
            except Exception as error:  # a failed write, a full disk
                # Worded as asyncio words a failed task: bench/run.py
                # counts these lines on stderr.
                self._loop.call_exception_handler(
                    {"message": "Task exception was never retrieved", "exception": error}
                )

    def _store(
        self,
        key: str,
        record: Tuple[Any, ...],
        size: int,
        on_durable: Callable[[], None],
        op: Any,
    ) -> None:
        def stored(_result: None) -> None:
            self._storing[key] -= 1
            self.storage.apply_store(key, record, size)
            on_durable()

        self._storing[key] += 1
        self._on_disk(stored, self.storage.write_file, key, encode_frame(key, record))

    def _delete(self, key: str) -> None:
        if self._storing[key]:
            # A newer record of this key is queued.  The in-memory view
            # shows it only once it is durable, so the core still saw
            # the superseded one; a tombstone queued now would land
            # behind the new frame and remove it.
            # The new record stays in the log and recovery replays it.
            return
        self.storage.apply_delete(key)
        self._on_disk(lambda _result: None, self.storage.unlink_file, key)

    def _compact(self) -> None:
        """Rewrite the log as its live records, behind what is queued."""
        self._on_disk(lambda _result: None, self.storage.compact_file)

    def _read_back(self, incarnation: int) -> None:
        def loaded(records: Dict[str, Tuple[Any, ...]]) -> None:
            self.storage.adopt(records)
            self._finish_recover(incarnation)

        # Listening again at once: until ``loaded`` the core drops what
        # arrives, and the scan queues behind the dead incarnation's stores.
        self.transport.muted = False
        self._on_disk(loaded, self.storage.scan_files)
