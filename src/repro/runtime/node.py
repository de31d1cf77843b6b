"""Live process: :class:`~repro.protocol.host.NodeCore` on the kernel, in wall time.

The process itself is :mod:`repro.protocol.host`, the same one the
simulator hosts, and its scheduler is the simulator's, the shared
:class:`~repro.common.kernel.Kernel`, built by :func:`live_kernel` on the
wall clock with :class:`SocketPoll` as its I/O step and :func:`report`
as its error policy.  This driver gives the process real I/O:

* datagrams go out through a :class:`~repro.runtime.transport.
  UdpTransport`; a crash mutes it, which with the core's incarnation
  guard and volatile-state wipe is everything a real ``kill -9`` would
  do to the algorithm, inside one OS process so tests stay hermetic;
* timers are :meth:`~repro.common.kernel.Kernel.schedule_cancellable`, as
  on the simulator;
* every file operation -- a store's ``O_DSYNC`` write, a checkpoint's
  tombstones, a compaction, recovery's read-back -- is a job on the
  list of the log the cluster's nodes share (:attr:`~repro.runtime.
  storage.FileLog.jobs`), which the event loop drains in issue order,
  like the simulator's sequential device: frames never interleave in
  the log, an acknowledged record is never overwritten by an older one,
  and recovery replays the log only after every job queued before it
  ran.  Consecutive stores, whichever nodes issued them, are one
  ``O_DSYNC`` write: the round-2 ``written`` stores of a write's three
  responders cost one flush together, as causally independent logs
  cost one log latency in the paper.  A store whose node crashed since
  it was queued is voided instead (counted in ``stores_lost_to_crash``):
  the crash beat it to the disk.  A job's completion runs right after
  its write returned, never inside the call that issued it, so the
  in-memory view shows a record only once it is durable; a checkpoint
  therefore never truncates a key that still has a store queued.

The kernel runs only inside :meth:`~repro.common.kernel.Kernel.run_until`
on the caller's thread.  Each turn of its loop fires the next event due
by the last poll; failing that, it runs the next socket that poll found
readable, straight from the poll's result (one datagram per readable
event, never through the event heap); failing both, it polls again.  So
a callback queued by a callback runs only after the sockets were looked
at again, and a datagram waits for no event queued after it was found.
A callback that raises is logged and the loop runs on.  A callback may
itself run the loop (a blocking verb inside a deferred callback): the
nested run drives the same queue and polls the same sockets, so a
reader the outer run found readable may find nothing left, which the
transport takes in its stride.

Threading contract.  A node belongs to the thread that started it,
which is the thread that runs its event loop, and so does all of its
I/O: a live store crosses no thread.  Every mutator -- boot, crash,
recover, begin_checkpoint, provision_register, invoke_read/write --
raises :class:`~repro.common.errors.ReproError` when called from any
other thread, and so does the live kernel's run loop.  The live backend,
:class:`repro.api.live.LiveBackend`, starts its nodes on the caller's
thread and runs their loop inside its blocking verbs.

The first job queued after a drain schedules the next one (a zero-delay
event), so a burst of stores costs one loop callback and one write.  A
job or completion that raises is reported to the kernel's error policy
and never acknowledged; the jobs behind it still run.
"""

from __future__ import annotations

import functools
import select
import threading
import time
from collections import Counter
from itertools import groupby
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.ids import ProcessId
from repro.history.recorder import HistoryRecorder
from repro.obs.ring import RingTrace
from repro.protocol.host import NodeCore, ProtocolFactory
from repro.runtime.storage import FileLog, LogView, encode_frame
from repro.runtime.transport import UdpTransport
from repro.common.kernel import Kernel

class SocketPoll:
    """A live kernel's I/O step: one :func:`select.poll` over the nodes' sockets."""

    def __init__(self) -> None:
        self._poll = select.poll()
        self.poll = self._poll.poll
        #: fd -> ``(fn, args)``, run each time a poll finds ``fd`` readable.
        self.readers: Dict[int, Tuple[Callable[..., Any], Tuple[Any, ...]]] = {}

    def add_reader(self, fd: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` each time a poll finds ``fd`` readable."""
        self._poll.register(fd, select.POLLIN)
        self.readers[fd] = (fn, args)

    def remove_reader(self, fd: int) -> bool:
        """Stop watching ``fd``; whether it was watched."""
        if self.readers.pop(fd, None) is None:
            return False
        self._poll.unregister(fd)
        return True


def report(context: Dict[str, Any]) -> None:
    """A live kernel's error policy: log the message and traceback (to stderr by default).

    :mod:`logging` is imported on the first report, not with this
    module: with the ``string``, ``textwrap`` and ``traceback`` modules
    it pulls in, it costs a live cluster's set-up some 9 000 calls, and
    a run with nothing to report never needs it.
    """
    import logging

    logging.getLogger(__name__).error(context["message"], exc_info=context.get("exception"))


def live_kernel() -> Kernel:
    """A kernel on the wall clock whose I/O step polls the nodes' sockets."""
    return Kernel(clock=time.monotonic, io=SocketPoll(), on_error=report)


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
        log: FileLog,
        records: Dict[str, Tuple[Any, ...]],
        recorder: HistoryRecorder,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.transport = UdpTransport(pid, host=host, port=port)
        self._transmit = self.transport.transmit
        # This node's share of ``records``, the scan of the shared log.
        storage = LogView(f"{pid}/")
        storage.adopt(records)
        # No trace (NULL_TRACE), no egress window, no checkpoint timer:
        # the core's defaults are the live constants.
        super().__init__(pid, num_processes, storage, protocol_factory, recorder)
        self._log = log
        self._kernel: Optional[Kernel] = None
        self._thread: Optional[int] = None
        # Key -> stores queued and not durable yet.
        self._storing: Counter = Counter()

    def start(self, kernel: Kernel, ring: RingTrace) -> None:
        """Bind the transport on live ``kernel``, stamping into ``ring``.  Peers are installed by the cluster."""
        self._kernel = kernel
        self._thread = threading.get_ident()
        self._now = kernel.clock
        self._call_later = kernel.schedule_cancellable
        self._defer = kernel.schedule
        self.transport.start(self._on_message, kernel, ring)

    def close(self) -> None:
        """Release the socket, then land every job queued on the log.

        Nothing is acknowledged that is not on disk, and nothing queued
        is lost to the close.  The log itself is its owner's to close.
        """
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self.transport.close()
        while self._log.jobs:
            self._drain()

    boot = _loop_thread_only(NodeCore.boot)
    crash = _loop_thread_only(NodeCore.crash)
    recover = _loop_thread_only(NodeCore.recover)
    begin_checkpoint = _loop_thread_only(NodeCore.begin_checkpoint)
    provision_register = _loop_thread_only(NodeCore.provision_register)
    _invoke = _loop_thread_only(NodeCore._invoke)

    # -- driver primitives (the rest are bound in __init__ and start) ---------

    def _crash_io(self) -> None:
        # Queued stores are voided when the drain reaches them (their
        # incarnation is gone); recovery's read-back queues behind them.
        self.transport.muted = True

    def _on_disk(
        self, done: Callable[[Any], None], job: Optional[Callable[..., Any]], *args: Any
    ) -> None:
        """Queue ``job(*args)`` on the log (a store's is ``None``), then ``done(result)``."""
        jobs = self._log.jobs
        if not jobs:
            self._kernel.schedule(0.0, self._drain)
        jobs.append((done, job, args))

    def _drain(self) -> None:
        """Run the log's queued jobs in issue order, each followed by its ``done``.

        A run of consecutive stores is one write, of the frames whose
        node has not crashed since they were queued; then each store's
        ``done(landed)`` runs, in issue order.
        """
        log = self._log
        jobs, log.jobs = log.jobs, []
        for stores, run in groupby(jobs, lambda item: item[1] is None):
            if not stores:
                for done, job, args in run:
                    self._call(lambda: done(job(*args)))
                continue
            run = [(done, node.incarnation == incarnation, frame)
                   for done, _, (node, incarnation, frame) in run]
            frames = [frame for _, landed, frame in run if landed]
            if not frames or self._call(log.append, frames):
                for done, landed, _ in run:
                    self._call(done, landed)

    def _call(self, fn: Callable[..., Any], *args: Any) -> bool:
        """Call ``fn(*args)``; whether it returned.  What it raised is reported."""
        try:
            fn(*args)
        except Exception as error:  # a failed write, a full disk
            # Worded as asyncio words a failed task: bench/run.py
            # counts these lines on stderr.
            self._kernel.on_error(
                {"message": "Task exception was never retrieved", "exception": error}
            )
            return False
        return True

    def _store(
        self,
        key: str,
        record: Tuple[Any, ...],
        size: int,
        on_durable: Callable[[], None],
        op: Any,
    ) -> None:
        def stored(landed: bool) -> None:
            self._storing[key] -= 1
            if not landed:
                self.storage.stores_lost_to_crash += 1
                return
            self.storage.apply_store(key, record, size)
            on_durable()

        self._storing[key] += 1
        logged = self.storage.prefix + key
        self._on_disk(stored, None, self, self.incarnation, (logged, encode_frame(logged, record)))

    def _delete(self, key: str) -> None:
        if self._storing[key]:
            # A newer record of this key is queued.  The in-memory view
            # shows it only once it is durable, so the core still saw
            # the superseded one; a tombstone queued now would land
            # behind the new frame and remove it.
            # The new record stays in the log and recovery replays it.
            return
        self.storage.apply_delete(key)
        self._on_disk(lambda _result: None, self._log.unlink_file, self.storage.prefix + key)

    def _compact(self) -> None:
        """Rewrite the log as its live records, behind what is queued."""
        self._on_disk(lambda _result: None, self._log.compact_file)

    def _read_back(self, incarnation: int) -> None:
        def loaded(records: Dict[str, Tuple[Any, ...]]) -> None:
            self.storage.adopt(records)  # this node's share of the scan
            self._finish_recover(incarnation)

        # Listening again at once: until ``loaded`` the core drops what
        # arrives, and the scan queues behind the dead incarnation's stores.
        self.transport.muted = False
        self._on_disk(loaded, self._log.scan_files)
