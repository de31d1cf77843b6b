"""The ``"live"`` backend: nodes over UDP on the kernel, in wall time.

:class:`LiveBackend` spins up N :class:`~repro.runtime.node.RuntimeNode`
instances on one :class:`~repro.common.kernel.Kernel` built on the wall
clock (:func:`~repro.runtime.node.live_kernel`): real datagrams on
localhost, a real ``O_DSYNC`` log, wall-clock time.  The nodes share
one log, ``storage_root/wal.log`` (a temporary directory by default),
as they share the kernel and the disk: each node's keys are its own
under its ``"<pid>/"`` prefix, and stores the nodes issue together
land in one write.  Crash/recovery really does go through the
filesystem::

    with open_cluster(backend="live", num_processes=3) as cluster:
        cluster.session(0).write_sync("hello")
        cluster.crash(0)
        cluster.recover(0)
        assert cluster.session(0).read_sync() == "hello"

The backend owns the kernel but no thread: the caller drives it, as it
drives the simulator's, in wall time.  The kernel runs only inside the
blocking verbs -- ``start``, ``wait`` and the ``*_sync``
calls, ``run``, ``run_until``, ``recover``, ``ensure_key``/``preload``
and :meth:`LiveBackend.checkpoint`; nothing advances (no
retransmission, no recovery, no ``op_timeout``) while the caller is
outside them.  An operation is invoked on the node at the call
(:meth:`LiveBackend.submit_op`), and the node's settle callback
settles its :class:`LiveHandle`; ``latency`` is wall seconds.

What the backend cannot do is declared, not approximated: it has no
``virtual_time`` capability (its clock is the wall clock, and a run is
not seeded, so ``seed`` must stay ``None``) and no ``link_faults``
(``partition``/``heal`` over real sockets raise
:class:`~repro.common.errors.CapabilityError`).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Callable, List, Optional, Set

from repro.api.base import Cluster, Session, register_node_metrics
from repro.api.types import CRASH_INJECTION, ClusterStats, OpHandle
from repro.common.errors import (
    ConfigurationError,
    OperationAborted,
    ProcessCrashed,
    ProtocolError,
    ReproError,
)
from repro.history.recorder import HistoryRecorder
from repro.obs.ring import RingTrace
from repro.obs.tracing import ALL_KINDS
from repro.protocol.host import NodeOperation
from repro.protocol.registry import protocol_factory
from repro.runtime.node import RuntimeNode, live_kernel
from repro.runtime.storage import FileLog
from repro.runtime.transport import Peer, check_value
from repro.common.kernel import Kernel

#: Retransmission period for live clusters, seconds.  Generous: real
#: loopback rarely drops, so retries are a safety net, not the norm.
LIVE_RETRANSMIT_INTERVAL = 0.05


def _sent(nodes) -> int:
    return sum(node.transport.messages_sent for node in nodes)


def _received(nodes) -> int:
    return sum(node.transport.messages_received for node in nodes)


def _recoveries(nodes) -> int:
    """``recover()`` calls so far, the figure the simulator's trace counts.

    Every call leaves the crashed state and only a crash re-enters it,
    so the calls are the crashes minus the nodes that are still down.
    """
    return sum(node.crash_count - node.crashed for node in nodes)


class LiveHandle(OpHandle):
    """Façade handle of a live operation: its outcome, in plain fields.

    :meth:`_settle` stamps the outcome and the completion instant once
    and runs the callbacks at once, as a simulated
    :class:`~repro.protocol.host.NodeOperation` does; ``error`` is what
    the operation failed with, if it aborted.
    """

    __slots__ = (
        "kind",
        "key",
        "pid",
        "settled",
        "done",
        "aborted",
        "result",
        "error",
        "_submitted",
        "_completed",
        "_callbacks",
    )

    def __init__(self, kind: str, key: Optional[str], pid: int):
        self.kind = kind
        self.key = key
        self.pid = pid
        self.settled = self.done = self.aborted = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._submitted = time.monotonic()
        self._completed: Optional[float] = None
        self._callbacks: List[Callable[[OpHandle], None]] = []

    def _settle(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        if self.settled:
            return  # timed out; the operation finished after all
        self._completed = time.monotonic()
        self.settled = True
        self.aborted = error is not None
        self.done = not self.aborted
        self.result, self.error = result, error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion wall seconds."""
        if self._completed is None:
            return None
        return self._completed - self._submitted

    def add_callback(self, callback: Callable[[OpHandle], None]) -> None:
        if self.settled:
            callback(self)
        else:
            self._callbacks.append(callback)


class LiveSession(Session):
    """A session pinned to one live node."""

    @property
    def ready(self) -> bool:
        node = self.cluster.nodes[self.pid]
        return node.ready and not node.register_busy(None)

    def write(self, value: Any, key: Optional[str] = None) -> LiveHandle:
        return self._observed(self.cluster.submit_op(self.pid, "write", value, key))

    def read(self, key: Optional[str] = None) -> LiveHandle:
        return self._observed(self.cluster.submit_op(self.pid, "read", None, key))


class LiveBackend(Cluster):
    """N protocol nodes over real UDP sockets on one caller-driven kernel."""

    backend = "live"
    capabilities = frozenset({CRASH_INJECTION})

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        seed: Optional[int] = None,
        storage_root: Optional[Path] = None,
        op_timeout: float = 10.0,
    ):
        if seed is not None:
            raise ConfigurationError(
                "the live backend is not seedable (real sockets, real "
                "time); use backend='sim' or 'kv' for deterministic runs"
            )
        num_processes = 3 if num_processes is None else num_processes
        if num_processes < 1:
            raise ConfigurationError("num_processes must be >= 1")
        self._protocol = protocol
        self._num_processes = num_processes
        self.op_timeout = op_timeout
        self._make_protocol = protocol_factory(protocol, LIVE_RETRANSMIT_INTERVAL)
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if storage_root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-live-")
            storage_root = self._tmpdir.name
        self.storage_root = Path(storage_root)
        self.recorder = HistoryRecorder(clock=self._clock)
        # One shared flight recorder over every node's transport, using
        # the sim trace's kind vocabulary so exports decode uniformly
        # across backends.
        self._flight_recorder = RingTrace(kinds=ALL_KINDS)
        self.nodes: List[RuntimeNode] = []
        self._registers: Set[str] = set()
        self._kernel: Optional[Kernel] = None
        self._log: Optional[FileLog] = None

    @property
    def kernel(self) -> Kernel:
        """The scheduler, from :meth:`start` to :meth:`close`."""
        if self._kernel is None:
            raise ReproError("cluster not started")
        return self._kernel

    def _clock(self) -> float:
        return self._kernel.clock() if self._kernel is not None else 0.0

    def _events(self) -> int:
        return self._kernel.events_processed if self._kernel is not None else 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LiveBackend":
        """Open the log, bind every node's socket, then boot them all on the kernel."""
        if self.nodes:
            raise ReproError("cluster already started")
        self._kernel = kernel = live_kernel()
        try:
            self._log = log = FileLog(self.storage_root)
            records = log.scan_files()
            for pid in range(self._num_processes):
                node = RuntimeNode(
                    pid=pid,
                    num_processes=self._num_processes,
                    protocol_factory=self._make_protocol,
                    log=log,
                    records=records,
                    recorder=self.recorder,
                )
                self.nodes.append(node)  # before it binds: close() covers a failed start
                node.start(kernel)
                node.transport.attach_flight_recorder(self._flight_recorder, kernel.clock)
            peers = [
                Peer(pid=node.pid, host=node.transport.host, port=node.transport.port)
                for node in self.nodes
            ]
            for node in self.nodes:
                node.transport.set_peers(peers)
            self._boot()
        except BaseException:
            self.close()  # no socket, kernel or temp dir outlives a failed start
            raise
        return self

    def close(self) -> None:
        """Tear the nodes down, close the log, drop the kernel and the temp root."""
        if self._kernel is not None:
            for node in self.nodes:
                node.close()
            if self._log is not None:
                self._log.close()
            self._kernel = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    # -- identity ----------------------------------------------------------

    @property
    def protocol(self) -> str:
        return self._protocol

    @property
    def num_processes(self) -> int:
        return self._num_processes

    def session(self, pid: Optional[int] = None) -> LiveSession:
        if pid is None:
            raise ConfigurationError(
                "the live backend needs an explicit pid per session"
            )
        if not 0 <= pid < self._num_processes:
            raise ConfigurationError(f"pid {pid} out of range")
        return LiveSession(self, pid)

    # -- operations --------------------------------------------------------

    def submit_op(
        self, pid: int, kind: str, value: Any = None, key: Optional[str] = None
    ) -> LiveHandle:
        """Invoke a ``"read"`` or ``"write"`` at node ``pid``; its handle at once.

        The handle settles while the loop runs (inside ``wait``,
        ``run_until`` and the other blocking verbs): with the result;
        aborted with what the invocation raised (node crashed, not
        recovered), with :class:`~repro.common.errors.ProcessCrashed`
        if a crash aborted the operation, or with :class:`TimeoutError`
        after ``op_timeout`` seconds (the operation then stays in
        flight on the node).  A ``key`` not provisioned yet is
        provisioned first: :meth:`ensure_key` runs the loop until it is
        ready.  A written value the wire format cannot carry, or too
        big for one datagram, raises :class:`~repro.common.errors.
        TransportError` here, before any datagram leaves.
        """
        kernel = self.kernel
        handle = LiveHandle(kind, key, pid)
        if kind == "write":
            check_value(value, key)
        node = self.nodes[pid]
        try:
            if key is not None and not node.has_register(key):
                self.ensure_key(key, self.op_timeout)
            if kind == "read":
                operation = node.invoke_read(key)
            else:
                operation = node.invoke_write(value, key)
        except Exception as error:  # an outcome of the operation, like the others
            handle._settle(error=error)
            return handle

        def expire() -> None:
            handle._settle(
                error=TimeoutError(
                    f"{kind} at p{pid} did not settle within {self.op_timeout}s"
                )
            )

        def settle(operation: NodeOperation) -> None:
            timer.cancel()
            if operation.aborted:
                handle._settle(
                    error=ProcessCrashed(
                        f"process {pid} crashed during {kind} {operation.op}"
                    )
                )
            else:
                handle._settle(operation.result)

        timer = kernel.schedule_cancellable(self.op_timeout, expire)
        operation.add_callback(settle)
        return handle

    # -- fault verbs -------------------------------------------------------

    def crash(self, pid: int) -> None:
        self.nodes[pid].crash()

    def recover(self, pid: int, wait: bool = True, timeout: float = 5.0) -> None:
        self._recover_node(self.nodes[pid], wait, timeout)

    def checkpoint(self, pid: int) -> bool:
        """Run one two-phase checkpoint at node ``pid``; whether it committed.

        ``False`` when nothing began (node down, a checkpoint already in
        progress, no new records of idle registers) or a crash abandoned
        it between the phases.  Live only: the simulator checkpoints on
        its ``checkpoint_interval`` timer.
        """
        node = self.nodes[pid]
        committed = node.checkpoints_committed
        if not node.begin_checkpoint():
            return False
        if not self.run_until(
            lambda: not node.checkpoint_in_progress, timeout=self.op_timeout
        ):
            raise ProtocolError(f"node {pid} did not finish its checkpoint")
        return node.checkpoints_committed > committed

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """The kernel's clock, in wall seconds."""
        return self._clock()

    def run(self, duration: Optional[float] = None, max_events: int = 1_000_000) -> None:
        """Run the loop for ``duration`` wall seconds.

        A duration is required: a live cluster never goes quiet.
        ``max_events`` is not honoured, as for :meth:`run_until`.
        """
        if duration is None:
            raise ConfigurationError(
                "a live cluster never goes quiet: run() needs a duration"
            )
        self.kernel.run_until(lambda: False, None, duration)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        poll_every: int = 1,
        max_events: int = 1_000_000,
    ) -> bool:
        """Run the loop until ``predicate()`` holds; ``False`` on timeout.

        The predicate is checked every ``poll_every`` events, as on the
        simulator; ``timeout`` is wall seconds (``None``: no bound).
        ``max_events`` is not honoured: a long live closed loop runs
        more events than any budget a simulated run would set.
        """
        return self.kernel.run_until(predicate, None, timeout, poll_every)

    def wait(
        self, handle: OpHandle, timeout: float = 5.0, expect_done: bool = False
    ) -> OpHandle:
        if not handle.settled and not self.kernel.run_until(
            lambda: handle.settled, None, timeout
        ):
            # Only this wait gave up; the operation stays in flight.
            raise ReproError(f"live {handle.kind} did not settle within {timeout}s")
        if expect_done and handle.aborted:
            raise OperationAborted(
                f"{handle.kind} at p{handle.pid} failed: {handle.error}"
            ) from handle.error
        return handle

    # -- observability -----------------------------------------------------

    def stats(self) -> ClusterStats:
        nodes = self.nodes
        sent = _sent(nodes)
        return ClusterStats(
            clock=self._clock(),
            kernel_events=self._events(),
            messages_sent=sent,
            # UDP gives no per-datagram loss signal; sent-minus-received
            # is the best available estimate (in-flight datagrams and
            # crash-muted receivers count as dropped).
            messages_dropped=max(0, sent - _received(nodes)),
            stores_completed=sum(
                node.storage.stores_completed for node in nodes
            ),
            crashes=sum(node.crash_count for node in nodes),
            recoveries=_recoveries(nodes),
        )

    def _register_metrics(self, registry) -> None:
        nodes = self.nodes
        registry.gauge("kernel.clock", fn=self._clock)
        registry.gauge("kernel.events", fn=self._events)
        registry.gauge("net.messages_sent", fn=lambda: _sent(nodes))
        registry.gauge("net.messages_delivered", fn=lambda: _received(nodes))
        registry.gauge(
            "net.messages_dropped",
            fn=lambda: max(0, _sent(nodes) - _received(nodes)),
        )
        registry.gauge(
            "net.malformed",
            fn=lambda: sum(n.transport.malformed for n in nodes),
        )
        register_node_metrics(registry, nodes, lambda: [self._log] if self._log else [])
        registry.gauge("node.recoveries", fn=lambda: _recoveries(nodes))
        registry.gauge(
            "trace.flight_recorded", fn=lambda: self._flight_recorder.total
        )

    @property
    def flight_recorder(self) -> RingTrace:
        return self._flight_recorder
