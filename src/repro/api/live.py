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
(:meth:`LiveBackend.submit_op`), with the handle the node fills in
as for a simulated one; ``latency`` is wall seconds.  The
verbs that drive a node (``node``, ``session``, ``crash``,
``recover``, ``wait``, ``stats``) are :class:`~repro.api.base.Cluster`'s,
shared with the simulator; this module adds the wall clock's ``run``
and ``run_until``, ``checkpoint`` and the transports' ``net.*`` rows.

What the backend cannot do is declared, not approximated: it has no
``virtual_time`` capability (its clock is the wall clock, and a run is
not seeded, so ``seed`` must stay ``None``) and no ``link_faults``
(``partition``/``heal`` over real sockets raise
:class:`~repro.common.errors.CapabilityError`).
"""

from __future__ import annotations

import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Deque, List, Optional, Set

from repro.api.base import Cluster, Session, check_key
from repro.api.types import CRASH_INJECTION, OpHandle
from repro.common.errors import ConfigurationError, ProtocolError, ReproError
from repro.history.recorder import HistoryRecorder
from repro.obs.ring import RingTrace
from repro.obs.tracing import ALL_KINDS
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


class LiveSession(Session):
    """A session pinned to one live node."""

    def write(self, value: Any, key: Optional[str] = None) -> OpHandle:
        return self._observed(self.cluster.submit_op(self.pid, "write", value, key))

    def read(self, key: Optional[str] = None) -> OpHandle:
        return self._observed(self.cluster.submit_op(self.pid, "read", None, key))


class LiveBackend(Cluster):
    """N protocol nodes over real UDP sockets on one caller-driven kernel."""

    backend = "live"
    capabilities = frozenset({CRASH_INJECTION})
    session_class = LiveSession

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
        if not op_timeout > 0:  # NaN too
            raise ConfigurationError("op_timeout must be > 0")
        self.protocol = protocol
        self.num_processes = num_processes
        self.op_timeout = op_timeout
        self._make_protocol = protocol_factory(protocol, LIVE_RETRANSMIT_INTERVAL)
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if storage_root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-live-")
            storage_root = self._tmpdir.name
        self.storage_root = Path(storage_root)
        # The live kernel's clock, read without a call through the backend.
        self.recorder = HistoryRecorder(clock=time.monotonic)
        # One shared flight recorder over every node's transport, using
        # the sim trace's kind vocabulary so exports decode uniformly
        # across backends.
        self.flight_recorder = RingTrace(kinds=ALL_KINDS)
        self.nodes: List[RuntimeNode] = []
        self._registers: Set[str] = set()
        # Handles whose op timeout may still fire, oldest first, so in
        # deadline order: one kernel event at a time expires them all,
        # where a cancellable timer per operation would cost four calls
        # and a heap entry that outlives the operation by op_timeout.
        self._expiring: Deque[OpHandle] = deque()
        self._expiry_armed = False
        self._kernel: Optional[Kernel] = None
        self._log: Optional[FileLog] = None

    @property
    def kernel(self) -> Kernel:
        """The scheduler, from :meth:`start` to :meth:`close`."""
        if self._kernel is None:
            raise ReproError("cluster not started")
        return self._kernel

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LiveBackend":
        """Open the log, bind every node's socket, then boot them all on the kernel."""
        if self.nodes:
            raise ReproError("cluster already started")
        self._kernel = kernel = live_kernel()
        try:
            self._log = log = FileLog(self.storage_root)
            records = log.scan_files()
            for pid in range(self.num_processes):
                node = RuntimeNode(
                    pid=pid,
                    num_processes=self.num_processes,
                    protocol_factory=self._make_protocol,
                    log=log,
                    records=records,
                    recorder=self.recorder,
                )
                self.nodes.append(node)  # before it binds: close() covers a failed start
                node.start(kernel, self.flight_recorder)
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

    # -- operations --------------------------------------------------------

    def submit_op(
        self, pid: int, kind: str, value: Any = None, key: Optional[str] = None
    ) -> OpHandle:
        """Invoke a ``"read"`` or ``"write"`` at node ``pid``; its handle at once.

        The handle settles while the loop runs (inside ``wait``,
        ``run_until`` and the other blocking verbs): with the result;
        aborted with what the invocation raised (node crashed, not
        recovered), with :class:`~repro.common.errors.ProcessCrashed`
        if a crash aborted the operation, or with :class:`TimeoutError`
        after ``op_timeout`` seconds (the operation then stays in
        flight on the node).  A ``key`` not provisioned yet is
        provisioned first: :meth:`ensure_key` runs the loop until it is
        ready.  A key that is not a non-empty string raises
        :class:`~repro.common.errors.ConfigurationError`, and a written
        value the wire format cannot carry, or too big for one datagram,
        :class:`~repro.common.errors.TransportError`, both here, before
        anything changes.
        """
        kernel = self.kernel
        node = self.node(pid)
        if key is not None:
            check_key(key)
        handle = OpHandle(kind, key, pid, value, time.monotonic())
        if kind == "write":
            check_value(value, key)
        try:
            if key is not None and not node.has_register(key):
                self.ensure_key(key, self.op_timeout)
            if kind == "read":
                node.invoke_read(key, handle)
            else:
                node.invoke_write(value, key, handle)
        except Exception as error:  # an outcome of the operation, like the others
            handle._settle(time.monotonic(), error=error)
            return handle
        expiring = self._expiring
        while expiring and expiring[0].settled:
            expiring.popleft()
        expiring.append(handle)
        if not self._expiry_armed:
            self._expiry_armed = True
            kernel.schedule(self.op_timeout, self._expire)
        return handle

    def _expire(self) -> None:
        """Time out the handles past their deadline; re-arm for the next."""
        expiring, timeout, now = self._expiring, self.op_timeout, time.monotonic()
        while expiring and (expiring[0].settled or expiring[0].submitted_at + timeout <= now):
            handle = expiring.popleft()
            handle._settle(  # a no-op on a settled handle
                now,
                error=TimeoutError(
                    f"{handle.kind} at p{handle.pid} did not settle within {timeout}s"
                ),
            )
        if expiring:
            self.kernel.schedule(expiring[0].submitted_at + timeout - now, self._expire)
        else:
            self._expiry_armed = False

    # -- fault verbs -------------------------------------------------------

    def checkpoint(self, pid: int) -> bool:
        """Run one two-phase checkpoint at node ``pid``; whether it committed.

        ``False`` when nothing began (node down, a checkpoint already in
        progress, no new records of idle registers) or a crash abandoned
        it between the phases.  Live only: the simulator checkpoints on
        its ``checkpoint_interval`` timer.
        """
        node = self.node(pid)
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
        """The kernel's clock, in wall seconds (0.0 outside start..close)."""
        return self._kernel.clock() if self._kernel is not None else 0.0

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

    # -- observability -----------------------------------------------------

    def _events(self) -> int:
        return self._kernel.events_processed if self._kernel is not None else 0

    def _logs(self) -> List[FileLog]:
        return [self._log] if self._log is not None else []

    def _register_metrics(self, registry) -> None:
        """Add the transports' rows to the shared ones."""
        super()._register_metrics(registry)
        nodes = self.nodes
        registry.gauge("net.messages_sent", fn=lambda: _sent(nodes))
        registry.gauge("net.messages_delivered", fn=lambda: _received(nodes))
        # UDP gives no per-datagram loss signal; sent-minus-received is
        # the best available estimate (in-flight datagrams and
        # crash-muted receivers count as dropped).
        registry.gauge(
            "net.messages_dropped",
            fn=lambda: max(0, _sent(nodes) - _received(nodes)),
        )
        registry.gauge(
            "net.malformed",
            fn=lambda: sum(n.transport.malformed for n in nodes),
        )
