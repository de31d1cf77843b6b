"""The ``"live"`` backend: asyncio/UDP nodes on localhost.

:class:`LiveBackend` spins up N :class:`~repro.runtime.node.RuntimeNode`
instances on one asyncio event loop, run by a background thread: real
datagrams on localhost, real ``O_DSYNC`` log files, wall-clock time.
Every node gets a private storage directory under ``storage_root`` (a
temporary directory by default), so crash/recovery really does go
through the filesystem::

    with open_cluster(backend="live", num_processes=3) as cluster:
        cluster.session(0).write_sync("hello")
        cluster.crash(0)
        cluster.recover(0)
        assert cluster.session(0).read_sync() == "hello"

Two ways onto the loop thread.  An operation goes through
:meth:`LiveBackend.submit_op`: one posted callback invokes it on the
node, one ``call_later`` bounds it by ``op_timeout``, and the node's
settle callback completes the future the returned
:class:`~repro.api.types.OpHandle` wraps -- no coroutine, no task; so
the non-blocking half of the vocabulary works here too, and
``latency`` is wall seconds.  A control verb (crash, recover,
``ensure_key``, :meth:`LiveBackend.checkpoint`) runs one coroutine on
the loop and blocks until it returns.

What the backend cannot do is declared, not approximated: it has no
``virtual_time`` capability, so ``run``/``run_until``/``now``/``defer``
raise :class:`~repro.common.errors.CapabilityError` (there is no
virtual clock to drive -- real time passes on its own), as do
``partition``/``heal`` (real sockets, no link control) and seeding
(``seed`` must stay ``None``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro.api.base import Cluster, Session
from repro.api.sim import check_one_register, register_node_metrics
from repro.api.types import CRASH_INJECTION, ClusterStats, OpHandle, Verdict
from repro.common.errors import (
    ConfigurationError,
    OperationAborted,
    ProcessCrashed,
    ReproError,
)
from repro.history.history import History
from repro.history.partition import partition_history
from repro.history.recorder import HistoryRecorder
from repro.obs.ring import RingTrace
from repro.obs.tracing import ALL_KINDS
from repro.protocol.host import NodeOperation
from repro.protocol.registry import protocol_factory
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import Peer, check_value

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
    """Façade handle around a live operation's in-flight future.

    All state derives from the future itself: a settled future answers
    ``done``/``aborted``/``result`` immediately, regardless of whether
    the loop thread has run the completion callback yet (futures wake
    waiters *before* done-callbacks, so callback-cached state would
    lag behind ``wait()``).
    """

    __slots__ = ("kind", "key", "pid", "_future", "_submitted", "_completed")

    def __init__(
        self, kind: str, key: Optional[str], pid: int, future, submitted: float
    ):
        self.kind = kind
        self.key = key
        self.pid = pid
        self._future = future
        self._submitted = submitted
        self._completed: Optional[float] = None
        future.add_done_callback(self._on_done)

    def _on_done(self, _future) -> None:
        if self._completed is None:
            self._completed = time.monotonic()

    @property
    def settled(self) -> bool:
        return self._future.done()

    @property
    def done(self) -> bool:
        return self._future.done() and self._future.exception() is None

    @property
    def aborted(self) -> bool:
        return self._future.done() and self._future.exception() is not None

    @property
    def error(self) -> Optional[BaseException]:
        """What the operation failed with, if it aborted."""
        return self._future.exception() if self._future.done() else None

    @property
    def result(self) -> Any:
        if not self.done:
            return None
        return self._future.result()

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion wall seconds."""
        if not self._future.done():
            return None
        if self._completed is None:
            # The waiter beat the loop thread's done-callback; stamp
            # completion now (an overestimate of at most that race).
            self._completed = time.monotonic()
        return self._completed - self._submitted

    def add_callback(self, callback: Callable[[OpHandle], None]) -> None:
        # Runs on the cluster's event-loop thread.
        self._future.add_done_callback(lambda _future: callback(self))


class LiveSession(Session):
    """A session pinned to one live node."""

    @property
    def ready(self) -> bool:
        node = self.cluster.nodes[self.pid]
        return node.ready and not node.register_busy(None)

    def write(self, value: Any, key: Optional[str] = None) -> LiveHandle:
        submitted = time.monotonic()
        future = self.cluster.submit_op(self.pid, "write", value, key)
        return self._observed(LiveHandle("write", key, self.pid, future, submitted))

    def read(self, key: Optional[str] = None) -> LiveHandle:
        submitted = time.monotonic()
        future = self.cluster.submit_op(self.pid, "read", None, key)
        return self._observed(LiveHandle("read", key, self.pid, future, submitted))


class LiveBackend(Cluster):
    """N protocol nodes over real UDP sockets on one event-loop thread."""

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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        #: ``(pid, exception)`` of failed non-blocking recoveries.
        self.recovery_errors: List[tuple] = []

    def _clock(self) -> float:
        return self._loop.time() if self._loop is not None else 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LiveBackend":
        """Start the event-loop thread, then bind and boot every node on it."""
        if self._thread is not None:
            raise ReproError("cluster already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True, name="repro-live"
        )
        self._thread.start()
        try:
            self._call(self._start())
        except BaseException:
            self.close()  # no thread, socket or temp dir outlives a failed start
            raise
        return self

    async def _start(self) -> None:
        clock = self._loop.time
        for pid in range(self._num_processes):
            node = RuntimeNode(
                pid=pid,
                num_processes=self._num_processes,
                protocol_factory=self._make_protocol,
                storage_root=self.storage_root,
                recorder=self.recorder,
            )
            self.nodes.append(node)  # before it binds: close() covers a failed start
            await node.start()
            node.transport.attach_flight_recorder(self._flight_recorder, clock)
        peers = [
            Peer(pid=node.pid, host=node.transport.host, port=node.transport.port)
            for node in self.nodes
        ]
        for node in self.nodes:
            node.transport.set_peers(peers)
        for node in self.nodes:
            node.boot()
        await asyncio.gather(*(node.wait_ready() for node in self.nodes))

    def close(self) -> None:
        """Tear the nodes down, stop the event-loop thread, drop the temp root."""
        if self._loop is not None:
            self._call(self._close())
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5.0)
            self._loop.close()
            self._loop = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    async def _close(self) -> None:
        for node in self.nodes:
            node.close()

    def _submit(self, coroutine) -> concurrent.futures.Future:
        """Schedule ``coroutine`` on the loop thread without blocking."""
        if self._loop is None:
            raise ReproError("cluster not started")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop)

    def _call(self, coroutine) -> Any:
        """Run ``coroutine`` on the loop thread and return its result."""
        return self._submit(coroutine).result(timeout=max(self.op_timeout * 2, 30.0))

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
    ) -> concurrent.futures.Future:
        """Invoke a ``"read"`` or ``"write"`` at node ``pid`` without blocking.

        The future holds the result, or fails with what the invocation
        raised (node crashed, not recovered), with :class:`~repro.common.
        errors.ProcessCrashed` if a crash aborted the operation, or with
        :class:`TimeoutError` after ``op_timeout`` seconds (the operation
        then stays in flight on the node).  A ``key`` not provisioned
        yet is provisioned first.  A written value the wire format cannot
        carry, or too big for one datagram, raises :class:`~repro.common.
        errors.TransportError` here, on the caller's thread, before any
        datagram leaves.
        """
        if self._loop is None:
            raise ReproError("cluster not started")
        if kind == "write":
            check_value(value, key)
        loop, node = self._loop, self.nodes[pid]
        future: concurrent.futures.Future = concurrent.futures.Future()

        def invoke() -> None:
            if not future.set_running_or_notify_cancel():
                return
            try:
                if kind == "read":
                    handle = node.invoke_read(key)
                else:
                    handle = node.invoke_write(value, key)
            except Exception as error:  # reported to the caller, not the loop
                future.set_exception(error)
                return
            timer = loop.call_later(self.op_timeout, expire)
            handle.add_callback(functools.partial(settle, timer))

        def expire() -> None:
            future.set_exception(
                TimeoutError(f"{kind} at p{pid} did not settle within {self.op_timeout}s")
            )

        def settle(timer: asyncio.TimerHandle, handle: NodeOperation) -> None:
            timer.cancel()
            if future.done():
                return  # timed out; the operation finished after all
            if handle.aborted:
                future.set_exception(
                    ProcessCrashed(f"process {pid} crashed during {kind} {handle.op}")
                )
            else:
                future.set_result(handle.result)

        if key is None or node.has_register(key):
            loop.call_soon_threadsafe(invoke)
            return future

        def provisioned(provisioning: concurrent.futures.Future) -> None:
            error = provisioning.exception()
            if error is not None:
                future.set_exception(error)
            else:
                loop.call_soon_threadsafe(invoke)

        self._submit(self._ensure_key(key, self.op_timeout)).add_done_callback(
            provisioned
        )
        return future

    # -- keys --------------------------------------------------------------

    def keys(self) -> List[str]:
        if not self.nodes:
            return []
        return sorted(key for key in self.nodes[0].registers if key is not None)

    def ensure_key(self, key: str, timeout: float = 10.0) -> None:
        self._call(self._ensure_key(key, timeout))

    async def _ensure_key(self, key: str, timeout: float) -> None:
        # Crashed nodes get the slot dormant and boot it when they
        # recover; only live nodes are awaited for readiness.
        for node in self.nodes:
            node.provision_register(key)
        await asyncio.gather(
            *(
                node.wait_until(
                    functools.partial(node.register_ready, key),
                    f"make register {key!r} ready",
                    timeout=timeout,
                )
                for node in self.nodes
                if not node.crashed
            )
        )

    # -- fault verbs -------------------------------------------------------

    def crash(self, pid: int) -> None:
        self._call(self._crash(pid))

    async def _crash(self, pid: int) -> None:
        self.nodes[pid].crash()

    def recover(self, pid: int, wait: bool = True, timeout: float = 5.0) -> None:
        """Restart node ``pid``.

        With ``wait=False`` the recovery proceeds on the loop thread;
        a failure (node not crashed, readiness timeout) is recorded in
        :attr:`recovery_errors` instead of vanishing with the
        fire-and-forgotten future.
        """
        if wait:
            self._call(self._recover(pid, timeout))
            return

        def harvest(done_future) -> None:
            error = done_future.exception()
            if error is not None:
                self.recovery_errors.append((pid, error))

        self._submit(self._recover(pid, timeout)).add_done_callback(harvest)

    async def _recover(self, pid: int, timeout: float) -> None:
        self.nodes[pid].recover()
        await self.nodes[pid].wait_ready(timeout=timeout)

    def checkpoint(self, pid: int) -> bool:
        """Run one two-phase checkpoint at node ``pid``; whether it committed.

        ``False`` when nothing began (node down, a checkpoint already in
        progress, no new records of idle registers) or a crash abandoned
        it between the phases.  Live only: the simulator checkpoints on
        its ``checkpoint_interval`` timer.
        """
        return self._call(self._checkpoint(pid))

    async def _checkpoint(self, pid: int) -> bool:
        node = self.nodes[pid]
        committed = node.checkpoints_committed
        if not node.begin_checkpoint():
            return False
        await node.wait_until(
            lambda: not node.checkpoint_in_progress,
            "finish its checkpoint",
            timeout=self.op_timeout,
        )
        return node.checkpoints_committed > committed

    # -- clock -------------------------------------------------------------

    def wait(
        self, handle: OpHandle, timeout: float = 5.0, expect_done: bool = False
    ) -> OpHandle:
        future = handle._future
        try:
            future.result(timeout=timeout)
        except Exception:
            # Classify by the future's state, not the exception type:
            # on 3.11+ concurrent.futures.TimeoutError IS the builtin
            # TimeoutError, so an operation that settled by *failing*
            # with its op_timeout looks like this wait giving up.
            if not future.done():
                # Only this wait gave up; the operation stays in flight.
                raise ReproError(
                    f"live {handle.kind} did not settle within {timeout}s"
                ) from None
            error = future.exception()
            if error is not None and expect_done:
                raise OperationAborted(
                    f"{handle.kind} at p{handle.pid} failed: {error}"
                ) from error
        return handle

    # -- verification ------------------------------------------------------

    @property
    def history(self) -> History:
        return self.recorder.history

    def check(self, criterion: str = "atomic", method: str = "auto") -> Verdict:
        history = self.history
        keys = self.keys()
        if keys:
            history = partition_history(
                history, self.recorder.register_of, registers=set(keys)
            ).get(None, History())
        return check_one_register(
            self, history, self.recorder, criterion, method
        )

    # -- observability -----------------------------------------------------

    def stats(self) -> ClusterStats:
        nodes = self.nodes
        sent = _sent(nodes)
        return ClusterStats(
            clock=self._clock(),
            # kernel_events stays 0: real time has no event loop counter
            # comparable to the simulator's.
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
        register_node_metrics(registry, nodes)
        registry.gauge("node.recoveries", fn=lambda: _recoveries(nodes))
        registry.gauge(
            "trace.flight_recorded", fn=lambda: self._flight_recorder.total
        )

    @property
    def flight_recorder(self) -> RingTrace:
        return self._flight_recorder
