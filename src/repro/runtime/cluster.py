"""A live cluster of UDP nodes on localhost.

This is the *low-level* live front-end -- the unified client API in
:mod:`repro.api` (``open_cluster(backend="live")``) wraps it behind
the backend-agnostic ``Cluster``/``Session`` vocabulary.

:class:`LiveCluster` spins up N :class:`~repro.runtime.node.RuntimeNode`
instances in one asyncio event loop, wires their transports together,
and exposes a blocking API over a background loop thread::

    with LiveCluster(protocol="persistent", num_processes=3) as cluster:
        cluster.write(0, "hello")
        assert cluster.read(1) == "hello"
        cluster.crash_node(0)
        cluster.recover_node(0)
        assert cluster.read(0) == "hello"

Every node gets a private storage directory under ``storage_root``
(a temporary directory by default), so crash/recovery really does go
through the filesystem.

Like the simulated cluster, a live cluster can host named register
instances over the same UDP nodes -- one per key -- addressed with the
``key`` argument of :meth:`LiveCluster.write`/:meth:`LiveCluster.read`
(messages travel register-namespaced, storage files key-prefixed)::

    cluster.write(0, 1000, key="limits.rps")
    assert cluster.read(2, key="limits.rps") == 1000

Two ways onto the loop thread.  An operation goes through
:meth:`LiveCluster.submit_op`: one posted callback invokes it on the
node, one ``call_later`` bounds it by ``op_timeout``, and the node's
settle callback completes the returned future -- no coroutine, no task.
The control verbs (crash, recover, checkpoint, provisioning) are
coroutines and go through :meth:`LiveCluster.submit`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import tempfile
import threading
from pathlib import Path
from typing import Any, List, Optional

from repro.common.errors import ConfigurationError, ProcessCrashed, ReproError
from repro.common.ids import ProcessId
from repro.history.recorder import HistoryRecorder
from repro.protocol.host import NodeOperation
from repro.protocol.base import RegisterProtocol, StableView
from repro.protocol.registry import get_protocol_class
from repro.protocol.two_round import TwoRoundRegisterProtocol
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import Peer, check_value

#: Retransmission period for live clusters, seconds.  Generous: real
#: loopback rarely drops, so retries are a safety net, not the norm.
LIVE_RETRANSMIT_INTERVAL = 0.05


class LiveCluster:
    """N protocol nodes over real UDP sockets on one event loop."""

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: int = 3,
        storage_root: Optional[Path] = None,
        op_timeout: float = 10.0,
    ):
        if num_processes < 1:
            raise ConfigurationError("num_processes must be >= 1")
        self.protocol_name = protocol
        self.num_processes = num_processes
        self.op_timeout = op_timeout
        self._protocol_class = get_protocol_class(protocol)
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if storage_root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-live-")
            storage_root = Path(self._tmpdir.name)
        self.storage_root = Path(storage_root)
        self.recorder = HistoryRecorder(clock=self._clock)
        # One shared flight recorder over every node's transport,
        # using the sim trace's kind vocabulary so exports decode
        # uniformly across backends.
        from repro.obs.ring import RingTrace
        from repro.obs.tracing import ALL_KINDS

        self.flight_recorder = RingTrace(kinds=ALL_KINDS)
        self.nodes: List[RuntimeNode] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False

    def _clock(self) -> float:
        if self._loop is not None:
            return self._loop.time()
        return 0.0

    def _make_protocol(
        self, pid: ProcessId, num_processes: int, stable: StableView
    ) -> RegisterProtocol:
        cls = self._protocol_class
        if issubclass(cls, TwoRoundRegisterProtocol):
            return cls(
                pid,
                num_processes,
                stable,
                retransmit_interval=LIVE_RETRANSMIT_INTERVAL,
            )
        return cls(pid, num_processes, stable)

    # -- async API ---------------------------------------------------------

    async def astart(self) -> None:
        """Create, bind and boot all nodes; wait until ready."""
        if self._started:
            raise ReproError("cluster already started")
        self._started = True
        clock = asyncio.get_running_loop().time
        for pid in range(self.num_processes):
            node = RuntimeNode(
                pid=pid,
                num_processes=self.num_processes,
                protocol_factory=self._make_protocol,
                storage_root=self.storage_root,
                recorder=self.recorder,
            )
            self.nodes.append(node)  # before it binds: close() covers a failed start
            await node.start()
            node.transport.attach_flight_recorder(self.flight_recorder, clock)
        peers = [
            Peer(pid=node.pid, host=node.transport.host, port=node.transport.port)
            for node in self.nodes
        ]
        for node in self.nodes:
            node.transport.set_peers(peers)
        for node in self.nodes:
            node.boot()
        await asyncio.gather(*(node.wait_ready() for node in self.nodes))

    async def aensure_register(self, key: str) -> None:
        """Provision register instance ``key`` on every node.

        Crashed nodes get the slot dormant and boot it when they
        recover; only live nodes are awaited for readiness.
        """
        for node in self.nodes:
            node.provision_register(key)
        await asyncio.gather(
            *(
                node.wait_until(
                    functools.partial(node.register_ready, key),
                    f"make register {key!r} ready",
                    timeout=self.op_timeout,
                )
                for node in self.nodes
                if not node.crashed
            )
        )

    async def acrash_node(self, pid: ProcessId) -> None:
        self.nodes[pid].crash()

    async def arecover_node(self, pid: ProcessId, timeout: float = 5.0) -> None:
        self.nodes[pid].recover()
        await self.nodes[pid].wait_ready(timeout=timeout)

    async def acheckpoint(self, pid: ProcessId) -> bool:
        """Run one two-phase checkpoint at node ``pid``; whether it committed.

        ``False`` when nothing began (node down, a checkpoint already
        in progress, no new records of idle registers) or a crash
        abandoned it between the phases.
        """
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

    async def aclose(self) -> None:
        for node in self.nodes:
            node.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    # -- blocking wrapper (background event loop thread) ----------------------

    def start(self) -> "LiveCluster":
        """Start the event loop on a background thread and boot."""
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            ready.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, daemon=True, name="repro-live")
        self._thread.start()
        ready.wait()
        try:
            self._call(self.astart())
        except BaseException:
            self.close()  # no thread, socket or temp dir outlives a failed start
            raise
        return self

    def _call(self, coroutine):
        return self._wait(self.submit(coroutine))

    def _wait(self, future: concurrent.futures.Future) -> Any:
        return future.result(timeout=max(self.op_timeout * 2, 30.0))

    def submit(self, coroutine) -> concurrent.futures.Future:
        """Schedule ``coroutine`` on the cluster loop without blocking.

        Returns the :class:`concurrent.futures.Future` of its result.
        For the control verbs; operations go through :meth:`submit_op`.
        """
        if self._loop is None:
            raise ReproError("cluster not started")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop)

    def submit_op(
        self, pid: ProcessId, kind: str, value: Any = None, key: Optional[str] = None
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

        self.submit(self.aensure_register(key)).add_done_callback(provisioned)
        return future

    def write(self, pid: ProcessId, value: Any, key: Optional[str] = None) -> None:
        """Blocking write at node ``pid`` (``key`` names a register instance)."""
        self._wait(self.submit_op(pid, "write", value, key))

    def read(self, pid: ProcessId, key: Optional[str] = None) -> Any:
        """Blocking read at node ``pid`` (``key`` names a register instance)."""
        return self._wait(self.submit_op(pid, "read", None, key))

    def ensure_register(self, key: str) -> None:
        """Blocking provisioning of register instance ``key``."""
        self._call(self.aensure_register(key))

    @property
    def registers(self) -> List[str]:
        """Named register instances provisioned so far, sorted."""
        if not self.nodes:
            return []
        return sorted(
            key for key in self.nodes[0].registers if key is not None
        )

    def crash_node(self, pid: ProcessId) -> None:
        """Emulate a crash of node ``pid``."""
        self._call(self.acrash_node(pid))

    def recover_node(self, pid: ProcessId, timeout: float = 5.0) -> None:
        """Restart node ``pid`` and wait for its recovery to finish."""
        self._call(self.arecover_node(pid, timeout=timeout))

    def checkpoint(self, pid: ProcessId) -> bool:
        """Blocking :meth:`acheckpoint`: checkpoint node ``pid`` now."""
        return self._call(self.acheckpoint(pid))

    def close(self) -> None:
        """Tear the cluster down and stop the event loop thread."""
        if self._loop is None:
            return
        self._call(self.aclose())
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "LiveCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
