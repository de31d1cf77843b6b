"""The ``"live"`` backend: asyncio/UDP nodes behind the façade.

Adapts :class:`~repro.runtime.cluster.LiveCluster`: real datagrams on
localhost, real ``fsync`` ed files, wall-clock time.  Sessions submit
operations without blocking (:meth:`~repro.runtime.cluster.LiveCluster.
submit_op` posts the invocation to the cluster's event-loop thread and
the returned :class:`~repro.api.types.OpHandle` settles when the node
settles it), so the non-blocking half of the vocabulary works here
too; ``latency`` is wall seconds.

What the backend cannot do is declared, not approximated: it has no
``virtual_time`` capability, so ``run``/``run_until``/``now``/``defer``
raise :class:`~repro.common.errors.CapabilityError` (there is no
virtual clock to drive -- real time passes on its own), as do
``partition``/``heal`` (real sockets, no link control) and seeding
(``seed`` must stay ``None``).  Crash injection works: nodes crash and
recover through the filesystem.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from repro.api.base import Cluster, Session
from repro.api.sim import check_one_register
from repro.api.types import CRASH_INJECTION, ClusterStats, OpHandle, Verdict
from repro.common.errors import ConfigurationError, OperationAborted, ReproError
from repro.history.history import History
from repro.history.partition import partition_history


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

    def __init__(self, kind: str, key: Optional[str], pid: int, future):
        self.kind = kind
        self.key = key
        self.pid = pid
        self._future = future
        self._submitted = time.monotonic()
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
        return not self.cluster.live.nodes[self.pid].crashed

    def write(self, value: Any, key: Optional[str] = None) -> LiveHandle:
        future = self.cluster.live.submit_op(self.pid, "write", value, key)
        return self._observed(LiveHandle("write", key, self.pid, future))

    def read(self, key: Optional[str] = None) -> LiveHandle:
        future = self.cluster.live.submit_op(self.pid, "read", None, key)
        return self._observed(LiveHandle("read", key, self.pid, future))


class LiveBackend(Cluster):
    """Façade adapter over :class:`~repro.runtime.cluster.LiveCluster`."""

    backend = "live"
    capabilities = frozenset({CRASH_INJECTION})

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        seed: Optional[int] = None,
        existing: Optional[Any] = None,
        **options: Any,
    ):
        from repro.runtime.cluster import LiveCluster

        if seed is not None:
            raise ConfigurationError(
                "the live backend is not seedable (real sockets, real "
                "time); use backend='sim' or 'kv' for deterministic runs"
            )
        if existing is not None:
            self.live = existing
        else:
            self.live = LiveCluster(
                protocol=protocol,
                num_processes=3 if num_processes is None else num_processes,
                **options,
            )
        #: ``(pid, exception)`` of failed non-blocking recoveries.
        self.recovery_errors: List[tuple] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LiveBackend":
        self.live.start()
        return self

    def close(self) -> None:
        self.live.close()

    # -- identity ----------------------------------------------------------

    @property
    def protocol(self) -> str:
        return self.live.protocol_name

    @property
    def num_processes(self) -> int:
        return self.live.num_processes

    @property
    def recorder(self):
        return self.live.recorder

    def session(self, pid: Optional[int] = None) -> LiveSession:
        if pid is None:
            raise ConfigurationError(
                "the live backend needs an explicit pid per session"
            )
        if not 0 <= pid < self.live.num_processes:
            raise ConfigurationError(f"pid {pid} out of range")
        return LiveSession(self, pid)

    # -- keys --------------------------------------------------------------

    def keys(self) -> List[str]:
        return self.live.registers

    def ensure_key(self, key: str, timeout: float = 10.0) -> None:
        self.live.ensure_register(key)

    # -- fault verbs -------------------------------------------------------

    def crash(self, pid: int) -> None:
        self.live.crash_node(pid)

    def recover(self, pid: int, wait: bool = True, timeout: float = 5.0) -> None:
        """Restart node ``pid``.

        With ``wait=False`` the recovery proceeds on the loop thread;
        a failure (node not crashed, readiness timeout) is recorded in
        :attr:`recovery_errors` instead of vanishing with the
        fire-and-forgotten future.
        """
        if wait:
            self.live.recover_node(pid, timeout=timeout)
            return
        future = self.live.submit(self.live.arecover_node(pid, timeout=timeout))

        def harvest(done_future) -> None:
            error = done_future.exception()
            if error is not None:
                self.recovery_errors.append((pid, error))

        future.add_done_callback(harvest)

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        raise self._unsupported("now", "virtual-time clock control")

    def defer(self, delay: float, fn: Callable, *args: Any) -> None:
        raise self._unsupported("defer", "virtual-time clock control")

    def wait(
        self, handle: OpHandle, timeout: float = 5.0, expect_done: bool = False
    ) -> OpHandle:
        try:
            handle._future.result(timeout=timeout)
            return handle
        except Exception:
            # Classify by the future's state, not the exception type:
            # on 3.11+ concurrent.futures.TimeoutError IS the builtin
            # TimeoutError, so an operation that settled by *failing*
            # with a timeout (the cluster's op_timeout) is
            # indistinguishable from our wait giving up by type alone.
            error = (
                handle._future.exception() if handle._future.done() else None
            )
            if not handle._future.done():
                # Only this wait gave up; the operation stays in
                # flight (bounded by the cluster's op_timeout).
                raise ReproError(
                    f"live {handle.kind} did not settle within {timeout}s"
                ) from None
            if error is not None and expect_done:
                raise OperationAborted(
                    f"{handle.kind} at p{handle.pid} failed: {error}"
                ) from error
            return handle

    # -- verification ------------------------------------------------------

    @property
    def history(self) -> History:
        return self.live.recorder.history

    def check(self, criterion: str = "atomic", method: str = "auto") -> Verdict:
        history = self.history
        if self.live.registers:
            history = partition_history(
                history,
                self.live.recorder.register_of,
                registers=set(self.live.registers),
            ).get(None, History())
        return check_one_register(
            self, history, self.live.recorder, criterion, method
        )

    # -- observability -----------------------------------------------------

    def stats(self) -> ClusterStats:
        nodes = self.live.nodes
        sent = sum(node.transport.messages_sent for node in nodes)
        received = sum(node.transport.messages_received for node in nodes)
        return ClusterStats(
            clock=self.live._clock(),
            # kernel_events stays 0: real time has no event loop counter
            # comparable to the simulator's.
            messages_sent=sent,
            # UDP gives no per-datagram loss signal; sent-minus-received
            # is the best available estimate (in-flight datagrams and
            # crash-muted receivers count as dropped).
            messages_dropped=max(0, sent - received),
            stores_completed=sum(
                node.storage.stores_completed for node in nodes
            ),
            crashes=sum(node.crash_count for node in nodes),
            recoveries=_recoveries(nodes),
        )

    def _register_metrics(self, registry) -> None:
        live = self.live
        nodes = live.nodes
        registry.gauge("kernel.clock", fn=live._clock)
        registry.gauge(
            "net.messages_sent",
            fn=lambda: sum(n.transport.messages_sent for n in nodes),
        )
        registry.gauge(
            "net.messages_delivered",
            fn=lambda: sum(n.transport.messages_received for n in nodes),
        )
        registry.gauge(
            "net.messages_dropped",
            fn=lambda: max(
                0,
                sum(n.transport.messages_sent for n in nodes)
                - sum(n.transport.messages_received for n in nodes),
            ),
        )
        registry.gauge(
            "net.malformed",
            fn=lambda: sum(n.transport.malformed for n in nodes),
        )
        registry.gauge(
            "storage.stores_completed",
            fn=lambda: sum(n.storage.stores_completed for n in nodes),
        )
        registry.gauge(
            "storage.bytes_logged",
            fn=lambda: sum(n.storage.bytes_logged for n in nodes),
        )
        registry.gauge(
            "storage.footprint_bytes",
            fn=lambda: sum(n.storage.log_bytes for n in nodes),
        )
        registry.gauge(
            "storage.records",
            fn=lambda: sum(n.storage.log_records for n in nodes),
        )
        registry.gauge(
            "node.crashes", fn=lambda: sum(n.crash_count for n in nodes)
        )
        registry.gauge("node.recoveries", fn=lambda: _recoveries(nodes))
        recovery_hist = registry.histogram("node.recovery_time")
        for node in nodes:
            # As in register_sim_metrics: backfill what completed before
            # the (lazily created) registry existed, then observe live.
            for duration in node.recovery_times:
                recovery_hist.observe(duration)
            node.on_recovery_time = recovery_hist.observe
        registry.gauge(
            "trace.flight_recorded",
            fn=lambda: live.flight_recorder.total,
        )

    @property
    def flight_recorder(self):
        return self.live.flight_recorder
