"""The ``"sim"`` backend: the deterministic simulator behind the façade.

:class:`SimBackend` builds and owns the whole simulated deployment --
kernel, trace, history recorder, network and one
:class:`~repro.sim.node.SimNode` (with its stable storage) per
process -- and speaks the façade's one vocabulary over it.  An
operation's handle is the node's own
:class:`~repro.protocol.host.NodeOperation`.  Declares
``virtual_time``, ``crash_injection``, ``trace``, ``storage_faults``
and ``link_faults``; sharding lives in the ``"kv"`` backend, which is
this class plus shard pipelines.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.api.base import (
    DEFAULT_SYNC_TIMEOUT,
    Cluster,
    Session,
    register_node_metrics,
)
from repro.api.types import (
    CRASH_INJECTION,
    LINK_FAULTS,
    STORAGE_FAULTS,
    TRACE,
    VIRTUAL_TIME,
    ClusterStats,
    OpHandle,
)
from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError, OperationAborted, ReproError
from repro.history.history import History
from repro.history.partition import partition_history
from repro.history.recorder import HistoryRecorder
from repro.obs.tracing import Trace
from repro.protocol.host import NodeOperation
from repro.protocol.registry import protocol_factory
from repro.common.kernel import Kernel
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.sim.storage import SimStableStorage


class SimSession(Session):
    """A session pinned to one simulated process."""

    @property
    def ready(self) -> bool:
        node = self.cluster.nodes[self.pid]
        if node.crashed or not node.ready:
            return False
        protocol = node.protocol
        return not (protocol.busy if hasattr(protocol, "busy") else False)

    def write(self, value: Any, key: Optional[str] = None) -> NodeOperation:
        return self._observed(self._node(key).invoke_write(value, register=key))

    def read(self, key: Optional[str] = None) -> NodeOperation:
        return self._observed(self._node(key).invoke_read(register=key))

    def _node(self, key: Optional[str]):
        """This session's node, with register ``key`` provisioned."""
        if key is not None:
            self.cluster._provision(key)
        return self.cluster.nodes[self.pid]

    # A named register must finish initializing before it accepts an
    # operation: the synchronous variants wait for it first.

    def write_sync(self, value, key=None, timeout=DEFAULT_SYNC_TIMEOUT):
        if key is not None:
            self.cluster.ensure_key(key, timeout=timeout)
        return super().write_sync(value, key=key, timeout=timeout)

    def read_sync(self, key=None, timeout=DEFAULT_SYNC_TIMEOUT):
        if key is not None:
            self.cluster.ensure_key(key, timeout=timeout)
        return super().read_sync(key=key, timeout=timeout)


class SimBackend(Cluster):
    """A simulated cluster emulating one shared register (plus named ones).

    Everything runs on virtual time: the ``*_sync`` session calls,
    :meth:`wait`, :meth:`run` and :meth:`run_until` advance the kernel.
    ``kernel``, ``trace``, ``recorder``, ``network`` and ``nodes`` are
    plain attributes for tools that need the simulator itself.
    """

    backend = "sim"
    capabilities = frozenset(
        {VIRTUAL_TIME, CRASH_INJECTION, TRACE, STORAGE_FAULTS, LINK_FAULTS}
    )

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        seed: Optional[int] = None,
        config: Optional[ClusterConfig] = None,
        include_broken: bool = False,
        capture_trace: bool = False,
        batch_window: float = 0.0,
        flight_recorder: bool = True,
        checkpoint_interval: Optional[float] = None,
        recovery_scan: bool = False,
    ):
        config = ClusterConfig() if config is None else config
        overrides: Dict[str, Any] = {}
        if num_processes is not None:
            overrides["num_processes"] = num_processes
        if seed is not None:
            overrides["seed"] = seed
        self.config = config = dataclasses.replace(config, **overrides)
        self._protocol = protocol
        make_protocol = protocol_factory(
            protocol, config.retransmit_interval, include_broken=include_broken
        )
        # Construction order fixes the seeded RNG streams: kernel,
        # trace, recorder, network, then storage + node per pid.
        self.kernel = Kernel(seed=config.seed)
        self.trace = Trace(capture=capture_trace, flight_recorder=flight_recorder)
        self.recorder = HistoryRecorder(clock=lambda: self.kernel.now)
        self.network = SimNetwork(
            self.kernel, config.num_processes, config.network, self.trace
        )
        self.nodes: List[SimNode] = []
        for pid in range(config.num_processes):
            storage = SimStableStorage(self.kernel, pid, config.storage, self.trace)
            self.nodes.append(
                SimNode(
                    pid=pid,
                    kernel=self.kernel,
                    network=self.network,
                    storage=storage,
                    protocol_factory=make_protocol,
                    recorder=self.recorder,
                    trace=self.trace,
                    num_processes=config.num_processes,
                    batch_window=batch_window,
                    checkpoint_interval=checkpoint_interval,
                    recovery_scan=recovery_scan,
                )
            )
        self._registers: Set[str] = set()
        self._started = False
        #: The open ``lose`` window's filter removal, if any.
        self._end_loss: Optional[Callable[[], None]] = None
        #: ``on_event`` hooks as ``[kind, source_pid, remaining, fn,
        #: args]``; ``None`` until the first one subscribes.
        self._event_hooks: Optional[List[list]] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SimBackend":
        if self._started:
            raise ReproError("cluster already started")
        self._started = True
        self._boot()
        return self

    # -- identity ----------------------------------------------------------

    @property
    def protocol(self) -> str:
        return self._protocol

    @property
    def num_processes(self) -> int:
        return self.config.num_processes

    @property
    def seed(self) -> Optional[int]:
        return self.config.seed

    def node(self, pid: int) -> SimNode:
        """The simulated node of process ``pid`` (prefer :meth:`session`)."""
        if not 0 <= pid < len(self.nodes):
            raise ConfigurationError(f"pid {pid} out of range")
        return self.nodes[pid]

    def session(self, pid: Optional[int] = None) -> SimSession:
        if pid is None:
            raise ConfigurationError(
                "the sim backend needs an explicit pid per session"
            )
        self.node(pid)  # validates the range
        return SimSession(self, pid)

    # -- fault verbs -------------------------------------------------------

    def crash(self, pid: int) -> None:
        self.node(pid).crash()

    def recover(self, pid: int, wait: bool = True, timeout: float = 5.0) -> None:
        self._recover_node(self.node(pid), wait, timeout)

    def partition(self, group_a: Sequence[int], group_b: Sequence[int]) -> None:
        self._check_pids(*group_a, *group_b)
        self.network.partition(set(group_a), set(group_b))

    def heal(
        self,
        group_a: Optional[Sequence[int]] = None,
        group_b: Optional[Sequence[int]] = None,
    ) -> None:
        network = self.network
        if group_a is None and group_b is None:
            network.heal_all()
            return
        if group_a is None or group_b is None:
            raise ConfigurationError("heal takes both groups or neither")
        self._check_pids(*group_a, *group_b)
        for a in group_a:
            for b in group_b:
                network.unblock(a, b)
                network.unblock(b, a)

    def lose(self, probability: float, seed: int = 0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")
        if self._end_loss is not None:
            self._end_loss()
            self._end_loss = None
        if probability == 0.0:
            return
        rng = random.Random(seed)

        def should_drop(src, dst, message) -> bool:
            return src != dst and rng.random() < probability

        self._end_loss = self.network.add_filter(should_drop)

    def slow_link(
        self, links: Sequence[Sequence[int]], extra_delay: float
    ) -> None:
        self._check_pids(*(pid for link in links for pid in link))
        network = self.network
        for src, dst in links:
            if extra_delay >= 0.0:
                network.slow_link(src, dst, extra_delay)
            else:
                network.unslow_link(src, dst, -extra_delay)

    def _check_pids(self, *pids: int) -> None:
        for pid in pids:
            self.node(pid)  # validates the range

    def corrupt_record(self, pid: int, key: str) -> bool:
        return self.node(pid).storage.corrupt(key)

    def lose_stores(self, pid: int, count: int = 1) -> None:
        self.node(pid).storage.lose_next_stores(count)

    def slow_storage(self, pid: int, extra_latency: float) -> None:
        storage = self.node(pid).storage
        if extra_latency <= 0.0:
            storage.clear_slow()
        else:
            storage.set_slow(extra_latency)

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    def run(self, duration: Optional[float] = None, max_events: int = 1_000_000) -> None:
        if duration is None:
            self.kernel.run(max_events=max_events)
        else:
            self.kernel.run(until=self.kernel.now + duration, max_events=max_events)

    def on_event(
        self,
        kind: str,
        source_pid: Optional[int],
        count: int,
        fn: Callable,
        *args: Any,
    ) -> None:
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        if source_pid is not None:
            self._check_pids(source_pid)
        if self._event_hooks is None:
            # Subscribed on first use, to every kind: a cluster that
            # never installs a hook keeps the trace's tick-only
            # emission fast path.
            self._event_hooks = []
            self.trace.subscribe(self._dispatch_event)
        self._event_hooks.append([kind, source_pid, count, fn, args])

    def _dispatch_event(self, event) -> None:
        for hook in self._event_hooks:
            kind, source_pid, remaining, fn, args = hook
            if remaining == 0 or event.kind != kind:
                continue
            if source_pid is not None and event.pid != source_pid:
                continue
            hook[2] = remaining - 1
            if remaining == 1:
                fn(*args)

    def wait(
        self,
        handle: OpHandle,
        timeout: float = DEFAULT_SYNC_TIMEOUT,
        expect_done: bool = False,
    ) -> OpHandle:
        if not self.kernel.run_until(lambda: handle.settled, timeout=timeout):
            raise ReproError(f"{handle!r} did not settle within {timeout}s")
        if expect_done and handle.aborted:
            raise OperationAborted(f"{handle!r} aborted by a crash")
        return handle

    # -- verification ------------------------------------------------------

    def per_register_histories(self) -> Dict[Optional[str], History]:
        """Project the recorded history onto each register instance.

        The ``None`` entry is the anonymous register's history (the one
        :meth:`check` judges); named entries carry one key's operations
        each, with every crash/recovery event replicated into every
        projection.
        """
        return partition_history(
            self.history, self.recorder.register_of, registers=self._registers
        )

    # -- observability -----------------------------------------------------

    def stats(self) -> ClusterStats:
        return ClusterStats(
            clock=self.kernel.now,
            kernel_events=self.kernel.events_processed,
            messages_sent=self.network.messages_sent,
            messages_dropped=self.network.messages_dropped,
            stores_completed=sum(
                node.storage.stores_completed for node in self.nodes
            ),
            crashes=sum(node.crash_count for node in self.nodes),
            recoveries=self.trace.count("recover"),
        )

    def _register_metrics(self, registry) -> None:
        """Install the uniform gauge catalog over the simulator.

        Every gauge is pull-based: it reads a counter the engine already
        maintains, so registering them adds nothing to the hot path.
        The KV backend layers its shard-level metrics on top of this
        set; the live backend shares the node rows
        (:func:`register_node_metrics`) and mirrors the rest from its
        transports (see the metrics catalog in
        ``docs/observability.md``).
        """
        kernel, network, trace, nodes = (
            self.kernel, self.network, self.trace, self.nodes
        )
        registry.gauge("kernel.clock", fn=lambda: kernel.now)
        registry.gauge("kernel.events", fn=lambda: kernel.events_processed)
        registry.gauge("net.messages_sent", fn=lambda: network.messages_sent)
        registry.gauge(
            "net.messages_delivered", fn=lambda: network.messages_delivered
        )
        registry.gauge("net.messages_dropped", fn=lambda: network.messages_dropped)
        registry.gauge("net.bytes_sent", fn=lambda: network.bytes_sent)
        register_node_metrics(registry, nodes)
        registry.gauge("node.recoveries", fn=lambda: trace.count("recover"))
        registry.gauge(
            "trace.flight_recorded",
            fn=lambda: trace.ring.total if trace.ring is not None else 0,
        )

    @property
    def flight_recorder(self):
        return self.trace.ring

    def transcript(self) -> Optional[List[str]]:
        if not self.trace.capturing:
            return None
        return [str(event) for event in self.trace.events]
