"""The ``"sim"`` backend: the deterministic simulator behind the façade.

:class:`SimBackend` builds and owns the whole simulated deployment --
kernel, trace, history recorder, network and one
:class:`~repro.sim.node.SimNode` (with its stable storage) per
process -- and speaks the façade's one vocabulary over it.  The verbs
that drive a node (``node``, ``session``, ``crash``, ``recover``,
``wait``, ``stats``) are :class:`~repro.api.base.Cluster`'s, shared
with the live host; this module adds the simulator's own: ``run`` to
quiescence, the link and storage fault verbs, ``on_event`` and the
``net.*`` rows.  An operation's handle is built by the node it runs
on.  Declares
``virtual_time``, ``crash_injection``, ``trace``, ``storage_faults``
and ``link_faults``; sharding lives in the ``"kv"`` backend, which is
this class plus shard pipelines.
"""

from __future__ import annotations

import dataclasses
import random
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.api.base import DEFAULT_SYNC_TIMEOUT, Cluster, Session
from repro.api.types import (
    CRASH_INJECTION,
    LINK_FAULTS,
    STORAGE_FAULTS,
    TRACE,
    VIRTUAL_TIME,
    OpHandle,
)
from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError, ReproError
from repro.history.history import History
from repro.history.partition import partition_history
from repro.history.recorder import HistoryRecorder
from repro.obs.tracing import Trace
from repro.protocol.registry import protocol_factory
from repro.common.kernel import Kernel
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.sim.storage import SimStableStorage


class SimSession(Session):
    """A session pinned to one simulated process."""

    def write(self, value: Any, key: Optional[str] = None) -> OpHandle:
        return self._observed(self._node(key).invoke_write(value, register=key))

    def read(self, key: Optional[str] = None) -> OpHandle:
        return self._observed(self._node(key).invoke_read(register=key))

    def ready_for(self, key: Optional[str] = None) -> bool:
        # A new register takes virtual time to boot, and an invocation
        # does not wait for it: asking provisions the key, which is
        # ready once it has booted.
        self._node(key)
        return super().ready_for(key)

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
    session_class = SimSession

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        seed: Optional[int] = None,
        config: Optional[ClusterConfig] = None,
        include_broken: bool = False,
        capture_trace: bool = False,
        batch_window: float = 0.0,
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
        self.protocol = protocol
        self.num_processes = config.num_processes
        make_protocol = protocol_factory(
            protocol, config.retransmit_interval, include_broken=include_broken
        )
        # Construction order fixes the seeded RNG streams: kernel,
        # trace, recorder, network, then storage + node per pid.
        self.kernel = Kernel(seed=config.seed)
        self.trace = Trace(capture=capture_trace)
        self.flight_recorder = self.trace.ring
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
        #: kind -> its ``on_event`` hooks as ``[source_pid, remaining,
        #: fn, args]``, in installation order.
        self._event_hooks: Dict[str, List[list]] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SimBackend":
        if self._started:
            raise ReproError("cluster already started")
        self._started = True
        self._boot()
        return self

    # -- identity ----------------------------------------------------------

    @property
    def seed(self) -> Optional[int]:
        return self.config.seed

    # -- fault verbs -------------------------------------------------------

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
        hooks = self._event_hooks.get(kind)
        if hooks is None:
            # Subscribed on first use, to this kind only: every other
            # kind keeps the trace's allocation-free path.
            hooks = self._event_hooks[kind] = []
            self.trace.subscribe(partial(_dispatch_event, hooks), kinds=[kind])
        hooks.append([source_pid, count, fn, args])

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

    def _register_metrics(self, registry) -> None:
        """Add the simulated network's rows to the shared ones."""
        super()._register_metrics(registry)
        network = self.network
        registry.gauge("net.messages_sent", fn=lambda: network.messages_sent)
        registry.gauge(
            "net.messages_delivered", fn=lambda: network.messages_delivered
        )
        registry.gauge("net.messages_dropped", fn=lambda: network.messages_dropped)
        registry.gauge("net.bytes_sent", fn=lambda: network.bytes_sent)

    def transcript(self) -> Optional[List[str]]:
        if not self.trace.capturing:
            return None
        return [str(event) for event in self.trace.events]


def _dispatch_event(hooks: List[list], event) -> None:
    """Count ``event`` against each of its kind's ``on_event`` hooks."""
    for hook in hooks:
        source_pid, remaining, fn, args = hook
        if remaining == 0:
            continue
        if source_pid is not None and event.pid != source_pid:
            continue
        hook[1] = remaining - 1
        if remaining == 1:
            fn(*args)
