"""The ``"sim"`` backend: the deterministic simulator behind the façade.

A thin adapter over :class:`~repro.cluster.SimCluster` -- no extra
kernel events, no extra randomness, so a seeded run behaves
byte-identically whether it is driven through the façade or the
low-level API.  Declares ``virtual_time``, ``crash_injection``,
``trace``, ``storage_faults`` and ``link_faults``; sharding lives in
the ``"kv"`` backend.

Verification-relevant shared logic (projecting the anonymous register,
resolving ``method="auto"``, mapping the checker outcomes onto the one
:class:`~repro.api.types.Verdict` shape) is module-level so the KV and
live adapters reuse it.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Sequence

from repro.api.base import Cluster, Session
from repro.api.types import (
    CRASH_INJECTION,
    LINK_FAULTS,
    STORAGE_FAULTS,
    TRACE,
    VIRTUAL_TIME,
    ClusterStats,
    OpHandle,
    Verdict,
)
from repro.common.errors import ConfigurationError, OperationAborted
from repro.history.checker import auto_method, check_history
from repro.history.history import History
from repro.history.recorder import HistoryRecorder
from repro.history.register_checker import check_tagged_history
from repro.history.regular_checker import check_regularity, check_safety
from repro.protocol.host import NodeOperation


class SimHandle(OpHandle):
    """Façade handle around a :class:`~repro.protocol.host.NodeOperation`."""

    __slots__ = ("raw", "kind", "key", "pid")

    def __init__(self, raw: NodeOperation):
        self.raw = raw
        self.kind = raw.kind
        self.key = raw.register
        self.pid = raw.pid

    @property
    def settled(self) -> bool:
        return self.raw.settled

    @property
    def done(self) -> bool:
        return self.raw.done

    @property
    def aborted(self) -> bool:
        return self.raw.aborted

    @property
    def result(self) -> Any:
        return self.raw.result

    @property
    def latency(self) -> Optional[float]:
        return self.raw.latency

    @property
    def causal_logs(self) -> Optional[int]:
        """Causal stable-storage logs the operation cost (sim only)."""
        return self.raw.causal_logs

    def add_callback(self, callback: Callable[[OpHandle], None]) -> None:
        self.raw.add_callback(lambda _raw: callback(self))


class SimSession(Session):
    """A session pinned to one simulated process."""

    @property
    def ready(self) -> bool:
        node = self.cluster.sim.node(self.pid)
        if node.crashed or not node.ready:
            return False
        protocol = node.protocol
        return not (protocol.busy if hasattr(protocol, "busy") else False)

    def write(self, value: Any, key: Optional[str] = None) -> SimHandle:
        return self._observed(
            SimHandle(self.cluster.sim.write(self.pid, value, key=key))
        )

    def read(self, key: Optional[str] = None) -> SimHandle:
        return self._observed(
            SimHandle(self.cluster.sim.read(self.pid, key=key))
        )

    def write_sync(self, value, key=None, timeout=5.0):
        # The raw op is already settled here; _observed fires the
        # latency callback immediately.
        return self._observed(SimHandle(
            self.cluster.sim.write_sync(self.pid, value, key=key, timeout=timeout)
        ))

    def read_sync(self, key=None, timeout=5.0):
        # Mirrors SimCluster.read_sync (register readiness barrier
        # included) but keeps the handle so the latency is observed.
        sim = self.cluster.sim
        if key is not None:
            sim.ensure_register(key)
            sim.wait_register(key, timeout=timeout)
        handle = self._observed(SimHandle(sim.read(self.pid, key=key)))
        sim.wait(handle.raw, timeout=timeout)
        if handle.aborted:
            raise OperationAborted(
                f"read at p{self.pid} aborted by a crash"
            )
        return handle.result


class SimBackend(Cluster):
    """Façade adapter over :class:`~repro.cluster.SimCluster`."""

    backend = "sim"
    capabilities = frozenset(
        {VIRTUAL_TIME, CRASH_INJECTION, TRACE, STORAGE_FAULTS, LINK_FAULTS}
    )

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        seed: Optional[int] = None,
        existing: Optional[Any] = None,
        **options: Any,
    ):
        from repro.cluster import SimCluster

        if existing is not None:
            self.sim = existing
        else:
            self.sim = SimCluster(
                protocol=protocol,
                num_processes=num_processes,
                seed=seed,
                **options,
            )
        #: The open ``lose`` window's filter removal, if any.
        self._end_loss: Optional[Callable[[], None]] = None
        #: ``on_event`` hooks as ``[kind, source_pid, remaining, fn,
        #: args]``; ``None`` until the first one subscribes.
        self._event_hooks: Optional[List[list]] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SimBackend":
        self.sim.start()
        return self

    # -- identity ----------------------------------------------------------

    @property
    def protocol(self) -> str:
        return self.sim.protocol_name

    @property
    def num_processes(self) -> int:
        return self.sim.config.num_processes

    @property
    def seed(self) -> Optional[int]:
        return self.sim.config.seed

    @property
    def config(self):
        """The low-level :class:`~repro.common.config.ClusterConfig`."""
        return self.sim.config

    @property
    def kernel(self):
        """The simulation kernel (virtual-time backends only)."""
        return self.sim.kernel

    @property
    def recorder(self) -> HistoryRecorder:
        return self.sim.recorder

    def node(self, pid: int):
        """The low-level simulated node (prefer :meth:`session`)."""
        return self.sim.node(pid)

    def session(self, pid: Optional[int] = None) -> SimSession:
        if pid is None:
            raise ConfigurationError(
                "the sim backend needs an explicit pid per session"
            )
        self.sim.node(pid)  # validates the range
        return SimSession(self, pid)

    # -- keys --------------------------------------------------------------

    def keys(self) -> List[str]:
        return self.sim.registers

    def ensure_key(self, key: str, timeout: float = 10.0) -> None:
        self.sim.ensure_register(key)
        self.sim.wait_register(key, timeout=timeout)

    def preload(self, keys: Sequence[str], timeout: float = 10.0) -> None:
        for key in keys:
            self.sim.ensure_register(key)
        for key in keys:
            self.sim.wait_register(key, timeout=timeout)

    # -- fault verbs -------------------------------------------------------

    def crash(self, pid: int) -> None:
        self.sim.crash(pid)

    def recover(self, pid: int, wait: bool = True, timeout: float = 5.0) -> None:
        self.sim.recover(pid, wait=wait, timeout=timeout)

    def partition(self, group_a: Sequence[int], group_b: Sequence[int]) -> None:
        self._check_pids(*group_a, *group_b)
        self.sim.network.partition(set(group_a), set(group_b))

    def heal(
        self,
        group_a: Optional[Sequence[int]] = None,
        group_b: Optional[Sequence[int]] = None,
    ) -> None:
        network = self.sim.network
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

        self._end_loss = self.sim.network.add_filter(should_drop)

    def slow_link(
        self, links: Sequence[Sequence[int]], extra_delay: float
    ) -> None:
        self._check_pids(*(pid for link in links for pid in link))
        network = self.sim.network
        for src, dst in links:
            if extra_delay >= 0.0:
                network.slow_link(src, dst, extra_delay)
            else:
                network.unslow_link(src, dst, -extra_delay)

    def _check_pids(self, *pids: int) -> None:
        for pid in pids:
            self.sim.node(pid)  # validates the range

    def corrupt_record(self, pid: int, key: str) -> bool:
        return self.sim.node(pid).storage.corrupt(key)

    def lose_stores(self, pid: int, count: int = 1) -> None:
        self.sim.node(pid).storage.lose_next_stores(count)

    def slow_storage(self, pid: int, extra_latency: float) -> None:
        storage = self.sim.node(pid).storage
        if extra_latency <= 0.0:
            storage.clear_slow()
        else:
            storage.set_slow(extra_latency)

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, duration: Optional[float] = None, max_events: int = 1_000_000) -> None:
        self.sim.run(duration, max_events=max_events)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        poll_every: int = 1,
        max_events: int = 1_000_000,
    ) -> bool:
        return self.sim.run_until(
            predicate, timeout=timeout, poll_every=poll_every,
            max_events=max_events,
        )

    def defer(self, delay: float, fn: Callable, *args: Any) -> None:
        self.sim.kernel.schedule(delay, fn, *args)

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
            self.sim.trace.subscribe(self._dispatch_event)
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
        self, handle: OpHandle, timeout: float = 5.0, expect_done: bool = False
    ) -> OpHandle:
        self.sim.wait(handle.raw, timeout=timeout)
        if expect_done and handle.aborted:
            raise OperationAborted(
                f"{handle.kind} at p{handle.pid} aborted by a crash"
            )
        return handle

    # -- verification ------------------------------------------------------

    @property
    def history(self) -> History:
        return self.sim.history

    def check(self, criterion: str = "atomic", method: str = "auto") -> Verdict:
        history = self.sim.history
        if self.sim.registers:
            history = self.sim.per_register_histories().get(None, History())
        return check_one_register(
            self, history, self.sim.recorder, criterion, method
        )

    # -- observability -----------------------------------------------------

    def stats(self) -> ClusterStats:
        return sim_stats(self.sim)

    def _register_metrics(self, registry) -> None:
        register_sim_metrics(registry, self.sim)

    @property
    def flight_recorder(self):
        return self.sim.flight_recorder

    def transcript(self) -> Optional[List[str]]:
        return sim_transcript(self.sim)


# -- shared verification/observability helpers -------------------------------


def check_one_register(
    cluster: Cluster,
    history: History,
    recorder: HistoryRecorder,
    criterion: str,
    method: str,
    initial_value: Any = None,
) -> Verdict:
    """One register's history -> the merged :class:`Verdict`.

    Shared by the sim and live adapters (and per key by the KV one):
    resolves ``"atomic"`` against the cluster's protocol, picks the
    checker for ``method="auto"`` (exhaustive black-box search under
    its cap, the near-linear white-box tag checker beyond it) and maps
    whichever verdict type the checker produced onto :class:`Verdict`.
    """
    resolved = cluster._resolve_criterion(criterion)
    method = cluster._validate_method(method)
    if method == "per-key":
        raise ConfigurationError(
            "method 'per-key' is the KV backend's checker; single-register "
            "backends take 'auto', 'blackbox' or 'whitebox'"
        )
    if resolved in ("regular", "safe"):
        checker = check_regularity if resolved == "regular" else check_safety
        verdict = checker(history, initial_value=initial_value)
        return Verdict(
            ok=verdict.ok,
            criterion=criterion,
            consistency=verdict.criterion,
            method="black-box",
            operations=verdict.operations,
            reason="; ".join(verdict.violations),
        )
    if method == "auto":
        method = auto_method(len(history.operations()))
    if method == "blackbox":
        verdict = check_history(
            history, criterion=resolved, initial_value=initial_value
        )
        return Verdict(
            ok=verdict.ok,
            criterion=criterion,
            consistency=resolved,
            method="black-box",
            operations=verdict.operations,
            reason=verdict.reason,
            linearization=verdict.linearization,
            dropped=verdict.dropped,
        )
    result = check_tagged_history(
        history, recorder, criterion=resolved, initial_value=initial_value
    )
    return Verdict(
        ok=result.ok,
        criterion=criterion,
        consistency=resolved,
        method="white-box",
        operations=result.operations,
        reason="; ".join(result.violations),
    )


def sim_stats(sim) -> ClusterStats:
    """Run-wide counters of a :class:`~repro.cluster.SimCluster`."""
    return ClusterStats(
        clock=sim.kernel.now,
        kernel_events=sim.kernel.events_processed,
        messages_sent=sim.network.messages_sent,
        messages_dropped=sim.network.messages_dropped,
        stores_completed=sum(
            node.storage.stores_completed for node in sim.nodes
        ),
        crashes=sum(node.crash_count for node in sim.nodes),
        recoveries=sim.trace.count("recover"),
    )


def register_sim_metrics(registry, sim) -> None:
    """Install the uniform gauge catalog over a simulated cluster.

    Every gauge is pull-based: it reads a counter the engine already
    maintains, so registering them adds nothing to the hot path.  The
    KV adapter layers its shard-level metrics on top of this set; the
    live adapter shares the node rows (:func:`register_node_metrics`)
    and mirrors the rest from its transports (see the metrics catalog in
    ``docs/observability.md``).
    """
    kernel, network, trace = sim.kernel, sim.network, sim.trace
    nodes = sim.nodes
    registry.gauge("kernel.clock", fn=lambda: kernel.now)
    registry.gauge("kernel.events", fn=lambda: kernel.events_processed)
    registry.gauge("net.messages_sent", fn=lambda: network.messages_sent)
    registry.gauge(
        "net.messages_delivered", fn=lambda: network.messages_delivered
    )
    registry.gauge("net.messages_dropped", fn=lambda: network.messages_dropped)
    registry.gauge("net.bytes_sent", fn=lambda: network.bytes_sent)
    register_node_metrics(registry, nodes)
    registry.gauge(
        "storage.stores_lost_to_crash",
        fn=lambda: sum(n.storage.stores_lost_to_crash for n in nodes),
    )
    registry.gauge("node.recoveries", fn=lambda: trace.count("recover"))
    registry.gauge(
        "trace.flight_recorded",
        fn=lambda: trace.ring.total if trace.ring is not None else 0,
    )


def register_node_metrics(registry, nodes) -> None:
    """The rows both hosts of :class:`~repro.protocol.host.NodeCore` fill alike.

    Storage totals and crash counts summed over ``nodes``, and the
    ``node.recovery_time`` histogram: recoveries that completed before
    the registry existed (it is created lazily) are backfilled, later
    ones observed as they finish.
    """
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
    recovery_hist = registry.histogram("node.recovery_time")
    for node in nodes:
        for duration in node.recovery_times:
            recovery_hist.observe(duration)
        node.on_recovery_time = recovery_hist.observe


def sim_transcript(sim) -> Optional[List[str]]:
    """Captured trace lines of a simulated run (``None`` off-capture)."""
    if not sim.trace.capturing:
        return None
    return [str(event) for event in sim.trace.events]
