"""The façade contract: ``Cluster`` and ``Session``, plus ``open_cluster``.

One front door for every backend.  A :class:`Cluster` is a context
manager over a running deployment -- the deterministic simulator
(``backend="sim"``), the sharded KV store on the simulator
(``backend="kv"``) or the UDP runtime on a caller-driven selector loop
(``backend="live"``) --
and exposes one vocabulary everywhere::

    from repro.api import open_cluster

    with open_cluster(backend="sim", protocol="persistent") as cluster:
        s0, s1 = cluster.session(0), cluster.session(1)
        s0.write_sync("hello")
        assert s1.read_sync() == "hello"
        cluster.crash(0)
        cluster.recover(0)
        assert cluster.check().ok

The same program runs unmodified against any backend; what differs is
declared, not special-cased: each backend carries a ``capabilities``
frozenset (:mod:`repro.api.types`), and anything outside it --
partitions over real sockets, say -- raises
:class:`~repro.common.errors.CapabilityError` with the reason.

On every backend the caller drives the clock: the blocking verbs
(``wait``, ``run``, ``run_until``, ``recover``, ``ensure_key`` ...)
advance it, the simulator's kernel in virtual time or the live event
loop in wall time, and nothing happens between them.  So provisioning
a key, recovering a process and booting the cluster are one piece of
code each, here: invoke on the nodes, then run until a predicate holds.

Each backend owns its whole deployment: :class:`~repro.api.sim.SimBackend`
builds the simulator (kernel, network, nodes), the KV backend is that
plus shard pipelines, and the live backend owns the event loop and
the nodes.  There is no lower cluster layer to reach past the façade.
Both hosts' nodes are :class:`~repro.protocol.host.NodeCore`, so every
verb that drives one is written once, here: ``node(pid)`` (the one pid
check), ``session``, ``crash``, ``recover``, ``wait``, ``stats`` and the
metric rows both hosts fill alike.  A backend adds only what differs:
its session class, its clock's ``run``, its ``net.*`` rows.
"""

from __future__ import annotations

import importlib
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.api.types import (
    CHECK_CRITERIA,
    CHECK_METHODS,
    ClusterStats,
    OpHandle,
    Verdict,
)
from repro.common.errors import (
    CapabilityError,
    ConfigurationError,
    OperationAborted,
    ProtocolError,
    ReproError,
)
from repro.history.checker import auto_method, check_history, default_criterion
from repro.history.history import History
from repro.history.partition import partition_history
from repro.history.recorder import HistoryRecorder
from repro.history.register_checker import check_tagged_history
from repro.history.regular_checker import check_regularity, check_safety
from repro.obs.metrics import Histogram, MetricsRegistry, MetricsSnapshot
from repro.obs.ring import RingTrace

#: Names ``open_cluster`` accepts, mapped in :data:`BACKENDS` below.
BACKEND_NAMES = ("sim", "kv", "live")

#: Default virtual/wall-clock budget for synchronous operations.
DEFAULT_SYNC_TIMEOUT = 5.0

#: Budget, in the backend's seconds, for every process to boot in ``start``.
BOOT_TIMEOUT = 10.0


class Session:
    """A client's handle on one process of a cluster.

    Sessions issue operations; the cluster routes, settles and checks
    them.  ``write``/``read`` return immediately with an
    :class:`~repro.api.types.OpHandle`; the ``*_sync`` variants drive
    the backend's clock until the operation settles.  ``key``
    addresses a named register instance everywhere; ``None`` is the
    backend's default target (the anonymous register, or the KV
    backend's default key).
    """

    def __init__(self, cluster: "Cluster", pid: Optional[int]):
        self.cluster = cluster
        self.pid = pid
        # Per-op latency histograms, resolved once per session (the
        # pre-resolved-handle discipline of repro.obs).
        registry = cluster.registry
        self._latency_hists: Dict[str, Histogram] = {
            "read": registry.histogram("op.read.latency"),
            "write": registry.histogram("op.write.latency"),
        }

    def _observed(self, handle: OpHandle) -> OpHandle:
        """Feed ``handle``'s latency into the session histograms.

        The callback fires synchronously when the operation settles
        (immediately for already-settled handles); it schedules no
        events and consumes no randomness, so observation never
        perturbs a seeded run.
        """
        handle.add_callback(self._record_latency)
        return handle

    def _record_latency(self, handle: OpHandle) -> None:
        latency = handle.latency
        if latency is None:
            return
        hist = self._latency_hists.get(handle.kind)
        if hist is not None:
            hist.observe(latency)

    @property
    def ready(self) -> bool:
        """Whether this session's process can accept an operation on the
        default register now: :meth:`ready_for` of ``None``."""
        return self.ready_for(None)

    def ready_for(self, key: Optional[str] = None) -> bool:
        """Whether this session's process can accept an operation on
        register ``key`` now.

        ``True`` exactly when an invocation on ``key`` would not raise:
        ``False`` while the process is crashed, while the register is
        still initializing or recovering, or while it has an operation
        in flight.  A key the process does not host yet is ready with
        the process, as the invocation provisions it first.  Backends
        that queue client-side (the KV store's shard pipelines) are
        always ready.  A key that is not a non-empty string raises, as
        it would at the invocation.
        """
        if key is not None:
            check_key(key)
        node = self.cluster.nodes[self.pid]
        if not node.has_register(key):
            return node.ready
        return node.register_ready(key) and not node.register_busy(key)

    def write(self, value: Any, key: Optional[str] = None) -> OpHandle:
        """Submit a write; returns its handle immediately."""
        raise NotImplementedError

    def read(self, key: Optional[str] = None) -> OpHandle:
        """Submit a read; returns its handle immediately."""
        raise NotImplementedError

    def write_sync(
        self,
        value: Any,
        key: Optional[str] = None,
        timeout: float = DEFAULT_SYNC_TIMEOUT,
    ) -> OpHandle:
        """Write and drive the backend until the write returns.

        Raises :class:`~repro.common.errors.OperationAborted` if the
        coordinator crashed mid-operation.
        """
        handle = self.write(value, key=key)
        return self.cluster.wait(handle, timeout=timeout, expect_done=True)

    def read_sync(
        self, key: Optional[str] = None, timeout: float = DEFAULT_SYNC_TIMEOUT
    ) -> Any:
        """Read and drive the backend until the value is returned."""
        handle = self.read(key=key)
        self.cluster.wait(handle, timeout=timeout, expect_done=True)
        return handle.result

    def __repr__(self) -> str:
        return f"Session(pid={self.pid}, backend={self.cluster.backend!r})"


class Cluster:
    """Backend-agnostic handle on one running cluster.

    Subclasses adapt one concrete backend; callers program against
    this surface and branch -- when they must -- on
    :attr:`capabilities`, never on the adapter type.
    """

    #: Backend name ("sim", "kv", "live").
    backend: str = "?"
    #: What this backend can do; see :mod:`repro.api.types`.
    capabilities: FrozenSet[str] = frozenset()
    #: The :class:`Session` subclass :meth:`session` hands out.
    session_class: type = Session
    #: Name of the register protocol the cluster runs.
    protocol: str
    #: How many processes the cluster runs.
    num_processes: int
    #: The processes' nodes, indexed by pid.
    nodes: List[Any]
    #: Named register instances provisioned so far.
    _registers: Set[str]
    #: Records every invocation, reply, crash and recovery.
    recorder: HistoryRecorder
    #: The always-on bounded event ring.  Decode with
    #: :meth:`~repro.obs.ring.RingTrace.events`, or export via
    #: ``to_jsonl()`` / ``to_chrome_trace()``.
    flight_recorder: RingTrace
    #: The scheduler, a :class:`repro.common.kernel.Kernel`: on virtual
    #: time on the simulated backends, on the wall clock on live.
    kernel: Any

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Cluster":
        """Boot every process; returns ``self`` for chaining."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the cluster down (a no-op on simulated backends)."""

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- identity ----------------------------------------------------------

    @property
    def seed(self) -> Optional[int]:
        """The deterministic seed, or ``None`` (live backend)."""
        return None

    def node(self, pid: int) -> Any:
        """The node of process ``pid`` (prefer :meth:`session`).

        The one pid check: every verb that takes a pid resolves it
        here, before it changes anything.  Anything but an ``int`` in
        ``range(num_processes)`` raises
        :class:`~repro.common.errors.ConfigurationError`; a live
        cluster has its nodes only once started.
        """
        if not isinstance(pid, int) or not 0 <= pid < self.num_processes:
            raise ConfigurationError(
                f"pid {pid!r} out of range (the cluster has "
                f"{self.num_processes} processes)"
            )
        if pid >= len(self.nodes):
            raise ReproError("cluster not started")
        return self.nodes[pid]

    def session(self, pid: Optional[int] = None) -> Session:
        """A session bound to process ``pid``.

        ``None`` asks the backend to route operations itself -- only
        backends with client-side routing (the KV store's round-robin)
        support it; the others require an explicit pid.
        """
        if pid is None:
            raise ConfigurationError(
                f"the {self.backend} backend needs an explicit pid per session"
            )
        self.node(pid)
        return self.session_class(self, pid)

    # -- keys --------------------------------------------------------------

    def keys(self) -> List[str]:
        """Named register instances provisioned so far, sorted."""
        return sorted(self._registers)

    def ensure_key(self, key: str, timeout: float = 10.0) -> None:
        """Provision register instance ``key`` and run until it is ready."""
        self._provision(key)
        self._wait_register(key, timeout)

    def preload(self, keys: Sequence[str], timeout: float = 10.0) -> None:
        """Provision many keys up front, then wait for each."""
        self._provision(*keys)
        for key in keys:
            self._wait_register(key, timeout)

    def _provision(self, *keys: str) -> None:
        """Provision register instances ``keys`` on every node (idempotent).

        Every key is checked (:func:`check_key`) before any is
        provisioned.  Running nodes initialize them as the clock
        advances; crashed nodes boot them when they recover.
        """
        for key in keys:
            check_key(key)
        for key in keys:
            if key not in self._registers:
                self._registers.add(key)
                for node in self.nodes:
                    node.provision_register(key)

    def _wait_register(self, key: str, timeout: float) -> None:
        """Run until ``key`` is ready on every node that is up."""
        nodes = self.nodes
        if not self.run_until(
            lambda: all(node.crashed or node.register_ready(key) for node in nodes),
            timeout=timeout,
        ):
            raise ProtocolError(f"the cluster did not make register {key!r} ready")

    def _boot(self) -> None:
        """Boot every node, then run until all of them are ready.

        Every node reports its recoveries to :meth:`_recovered` from
        here on, whenever the metrics registry comes to exist.
        """
        for node in self.nodes:
            node.on_recovery_time = self._recovered
            node.boot()
        if not self.run_until(
            lambda: all(node.ready for node in self.nodes), timeout=BOOT_TIMEOUT
        ):
            raise ReproError("cluster did not become ready within the timeout")

    # -- fault verbs -------------------------------------------------------

    def crash(self, pid: int) -> None:
        """Crash process ``pid`` immediately."""
        self.node(pid).crash()

    def recover(self, pid: int, wait: bool = True, timeout: float = 5.0) -> None:
        """Restart process ``pid``; by default run until it is ready.

        A process that is up raises at the call.
        """
        node = self.node(pid)
        node.recover()
        if wait and not self.run_until(lambda: node.ready, timeout=timeout):
            raise ReproError(
                f"process {pid} did not finish recovery within the timeout"
            )

    def partition(self, group_a: Sequence[int], group_b: Sequence[int]) -> None:
        """Block every link between the two groups (both directions).

        Blocks stack: a link cut by two overlapping partitions carries
        traffic again only after both are healed.
        """
        raise self._unsupported("partition", "link faults")

    def heal(
        self,
        group_a: Optional[Sequence[int]] = None,
        group_b: Optional[Sequence[int]] = None,
    ) -> None:
        """Release one block per link between the two groups.

        The exact inverse of :meth:`partition`; with no groups every
        blocked link is unblocked.
        """
        raise self._unsupported("heal", "link faults")

    def lose(self, probability: float, seed: int = 0) -> None:
        """Drop each non-loopback transmission with ``probability``.

        The drops are decided by a private generator seeded with
        ``seed`` when the verb runs.  One loss window is open at a
        time: a second call replaces the first, and ``lose(0.0)``
        ends it.
        """
        raise self._unsupported("lose", "link faults")

    def slow_link(
        self, links: Sequence[Sequence[int]], extra_delay: float
    ) -> None:
        """Add ``extra_delay`` to every delivery on the ``(src, dst)`` links.

        Penalties add up across calls; a negative ``extra_delay``
        removes that much again (floor 0).
        """
        raise self._unsupported("slow_link", "link faults")

    def corrupt_record(self, pid: int, key: str) -> bool:
        """Make ``pid``'s durable record under ``key`` unreadable.

        ``key`` is the raw storage key (``"writing"``/``"written"``
        for the anonymous register, ``"<register>/writing"`` for named
        slots).  Returns whether a record was present.  Requires the
        ``storage_faults`` capability.
        """
        raise self._unsupported("corrupt_record", "storage fault injection")

    def lose_stores(self, pid: int, count: int = 1) -> None:
        """Silently drop ``pid``'s next ``count`` acknowledged stores."""
        raise self._unsupported("lose_stores", "storage fault injection")

    def slow_storage(self, pid: int, extra_latency: float) -> None:
        """Add ``extra_latency`` to ``pid``'s stores until cleared.

        Pass ``0.0`` to end the window.
        """
        raise self._unsupported("slow_storage", "storage fault injection")

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """The backend's clock, in seconds: virtual on sim and kv, wall on live."""
        return self.kernel.now

    def run(self, duration: Optional[float] = None, max_events: int = 1_000_000) -> None:
        """Advance the clock by ``duration`` (or, simulated, to quiescence)."""
        raise NotImplementedError

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        poll_every: int = 1,
        max_events: int = 1_000_000,
    ) -> bool:
        """Advance the clock until ``predicate()`` holds; ``False`` on timeout.

        ``poll_every`` amortizes predicate polling (see
        :meth:`repro.common.kernel.Kernel.run_until`): with a stride ``k``
        up to ``k - 1`` further events may execute after the predicate
        turns true, so only pass ``k > 1`` when that overshoot is
        acceptable (e.g. draining a finished workload).  ``max_events``
        bounds the number of kernel callbacks; soak-scale runs (a
        simulated operation costs tens of kernel events) must raise it
        above the livelock-guard default.
        """
        return self.kernel.run_until(predicate, max_events, timeout, poll_every)

    def defer(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` on the backend's clock.

        The hook closed-loop drivers chain their next invocation on.
        """
        self.kernel.schedule(delay, fn, *args)

    def on_event(
        self,
        kind: str,
        source_pid: Optional[int],
        count: int,
        fn: Callable,
        *args: Any,
    ) -> None:
        """Call ``fn(*args)`` on the ``count``-th matching trace event, once.

        An event matches when its kind is ``kind`` and, unless
        ``source_pid`` is ``None``, it was emitted by ``source_pid``.
        ``fn`` runs synchronously inside the emission, before the
        backend takes its next step: the instant precision of the
        paper's adversaries.
        """
        raise self._unsupported("on_event", "trace-triggered actions")

    def wait(
        self,
        handle: OpHandle,
        timeout: float = DEFAULT_SYNC_TIMEOUT,
        expect_done: bool = False,
    ) -> OpHandle:
        """Advance the clock until ``handle`` settles.

        With ``expect_done`` an aborted operation raises
        :class:`~repro.common.errors.OperationAborted` -- the ``*_sync``
        contract -- whose message carries the handle's ``error``.  A
        timeout gives up only this wait: the operation stays in flight.
        """
        # A settled handle returns at once; otherwise the predicate is a
        # C call per event, with no Python frame of its own.
        if not handle.settled and not self.run_until(
            partial(getattr, handle, "settled"), timeout
        ):
            raise ReproError(
                f"{handle.kind} at p{handle.pid} did not settle within {timeout}s"
            )
        if expect_done and handle.aborted:
            raise OperationAborted(
                f"{handle.kind} at p{handle.pid} failed: {handle.error}"
            ) from handle.error
        return handle

    def wait_all(
        self, handles: Sequence[OpHandle], timeout: float = DEFAULT_SYNC_TIMEOUT
    ) -> List[OpHandle]:
        """Wait until every handle settles."""
        for handle in handles:
            self.wait(handle, timeout=timeout)
        return list(handles)

    # -- verification ------------------------------------------------------

    @property
    def history(self) -> History:
        """The recorded invocation/reply/crash/recovery history."""
        return self.recorder.history

    def check(self, criterion: str = "atomic", method: str = "auto") -> Verdict:
        """Check the recorded history; returns the merged verdict.

        ``criterion`` is one of :data:`~repro.api.types.CHECK_CRITERIA`
        ("atomic" resolves to what the running protocol promises);
        ``method`` one of :data:`~repro.api.types.CHECK_METHODS`.  The
        KV backend checks each key's projection and reports per key;
        the single-register backends judge the anonymous register's
        history.
        """
        history = self.history
        if self._registers:
            history = partition_history(
                history, self.recorder.register_of, registers=self._registers
            ).get(None, History())
        return check_one_register(self, history, self.recorder, criterion, method)

    # -- observability -----------------------------------------------------

    def stats(self) -> ClusterStats:
        """Run-wide counters, read from :attr:`registry`'s rows.

        So ``stats()`` and :meth:`metrics` cannot disagree.  ``extra``
        holds the backend's own rows, those named ``<backend>.*``, with
        the dot as an underscore (``kv.aborted`` is ``kv_aborted``).
        """
        scalars = self.metrics().scalars
        return ClusterStats(
            clock=scalars["kernel.clock"],
            kernel_events=scalars["kernel.events"],
            messages_sent=scalars["net.messages_sent"],
            messages_dropped=scalars["net.messages_dropped"],
            stores_completed=scalars["storage.stores_completed"],
            crashes=scalars["node.crashes"],
            recoveries=scalars["node.recoveries"],
            extra={
                name.replace(".", "_"): value
                for name, value in scalars.items()
                if name.startswith(f"{self.backend}.")
            },
        )

    @property
    def registry(self) -> MetricsRegistry:
        """This cluster's metrics registry (created on first use).

        Backends install pull-gauges over their native counters via
        :meth:`_register_metrics`; sessions resolve their latency
        histograms here.  Reading counters through the registry costs
        nothing on the hot path -- values are sampled at
        :meth:`metrics` time.
        """
        registry = getattr(self, "_metrics_registry", None)
        if registry is None:
            registry = MetricsRegistry()
            self._register_metrics(registry)
            self._metrics_registry = registry
        return registry

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Install the rows both hosts of :class:`~repro.protocol.host.NodeCore`
        fill alike (see ``docs/observability.md``); a backend adds its own.

        Every row is a pull gauge over a counter the engine already
        keeps, summed over the nodes (the footprint rows over
        :meth:`_logs`).  A recovery is a crash its node has left; the
        ``node.recovery_time`` histogram is fed by :meth:`_recovered`.
        """
        nodes, logs = self.nodes, self._logs
        registry.gauge("kernel.clock", fn=lambda: self.now)
        registry.gauge("kernel.events", fn=self._events)
        for name in ("stores_completed", "bytes_logged", "stores_lost_to_crash"):
            registry.gauge(
                f"storage.{name}",
                fn=lambda name=name: sum(getattr(n.storage, name) for n in nodes),
            )
        for row, name in (("footprint_bytes", "log_bytes"), ("records", "log_records")):
            registry.gauge(
                f"storage.{row}",
                fn=lambda name=name: sum(getattr(log, name) for log in logs()),
            )
        registry.gauge("node.crashes", fn=lambda: sum(n.crash_count for n in nodes))
        registry.gauge(
            "node.recoveries",
            fn=lambda: sum(n.crash_count - n.crashed for n in nodes),
        )
        registry.histogram("node.recovery_time")
        registry.gauge(
            "trace.flight_recorded",
            fn=lambda: self.flight_recorder.total,
        )

    def _recovered(self, duration: float) -> None:
        """A node finished a recovery: observe it in ``node.recovery_time``."""
        self.registry.histogram("node.recovery_time").observe(duration)

    def _events(self) -> int:
        """Kernel callbacks run so far."""
        return self.kernel.events_processed

    def _logs(self) -> List[Any]:
        """The logs the nodes write, each once: here, their storages."""
        return [node.storage for node in self.nodes]

    def metrics(self) -> MetricsSnapshot:
        """A frozen, backend-uniform snapshot of every instrument.

        Snapshots are diffable (``later.diff(earlier)`` isolates a
        phase) and mergeable (``a.merge(b)`` aggregates runs); see
        :class:`repro.obs.metrics.MetricsSnapshot`.
        """
        return self.registry.snapshot()

    def transcript(self) -> Optional[List[str]]:
        """Captured trace events as strings, or ``None`` (no capture)."""
        return None

    # -- helpers -----------------------------------------------------------

    def _unsupported(self, verb: str, feature: str) -> CapabilityError:
        return CapabilityError(
            f"the {self.backend!r} backend does not support {feature} "
            f"({verb}); check Cluster.capabilities before calling it"
        )

    def _resolve_criterion(self, criterion: str) -> str:
        """Map the requested criterion to the one actually checked."""
        if criterion not in CHECK_CRITERIA:
            raise ConfigurationError(
                f"unknown criterion {criterion!r} (expected one of "
                f"{CHECK_CRITERIA})"
            )
        if criterion == "atomic":
            return default_criterion(self.protocol)
        return criterion

    #: Reported :attr:`Verdict.method` spellings, normalized back to
    #: the request tokens so ``check(method=verdict.method)`` works.
    _METHOD_ALIASES = {"black-box": "blackbox", "white-box": "whitebox"}

    @classmethod
    def _validate_method(cls, method: str) -> str:
        method = cls._METHOD_ALIASES.get(method, method)
        if method not in CHECK_METHODS:
            raise ConfigurationError(
                f"unknown checker method {method!r} (expected one of "
                f"{CHECK_METHODS})"
            )
        return method

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(backend={self.backend!r}, "
            f"protocol={self.protocol!r}, processes={self.num_processes})"
        )


# -- shared helpers -----------------------------------------------------------


def check_key(key: Any) -> None:
    """The one key rule: a register key is a non-empty string.

    Every verb that takes a key makes this check before it changes
    anything; ``None``, where a verb takes it, is the backend's default
    target and never reaches here.
    """
    if not isinstance(key, str) or not key:
        raise ConfigurationError(f"keys must be non-empty strings, not {key!r}")


def check_one_register(
    cluster: Cluster,
    history: History,
    recorder: HistoryRecorder,
    criterion: str,
    method: str,
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
        verdict = checker(history)
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
        verdict = check_history(history, criterion=resolved)
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
    result = check_tagged_history(history, recorder, criterion=resolved)
    return Verdict(
        ok=result.ok,
        criterion=criterion,
        consistency=resolved,
        method="white-box",
        operations=result.operations,
        reason="; ".join(result.violations),
    )


def open_cluster(
    backend: str = "sim",
    protocol: str = "persistent",
    num_processes: Optional[int] = None,
    seed: Optional[int] = None,
    **options: Any,
) -> Cluster:
    """Open a cluster behind the unified façade.

    ``backend`` selects the deployment: ``"sim"`` (the deterministic
    single-register simulator), ``"kv"`` (the sharded key-value store
    on the simulator) or ``"live"`` (nodes over UDP on localhost, on a
    caller-driven selector loop).
    ``options`` are forwarded to the backend's constructor (e.g.
    ``num_shards``/``batch_window`` for kv, ``storage_root``/``op_timeout``
    for live, ``capture_trace``/``config`` for the simulated ones).

    The returned :class:`Cluster` is not yet started: use it as a
    context manager, or call :meth:`Cluster.start` explicitly.
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {backend!r} (expected one of {BACKEND_NAMES})"
        ) from None
    return factory(
        protocol=protocol, num_processes=num_processes, seed=seed, **options
    )


#: backend name -> (module, class) of its adapter.
_ADAPTERS = {
    "sim": ("repro.api.sim", "SimBackend"),
    "kv": ("repro.api.kv", "KVBackend"),
    "live": ("repro.api.live", "LiveBackend"),
}


class _BackendRegistry(dict):
    """Lazy backend table: imports each adapter on its first use."""

    def __missing__(self, name: str) -> Callable[..., Cluster]:
        module, cls = _ADAPTERS[name]
        factory = self[name] = getattr(importlib.import_module(module), cls)
        return factory


#: backend name -> adapter factory, resolved lazily to avoid import
#: cycles (the adapters import the simulator and the runtime) and so a
#: simulated run never imports the live one's loop and sockets.
BACKENDS: Dict[str, Callable[..., Cluster]] = _BackendRegistry()
