"""High-level simulation API: build a cluster, run operations, inspect.

This is the *low-level* front-end for simulated runs -- the unified,
backend-agnostic client API lives in :mod:`repro.api`
(``open_cluster(backend="sim")`` wraps a cluster built here).  Use
this layer directly when a tool needs simulator-specific surface::

    from repro import SimCluster

    cluster = SimCluster(protocol="persistent", num_processes=5)
    cluster.start()
    cluster.write_sync(pid=0, value="hello")
    assert cluster.read_sync(pid=1) == "hello"
    cluster.crash(0)
    cluster.recover(0)
    verdict = cluster.check_atomicity()
    assert verdict.ok

Everything runs on virtual time: ``write_sync``/``read_sync`` advance
the simulation until the operation settles.  For concurrent workloads,
invoke with :meth:`write`/:meth:`read` (returns a handle immediately)
and drive the clock with :meth:`run`/:meth:`run_until`.

Beyond the single anonymous register, a cluster can host named
*register instances* (one per key of the KV layer): provision them with
:meth:`SimCluster.ensure_register` and address them with the ``key``
argument of :meth:`write`/:meth:`read`.  The sharded, batching
key-value front-end lives in :mod:`repro.kv`.

Failure injection beyond :meth:`crash`/:meth:`recover` goes through
the façade: lift a cluster with :func:`repro.api.as_cluster` and use
its fault verbs (``partition``, ``lose``, ``slow_link``,
``slow_storage``, ...), ``defer`` for timed ones and ``on_event`` for
trace-triggered ones -- or arm the declarative fault primitives of
:mod:`repro.scenarios.faults`, which compile to exactly those calls.
Verification is :meth:`SimCluster.check_atomicity`:
exhaustive black-box search on small histories, the near-linear
white-box tag checker beyond the exhaustive cap (``method="auto"``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError, OperationAborted, ReproError
from repro.common.ids import ProcessId
from repro.history.checker import (
    AtomicityVerdict,
    auto_method,
    check_history,
    default_criterion,
)
from repro.history.history import History
from repro.history.partition import partition_history
from repro.history.recorder import HistoryRecorder
from repro.history.register_checker import check_tagged_history
from repro.protocol.host import NodeOperation
from repro.protocol.registry import protocol_factory
from repro.sim.kernel import Kernel
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.sim.storage import SimStableStorage
from repro.obs.tracing import Trace

#: Default virtual-time budget for synchronous operations, seconds.
DEFAULT_OP_TIMEOUT = 5.0


class SimCluster:
    """A simulated cluster emulating one shared register."""

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        config: Optional[ClusterConfig] = None,
        seed: Optional[int] = None,
        include_broken: bool = False,
        capture_trace: bool = True,
        batch_window: float = 0.0,
        flight_recorder: bool = True,
        checkpoint_interval: Optional[float] = None,
        recovery_scan: bool = False,
    ):
        if config is None:
            config = ClusterConfig()
        if num_processes is not None:
            config = ClusterConfig(
                num_processes=num_processes,
                network=config.network,
                storage=config.storage,
                retransmit_interval=config.retransmit_interval,
                local_step_cost=config.local_step_cost,
                seed=config.seed if seed is None else seed,
            )
        elif seed is not None:
            config = ClusterConfig(
                num_processes=config.num_processes,
                network=config.network,
                storage=config.storage,
                retransmit_interval=config.retransmit_interval,
                local_step_cost=config.local_step_cost,
                seed=seed,
            )
        self.config = config
        self.protocol_name = protocol
        make_protocol = protocol_factory(
            protocol, config.retransmit_interval, include_broken=include_broken
        )

        self.kernel = Kernel(seed=config.seed)
        self.trace = Trace(
            capture=capture_trace, flight_recorder=flight_recorder
        )
        self.recorder = HistoryRecorder(clock=lambda: self.kernel.now)
        self.network = SimNetwork(
            self.kernel, config.num_processes, config.network, self.trace
        )
        self.nodes: List[SimNode] = []
        for pid in range(config.num_processes):
            storage = SimStableStorage(self.kernel, pid, config.storage, self.trace)
            node = SimNode(
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
            self.nodes.append(node)
        self._registers: Set[str] = set()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, timeout: float = 1.0) -> None:
        """Boot every process and wait until all report ready."""
        if self._started:
            raise ReproError("cluster already started")
        self._started = True
        for node in self.nodes:
            node.boot()
        ok = self.kernel.run_until(
            lambda: all(node.ready for node in self.nodes), timeout=timeout
        )
        if not ok:
            raise ReproError("cluster did not become ready within the timeout")

    @property
    def majority(self) -> int:
        return self.config.majority

    @property
    def flight_recorder(self):
        """The trace's always-on event ring, or ``None`` when disabled."""
        return self.trace.ring

    @property
    def history(self) -> History:
        """The recorded invocation/reply/crash/recovery history so far."""
        return self.recorder.history

    def node(self, pid: ProcessId) -> SimNode:
        if not 0 <= pid < len(self.nodes):
            raise ConfigurationError(f"pid {pid} out of range")
        return self.nodes[pid]

    # -- failures ------------------------------------------------------------

    def crash(self, pid: ProcessId) -> None:
        """Crash process ``pid`` immediately."""
        self.node(pid).crash()

    def recover(self, pid: ProcessId, wait: bool = False, timeout: float = 1.0) -> None:
        """Restart process ``pid``; optionally run until it is ready."""
        node = self.node(pid)
        node.recover()
        if wait:
            ok = self.kernel.run_until(lambda: node.ready, timeout=timeout)
            if not ok:
                raise ReproError(
                    f"process {pid} did not finish recovery within the timeout"
                )

    def crashed_processes(self) -> List[ProcessId]:
        return [node.pid for node in self.nodes if node.crashed]

    # -- register instances ---------------------------------------------------

    def ensure_register(self, key: str) -> None:
        """Provision the virtual register instance ``key`` on every node.

        Idempotent.  On running nodes the new instance initializes
        within the simulation (its initial records must become durable
        before it accepts operations -- use :meth:`wait_register` or
        any synchronous operation to run the clock); crashed nodes
        boot the instance when they recover.
        """
        if key in self._registers:
            return
        self._registers.add(key)
        for node in self.nodes:
            node.provision_register(key)

    @property
    def registers(self) -> List[str]:
        """Named register instances provisioned so far."""
        return sorted(self._registers)

    def wait_register(self, key: str, timeout: float = 1.0) -> None:
        """Advance the clock until ``key`` is ready on every live node."""
        ok = self.kernel.run_until(
            lambda: all(
                node.crashed or node.register_ready(key) for node in self.nodes
            ),
            timeout=timeout,
        )
        if not ok:
            raise ReproError(f"register {key!r} did not become ready")

    # -- operations ------------------------------------------------------------

    def write(
        self, pid: ProcessId, value: Any, key: Optional[str] = None
    ) -> NodeOperation:
        """Invoke a write at process ``pid``; returns the handle.

        ``key`` addresses a named register instance; ``None`` is the
        classic anonymous register.  A named register must have
        finished initializing before it accepts operations: on a
        key's first touch call :meth:`ensure_register` +
        :meth:`wait_register` (or use :meth:`write_sync`, which does)
        or this raises :class:`~repro.common.errors.NotRecoveredError`.
        """
        if key is not None:
            self.ensure_register(key)
        return self.node(pid).invoke_write(value, register=key)

    def read(self, pid: ProcessId, key: Optional[str] = None) -> NodeOperation:
        """Invoke a read at process ``pid``; returns the handle.

        Named-register readiness works as in :meth:`write`.
        """
        if key is not None:
            self.ensure_register(key)
        return self.node(pid).invoke_read(register=key)

    def wait(
        self,
        handle: NodeOperation,
        timeout: float = DEFAULT_OP_TIMEOUT,
        poll_every: int = 1,
    ) -> NodeOperation:
        """Advance virtual time until ``handle`` settles.

        The default ``poll_every=1`` stops on the exact settling event;
        callers that tolerate a few events of overshoot (see
        :meth:`run_until`) can pass a stride to cut polling overhead.
        """
        ok = self.kernel.run_until(
            lambda: handle.settled, timeout=timeout, poll_every=poll_every
        )
        if not ok:
            raise ReproError(f"operation {handle.op} did not settle within {timeout}s")
        return handle

    def wait_all(
        self, handles: Sequence[NodeOperation], timeout: float = DEFAULT_OP_TIMEOUT
    ) -> List[NodeOperation]:
        """Advance virtual time until every handle settles."""
        ok = self.kernel.run_until(
            lambda: all(handle.settled for handle in handles), timeout=timeout
        )
        if not ok:
            unsettled = [h.op for h in handles if not h.settled]
            raise ReproError(f"operations did not settle: {unsettled}")
        return list(handles)

    def write_sync(
        self,
        pid: ProcessId,
        value: Any,
        key: Optional[str] = None,
        timeout: float = DEFAULT_OP_TIMEOUT,
    ) -> NodeOperation:
        """Write and run the simulation until the write returns."""
        if key is not None:
            self.ensure_register(key)
            self.wait_register(key, timeout=timeout)
        handle = self.wait(self.write(pid, value, key=key), timeout=timeout)
        if handle.aborted:
            raise OperationAborted(f"write at p{pid} aborted by a crash")
        return handle

    def read_sync(
        self,
        pid: ProcessId,
        key: Optional[str] = None,
        timeout: float = DEFAULT_OP_TIMEOUT,
    ) -> Any:
        """Read and run the simulation until the value is returned."""
        if key is not None:
            self.ensure_register(key)
            self.wait_register(key, timeout=timeout)
        handle = self.wait(self.read(pid, key=key), timeout=timeout)
        if handle.aborted:
            raise OperationAborted(f"read at p{pid} aborted by a crash")
        return handle.result

    # -- clock ---------------------------------------------------------------------

    def run(self, duration: Optional[float] = None, max_events: int = 1_000_000) -> None:
        """Advance the simulation by ``duration`` (or until quiescent)."""
        if duration is None:
            self.kernel.run(max_events=max_events)
        else:
            self.kernel.run(until=self.kernel.now + duration, max_events=max_events)

    def run_until(
        self,
        predicate,
        timeout: Optional[float] = None,
        poll_every: int = 1,
        max_events: int = 1_000_000,
    ) -> bool:
        """Advance the simulation until ``predicate()`` holds.

        ``poll_every`` amortizes predicate polling (see
        :meth:`repro.sim.kernel.Kernel.run_until`): with a stride ``k``
        up to ``k - 1`` further events may execute after the predicate
        turns true, so only pass ``k > 1`` when that overshoot is
        acceptable (e.g. draining a finished workload).  ``max_events``
        bounds the number of kernel callbacks; soak-scale runs (a
        simulated operation costs tens of kernel events) must raise it
        above the livelock-guard default.
        """
        return self.kernel.run_until(
            predicate, timeout=timeout, poll_every=poll_every,
            max_events=max_events,
        )

    @property
    def now(self) -> float:
        return self.kernel.now

    # -- verification ------------------------------------------------------------

    def per_register_histories(self) -> Dict[Optional[str], History]:
        """Project the recorded history onto each register instance.

        The ``None`` entry is the anonymous register's history (the one
        :meth:`check_atomicity` judges); named entries carry one key's
        operations each, with every crash/recovery event replicated
        into every projection.
        """
        return partition_history(
            self.history, self.recorder.register_of, registers=self._registers
        )

    def check_atomicity(
        self,
        criterion: Optional[str] = None,
        initial_value: Any = None,
        method: str = "auto",
    ) -> AtomicityVerdict:
        """Check the recorded history against an atomicity criterion.

        ``criterion`` defaults to what the running protocol promises:
        ``"transient"`` for the transient algorithm, ``"persistent"``
        for everything else.  When named register instances exist, this
        judges the anonymous register's projection; check the named
        ones via :meth:`per_register_histories` (the KV backend's
        ``check()`` does exactly that, per key).

        ``method`` picks the checker: ``"blackbox"`` is the exhaustive
        witness search (ground truth, capped at
        :data:`~repro.history.checker.MAX_OPERATIONS`), ``"whitebox"``
        the near-linear tag checker, and ``"auto"`` (the default) uses
        the black-box checker while the history fits under its cap and
        the white-box checker beyond it -- so soak-scale runs get a
        verdict instead of a size error.
        """
        if criterion is None:
            criterion = default_criterion(self.protocol_name)
        if method not in ("auto", "blackbox", "whitebox"):
            raise ConfigurationError(f"unknown checker method {method!r}")
        history = self.history
        if self._registers:
            history = self.per_register_histories().get(None, History())
        if method == "auto":
            method = auto_method(len(history.operations()))
        if method == "blackbox":
            return check_history(
                history, criterion=criterion, initial_value=initial_value
            )
        result = check_tagged_history(
            history,
            self.recorder,
            criterion=criterion,
            initial_value=initial_value,
        )
        return AtomicityVerdict(
            ok=result.ok,
            criterion=criterion,
            reason="; ".join(result.violations),
            operations=result.operations,
        )

    def causal_log_counts(self) -> Dict[str, List[int]]:
        """Measured causal-log counts per operation kind."""
        counts: Dict[str, List[int]] = {"read": [], "write": []}
        for record in self.history.completed_operations():
            logs = self.recorder.causal_logs(record.op)
            if logs is not None:
                counts[record.kind].append(logs)
        return counts
