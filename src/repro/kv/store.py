"""The sharded key-value store front-end.

This is the *low-level* KV layer -- the unified client API in
:mod:`repro.api` (``open_cluster(backend="kv")``) wraps it behind the
backend-agnostic ``Cluster``/``Session`` vocabulary.

:class:`KVCluster` turns the single-register emulation into a store:

* **key -> register**: every key is one virtual register instance,
  provisioned on all replicas on first touch
  (:meth:`~repro.cluster.SimCluster.ensure_register`) and addressed by
  register-id-namespaced messages;
* **key -> shard**: a :class:`~repro.kv.sharding.ShardMap` assigns
  keys to shards.  Each (process, shard) pair runs one single-threaded
  pipeline: at most one *batch* of operations is in flight per
  pipeline, operations on different shards proceed concurrently.  This
  is the shard-per-core execution model of production stores, and it is
  what makes throughput scale with the shard count;
* **batching**: with a batch window ``w > 0``, a free pipeline waits
  ``w`` of virtual time, then drains every queued operation (at most
  one per key -- each register is a sequential process) and issues them
  together.  Their protocol messages coalesce into one datagram per
  destination (:class:`~repro.protocol.messages.MuxBatch`), so a batch
  of same-shard operations costs a single quorum round-trip.  With
  ``w == 0`` the pipeline is strictly serial: one operation at a time,
  no coalescing -- the baseline the benchmarks sweep against;
* **verification**: the recorded history is partitioned per key and
  every projection is checked with the paper's atomicity checkers
  (exhaustive black-box search on small projections, the scalable
  white-box tag checker on large ones).

The store inherits the model's failure semantics wholesale: replicas
crash and recover, operations in flight at a crashed coordinator abort
(their invocations stay pending in the per-key history), and queued
operations wait for the replica to come back.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster import DEFAULT_OP_TIMEOUT, SimCluster
from repro.common.config import ClusterConfig
from repro.common.errors import (
    ConfigurationError,
    NotRecoveredError,
    OperationAborted,
    ProtocolError,
    ReproError,
)
from repro.common.ids import ProcessId
from repro.history.checker import (
    MAX_OPERATIONS,
    check_history,
)
from repro.history.history import History
from repro.history.register_checker import check_tagged_history
from repro.kv.sharding import HashShardMap, ShardMap
from repro.protocol.host import NodeOperation

#: How often a blocked pipeline re-checks its replica, seconds.
PIPELINE_RETRY_INTERVAL = 1e-3

#: Largest per-key projection the exhaustive black-box checker is asked
#: to verify; bigger projections use the white-box tag checker.
EXHAUSTIVE_CHECK_LIMIT = 20


def projection_check_method(num_operations: int) -> str:
    """The store's checker policy for one per-key projection.

    Exhaustive black-box search up to :data:`EXHAUSTIVE_CHECK_LIMIT`
    operations (bounded by the checker's own hard cap), the white-box
    tag checker beyond.  Shared by :meth:`KVCluster.check_atomicity`
    and the :mod:`repro.api` KV backend so the two surfaces cannot
    diverge.
    """
    if num_operations <= min(EXHAUSTIVE_CHECK_LIMIT, MAX_OPERATIONS):
        return "blackbox"
    return "whitebox"

#: Predicate-poll stride for the preload readiness barrier (see
#: :meth:`repro.sim.kernel.Kernel.run_until`).
PRELOAD_POLL_STRIDE = 16


class KVOperation:
    """Client-side handle of one key-value operation.

    Settles (``done`` or ``aborted``) as the simulation advances.  The
    handle exists from submission; ``invoked_at`` is set once the shard
    pipeline actually issues the operation on the replica, so
    ``latency`` includes queueing and batching delay -- the client-side
    truth a service would measure.
    """

    __slots__ = (
        "key",
        "kind",
        "value",
        "pid",
        "shard",
        "done",
        "aborted",
        "result",
        "submitted_at",
        "invoked_at",
        "completed_at",
        "_callbacks",
        "_sim_handle",
    )

    def __init__(self, key: str, kind: str, value: Any, pid: ProcessId, shard: int):
        self.key = key
        self.kind = kind
        self.value = value
        self.pid = pid
        self.shard = shard
        self.done = False
        self.aborted = False
        self.result: Any = None
        self.submitted_at: Optional[float] = None
        self.invoked_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._callbacks: List[Callable[["KVOperation"], None]] = []
        self._sim_handle: Optional[NodeOperation] = None

    @property
    def settled(self) -> bool:
        return self.done or self.aborted

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion duration in virtual time."""
        if self.submitted_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def add_callback(self, callback: Callable[["KVOperation"], None]) -> None:
        """Run ``callback(handle)`` when the operation settles."""
        if self.settled:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _settle_from(self, handle: NodeOperation, now: float) -> None:
        self.done = handle.done
        self.aborted = handle.aborted
        self.result = handle.result
        self.completed_at = now
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "done" if self.done else ("aborted" if self.aborted else "pending")
        return f"KVOperation({self.key!r}, {self.kind}, {state})"


class _ShardPipeline:
    """Single-threaded executor of one (process, shard) pair."""

    __slots__ = ("kv", "pid", "shard", "queue", "inflight", "armed")

    def __init__(self, kv: "KVCluster", pid: ProcessId, shard: int):
        self.kv = kv
        self.pid = pid
        self.shard = shard
        self.queue: List[KVOperation] = []
        self.inflight = 0
        #: Whether a drain (or retry) event is already scheduled.
        self.armed = False

    def submit(self, op: KVOperation) -> None:
        self.queue.append(op)
        self._arm(self.kv.batch_window)

    def _arm(self, delay: float) -> None:
        if self.armed or self.inflight or not self.queue:
            return
        self.armed = True
        self.kv.kernel.schedule(delay, self._drain)

    def _drain(self) -> None:
        self.armed = False
        if self.inflight or not self.queue:
            return
        node = self.kv.sim.node(self.pid)
        if node.crashed or not node.ready:
            self._arm(PIPELINE_RETRY_INTERVAL)
            return
        # A zero window cannot gather anything: the pipeline runs one
        # operation at a time.  A positive window drains everything
        # that queued while it was open, at most one op per key.
        max_ops = None if self.kv.batch_window > 0 else 1
        taken: List[KVOperation] = []
        taken_keys: Set[str] = set()
        remaining: List[KVOperation] = []
        for op in self.queue:
            if max_ops is not None and len(taken) >= max_ops:
                remaining.append(op)
                continue
            if op.key in taken_keys or not node.register_ready(op.key):
                remaining.append(op)
                continue
            if node.register_busy(op.key):
                remaining.append(op)
                continue
            taken.append(op)
            taken_keys.add(op.key)
        self.queue = remaining
        issued = 0
        for op in taken:
            try:
                if op.kind == "write":
                    handle = node.invoke_write(op.value, register=op.key)
                else:
                    handle = node.invoke_read(register=op.key)
            except (ProtocolError, NotRecoveredError):
                # Lost a race with protocol-internal activity (e.g. a
                # recovery replay); requeue and retry shortly.
                self.queue.append(op)
                continue
            op.invoked_at = self.kv.kernel.now
            op._sim_handle = handle
            issued += 1
            handle.add_callback(lambda h, kv_op=op: self._on_settled(kv_op, h))
        self.inflight += issued
        if issued == 0 and self.queue:
            self._arm(PIPELINE_RETRY_INTERVAL)

    def _on_settled(self, op: KVOperation, handle: NodeOperation) -> None:
        self.inflight -= 1
        op._settle_from(handle, self.kv.kernel.now)
        if op.aborted:
            self.kv._aborted += 1
        else:
            self.kv._completed += 1
        # Start the next batch from a fresh kernel event, not inside
        # the settling call stack (which may be a crash handler).
        self._arm(0.0)


class KVAtomicityReport:
    """Per-key atomicity verdicts of one KV run."""

    def __init__(self, criterion: str):
        self.criterion = criterion
        #: key -> (ok, checker-name, diagnostic)
        self.per_key: Dict[str, Tuple[bool, str, str]] = {}

    def record(self, key: str, ok: bool, checker: str, reason: str = "") -> None:
        self.per_key[key] = (ok, checker, reason)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _, _ in self.per_key.values())

    @property
    def failures(self) -> Dict[str, str]:
        return {
            key: reason
            for key, (ok, _, reason) in self.per_key.items()
            if not ok
        }

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"FAILED({sorted(self.failures)})"
        return f"KVAtomicityReport({self.criterion}, {len(self.per_key)} keys, {status})"


class KVCluster:
    """A sharded, batching key-value store on a simulated cluster."""

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        num_shards: int = 8,
        shard_map: Optional[ShardMap] = None,
        batch_window: float = 0.0,
        config: Optional[ClusterConfig] = None,
        seed: Optional[int] = None,
        capture_trace: bool = False,
        flight_recorder: bool = True,
        checkpoint_interval: Optional[float] = None,
        recovery_scan: bool = False,
    ):
        if batch_window < 0:
            raise ConfigurationError("batch_window must be >= 0")
        if shard_map is None:
            shard_map = HashShardMap(num_shards)
        elif shard_map.num_shards != num_shards:
            raise ConfigurationError(
                f"shard_map has {shard_map.num_shards} shards, expected {num_shards}"
            )
        self.shard_map = shard_map
        self.batch_window = batch_window
        self.sim = SimCluster(
            protocol=protocol,
            num_processes=num_processes,
            config=config,
            seed=seed,
            capture_trace=capture_trace,
            batch_window=batch_window,
            flight_recorder=flight_recorder,
            checkpoint_interval=checkpoint_interval,
            recovery_scan=recovery_scan,
        )
        self._pipelines: Dict[Tuple[ProcessId, int], _ShardPipeline] = {}
        self._next_pid = 0
        self._completed = 0
        self._aborted = 0

    # -- plumbing ----------------------------------------------------------

    @property
    def kernel(self):
        return self.sim.kernel

    @property
    def config(self) -> ClusterConfig:
        return self.sim.config

    @property
    def protocol_name(self) -> str:
        return self.sim.protocol_name

    @property
    def num_shards(self) -> int:
        return self.shard_map.num_shards

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def nodes(self):
        return self.sim.nodes

    @property
    def network(self):
        return self.sim.network

    @property
    def recorder(self):
        return self.sim.recorder

    @property
    def flight_recorder(self):
        """The underlying trace's event ring, or ``None`` when disabled."""
        return self.sim.flight_recorder

    @property
    def history(self) -> History:
        return self.sim.history

    @property
    def completed_operations(self) -> int:
        """KV operations that finished successfully so far."""
        return self._completed

    @property
    def aborted_operations(self) -> int:
        """KV operations aborted by coordinator crashes so far."""
        return self._aborted

    def start(self, timeout: float = 1.0) -> None:
        """Boot every replica and wait until all report ready."""
        self.sim.start(timeout=timeout)

    def run(self, duration: Optional[float] = None, max_events: int = 1_000_000) -> None:
        self.sim.run(duration, max_events=max_events)

    def run_until(
        self,
        predicate,
        timeout: Optional[float] = None,
        poll_every: int = 1,
        max_events: int = 1_000_000,
    ) -> bool:
        return self.sim.run_until(
            predicate, timeout=timeout, poll_every=poll_every,
            max_events=max_events,
        )

    def crash(self, pid: ProcessId) -> None:
        """Crash replica ``pid`` immediately."""
        self.sim.crash(pid)

    def recover(self, pid: ProcessId, wait: bool = True, timeout: float = 5.0) -> None:
        """Restart replica ``pid``; by default run until it is ready."""
        self.sim.recover(pid, wait=wait, timeout=timeout)

    def install_schedule(self, schedule) -> None:
        self.sim.install_schedule(schedule)

    def preload(self, keys: Sequence[str], timeout: float = 10.0) -> None:
        """Provision register instances for ``keys`` and wait until ready.

        Touching a key lazily works too, but the first touch pays the
        instance's initialization logs inside the request path;
        benchmarks and latency-sensitive callers provision the key
        universe up front instead.
        """
        for key in keys:
            self.sim.ensure_register(key)
        # The readiness predicate touches every node, so amortize it
        # over a stride of kernel events: the workload's measured
        # window opens after preload returns, so a few events of
        # overshoot are invisible.
        ok = self.sim.run_until(
            lambda: all(node.crashed or node.ready for node in self.nodes),
            timeout=timeout,
            poll_every=PRELOAD_POLL_STRIDE,
        )
        if not ok:
            raise ReproError("preloaded registers did not become ready")

    # -- operations --------------------------------------------------------

    def shard_of(self, key: str) -> int:
        return self.shard_map.shard_of(key)

    def write(
        self, key: str, value: Any, pid: Optional[ProcessId] = None
    ) -> KVOperation:
        """Submit a write of ``key``; returns a handle immediately."""
        return self._submit("write", key, value, pid)

    def read(self, key: str, pid: Optional[ProcessId] = None) -> KVOperation:
        """Submit a read of ``key``; returns a handle immediately."""
        return self._submit("read", key, None, pid)

    def _submit(
        self, kind: str, key: str, value: Any, pid: Optional[ProcessId]
    ) -> KVOperation:
        if not isinstance(key, str) or not key:
            raise ConfigurationError("keys must be non-empty strings")
        if pid is None:
            pid = self._next_pid
            self._next_pid = (self._next_pid + 1) % self.config.num_processes
        elif not 0 <= pid < self.config.num_processes:
            raise ConfigurationError(f"pid {pid} out of range")
        self.sim.ensure_register(key)
        shard = self.shard_map.shard_of(key)
        op = KVOperation(key, kind, value, pid, shard)
        op.submitted_at = self.kernel.now
        pipeline = self._pipelines.get((pid, shard))
        if pipeline is None:
            pipeline = _ShardPipeline(self, pid, shard)
            self._pipelines[(pid, shard)] = pipeline
        pipeline.submit(op)
        return op

    def wait(
        self, handle: KVOperation, timeout: float = DEFAULT_OP_TIMEOUT
    ) -> KVOperation:
        """Advance virtual time until ``handle`` settles."""
        ok = self.sim.run_until(lambda: handle.settled, timeout=timeout)
        if not ok:
            raise ReproError(
                f"operation on {handle.key!r} did not settle within {timeout}s"
            )
        return handle

    def wait_all(
        self, handles: Sequence[KVOperation], timeout: float = DEFAULT_OP_TIMEOUT
    ) -> List[KVOperation]:
        """Advance virtual time until every handle settles."""
        ok = self.sim.run_until(
            lambda: all(handle.settled for handle in handles), timeout=timeout
        )
        if not ok:
            unsettled = [h.key for h in handles if not h.settled]
            raise ReproError(f"operations did not settle: {unsettled}")
        return list(handles)

    def write_sync(
        self,
        key: str,
        value: Any,
        pid: Optional[ProcessId] = None,
        timeout: float = DEFAULT_OP_TIMEOUT,
    ) -> KVOperation:
        """Write and run the simulation until the write returns."""
        handle = self.wait(self.write(key, value, pid=pid), timeout=timeout)
        if handle.aborted:
            raise OperationAborted(f"write of {key!r} aborted by a crash")
        return handle

    def read_sync(
        self,
        key: str,
        pid: Optional[ProcessId] = None,
        timeout: float = DEFAULT_OP_TIMEOUT,
    ) -> Any:
        """Read and run the simulation until the value is returned."""
        handle = self.wait(self.read(key, pid=pid), timeout=timeout)
        if handle.aborted:
            raise OperationAborted(f"read of {key!r} aborted by a crash")
        return handle.result

    # -- verification ------------------------------------------------------

    def per_key_histories(self) -> Dict[str, History]:
        """The recorded history, projected onto each touched key."""
        partitions = self.sim.per_register_histories()
        return {
            key: history
            for key, history in partitions.items()
            if key is not None
        }

    def check_atomicity(
        self, criterion: Optional[str] = None, initial_value: Any = None
    ) -> KVAtomicityReport:
        """Check every key's projected history against the criterion.

        Projections of up to :data:`EXHAUSTIVE_CHECK_LIMIT` operations
        go through the exhaustive black-box checker; larger ones use
        the scalable white-box tag checker
        (:mod:`repro.history.register_checker`).
        """
        if criterion is None:
            criterion = (
                "transient" if self.protocol_name == "transient" else "persistent"
            )
        report = KVAtomicityReport(criterion)
        for key, history in sorted(self.per_key_histories().items()):
            operations = history.operations()
            if not operations:
                continue
            if projection_check_method(len(operations)) == "blackbox":
                verdict = check_history(
                    history, criterion=criterion, initial_value=initial_value
                )
                report.record(key, verdict.ok, "black-box", verdict.reason)
            else:
                result = check_tagged_history(
                    history,
                    self.sim.recorder,
                    criterion=criterion,
                    initial_value=initial_value,
                )
                report.record(
                    key, result.ok, "white-box", "; ".join(result.violations)
                )
        return report
