"""The sharded key-value store: routing, shard pipelines, handles.

The store is the simulator backend plus this module: the ``"kv"``
backend of :mod:`repro.api` (``open_cluster(backend="kv")``,
:class:`~repro.api.kv.KVBackend`) is the simulator backend with a
:class:`ShardRouter` over it.  Together they turn the single-register
emulation into a store:

* **key -> register**: every key is one virtual register instance,
  provisioned on all replicas on first touch and addressed by
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
  (:func:`projection_check_method`: exhaustive black-box search on
  small projections, the scalable white-box tag checker on large ones).

The store inherits the model's failure semantics wholesale: replicas
crash and recover, operations in flight at a crashed coordinator abort
(their invocations stay pending in the per-key history), and queued
operations wait for the replica to come back.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.api.types import OpHandle
from repro.common.errors import ConfigurationError, NotRecoveredError, ProtocolError
from repro.common.ids import ProcessId
from repro.history.checker import MAX_OPERATIONS
from repro.kv.sharding import ShardMap
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
    tag checker beyond.
    """
    if num_operations <= min(EXHAUSTIVE_CHECK_LIMIT, MAX_OPERATIONS):
        return "blackbox"
    return "whitebox"


class KVOperation(OpHandle):
    """Client-side handle of one key-value operation.

    Settles (``done`` or ``aborted``) as the simulation advances.  The
    handle exists from submission; ``invoked_at`` is set once the shard
    pipeline actually issues the operation on the replica, so
    ``latency`` includes queueing and batching delay -- the client-side
    truth a service would measure.  ``shard`` is the pipeline the key
    was routed to.
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
    )

    def __init__(
        self, key: str, kind: str, value: Any, pid: ProcessId, shard: int,
        submitted_at: float,
    ):
        self.key = key
        self.kind = kind
        self.value = value
        self.pid = pid
        self.shard = shard
        self.done = False
        self.aborted = False
        self.result: Any = None
        self.submitted_at = submitted_at
        self.invoked_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._callbacks: List[Callable[[OpHandle], None]] = []

    @property
    def settled(self) -> bool:
        return self.done or self.aborted

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion duration in virtual time."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def add_callback(self, callback: Callable[[OpHandle], None]) -> None:
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


class _ShardPipeline:
    """Single-threaded executor of one (process, shard) pair."""

    __slots__ = ("router", "pid", "shard", "queue", "inflight", "armed")

    def __init__(self, router: "ShardRouter", pid: ProcessId, shard: int):
        self.router = router
        self.pid = pid
        self.shard = shard
        self.queue: List[KVOperation] = []
        self.inflight = 0
        #: Whether a drain (or retry) event is already scheduled.
        self.armed = False

    def submit(self, op: KVOperation) -> None:
        self.queue.append(op)
        self._arm(self.router.batch_window)

    def _arm(self, delay: float) -> None:
        if self.armed or self.inflight or not self.queue:
            return
        self.armed = True
        self.router.kernel.schedule(delay, self._drain)

    def _drain(self) -> None:
        self.armed = False
        if self.inflight or not self.queue:
            return
        node = self.router.cluster.nodes[self.pid]
        if node.crashed or not node.ready:
            self._arm(PIPELINE_RETRY_INTERVAL)
            return
        # A zero window cannot gather anything: the pipeline runs one
        # operation at a time.  A positive window drains everything
        # that queued while it was open, at most one op per key.
        max_ops = None if self.router.batch_window > 0 else 1
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
            op.invoked_at = self.router.kernel.now
            issued += 1
            handle.add_callback(lambda h, kv_op=op: self._on_settled(kv_op, h))
        self.inflight += issued
        if issued == 0 and self.queue:
            self._arm(PIPELINE_RETRY_INTERVAL)

    def _on_settled(self, op: KVOperation, handle: NodeOperation) -> None:
        self.inflight -= 1
        op._settle_from(handle, self.router.kernel.now)
        if op.aborted:
            self.router.aborted += 1
        else:
            self.router.completed += 1
        # Start the next batch from a fresh kernel event, not inside
        # the settling call stack (which may be a crash handler).
        self._arm(0.0)


class ShardRouter:
    """Routes each operation to its (process, shard) pipeline.

    Owns the pipeline table of one store and the per-op submit path:
    key validation, round-robin coordinator choice, first-touch
    provisioning of the key's register instance, shard lookup.
    """

    def __init__(self, cluster, shard_map: ShardMap, batch_window: float):
        #: The :class:`~repro.api.kv.KVBackend` this router serves.
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.shard_map = shard_map
        self.batch_window = batch_window
        self._num_processes = cluster.num_processes
        self._pipelines: Dict[Tuple[ProcessId, int], _ShardPipeline] = {}
        self._next_pid = 0
        #: Operations that finished successfully / aborted so far.
        self.completed = 0
        self.aborted = 0

    def submit(
        self, kind: str, key: str, value: Any, pid: Optional[ProcessId]
    ) -> KVOperation:
        """Queue one operation on its pipeline; returns its handle."""
        if not isinstance(key, str) or not key:
            raise ConfigurationError("keys must be non-empty strings")
        if pid is None:
            pid = self._next_pid
            self._next_pid = (self._next_pid + 1) % self._num_processes
        elif not 0 <= pid < self._num_processes:
            raise ConfigurationError(f"pid {pid} out of range")
        self.cluster._provision(key)
        shard = self.shard_map.shard_of(key)
        op = KVOperation(key, kind, value, pid, shard, self.kernel.now)
        pipeline = self._pipelines.get((pid, shard))
        if pipeline is None:
            pipeline = _ShardPipeline(self, pid, shard)
            self._pipelines[(pid, shard)] = pipeline
        pipeline.submit(op)
        return op
