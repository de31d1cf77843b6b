"""The sharded key-value store: routing and shard pipelines.

The store is the simulator backend plus this module: the ``"kv"``
backend of :mod:`repro.api` (``open_cluster(backend="kv")``,
:class:`~repro.api.kv.KVBackend`) is the simulator backend with a
:class:`ShardRouter` over it.  Together they turn the single-register
emulation into a store:

* **key -> register**: every key is one virtual register instance,
  provisioned on all replicas on first touch and addressed by
  register-id-namespaced messages;
* **key -> shard**: a :class:`~repro.kv.sharding.HashShardMap` assigns
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

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.errors import NotRecoveredError, ProtocolError
from repro.common.ids import ProcessId
from repro.history.checker import MAX_OPERATIONS
from repro.kv.sharding import HashShardMap
from repro.protocol.host import OpHandle

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


class _ShardPipeline:
    """Single-threaded executor of one (process, shard) pair."""

    __slots__ = ("router", "pid", "shard", "queue", "inflight", "armed")

    def __init__(self, router: "ShardRouter", pid: ProcessId, shard: int):
        self.router = router
        self.pid = pid
        self.shard = shard
        self.queue: List[OpHandle] = []
        self.inflight = 0
        #: Whether a drain (or retry) event is already scheduled.
        self.armed = False

    def submit(self, handle: OpHandle) -> None:
        self.queue.append(handle)
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
        taken: List[OpHandle] = []
        taken_keys: Set[str] = set()
        remaining: List[OpHandle] = []
        for handle in self.queue:
            if max_ops is not None and len(taken) >= max_ops:
                remaining.append(handle)
                continue
            if handle.key in taken_keys or not node.register_ready(handle.key):
                remaining.append(handle)
                continue
            if node.register_busy(handle.key):
                remaining.append(handle)
                continue
            taken.append(handle)
            taken_keys.add(handle.key)
        self.queue = remaining
        issued = 0
        for handle in taken:
            try:
                if handle.kind == "write":
                    node.invoke_write(handle.value, handle.key, handle)
                else:
                    node.invoke_read(handle.key, handle)
            except (ProtocolError, NotRecoveredError):
                # Lost a race with protocol-internal activity (e.g. a
                # recovery replay); requeue and retry shortly.
                self.queue.append(handle)
                continue
            issued += 1
            # Behind the client's callbacks (added at submission): what
            # they schedule runs before the pipeline's next drain.
            handle.add_callback(self._on_settled)
        self.inflight += issued
        if issued == 0 and self.queue:
            self._arm(PIPELINE_RETRY_INTERVAL)

    def _on_settled(self, handle: OpHandle) -> None:
        self.inflight -= 1
        if handle.aborted:
            self.router.aborted += 1
        else:
            self.router.completed += 1
        # Start the next batch from a fresh kernel event, not inside
        # the settling call stack (which may be a crash handler).
        self._arm(0.0)


class ShardRouter:
    """Routes each operation to its (process, shard) pipeline.

    Owns the pipeline table of one store and the per-op submit path:
    first-touch provisioning of the key's register instance (which
    checks the key), round-robin coordinator choice, shard lookup.
    """

    def __init__(self, cluster, shard_map: HashShardMap, batch_window: float):
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
    ) -> OpHandle:
        """Queue one operation on its pipeline; returns its handle.

        The handle exists from submission, and the pipeline passes it
        to the node when it issues the operation, so ``latency``
        includes queueing and batching delay -- the client-side truth
        a service would measure.  A pinned ``pid`` passed the cluster's
        one pid check when its session was made.
        """
        self.cluster._provision(key)
        if pid is None:
            pid = self._next_pid
            self._next_pid = (self._next_pid + 1) % self._num_processes
        shard = self.shard_map.shard_of(key)
        handle = OpHandle(kind, key, pid, value, self.kernel.now, shard)
        pipeline = self._pipelines.get((pid, shard))
        if pipeline is None:
            pipeline = _ShardPipeline(self, pid, shard)
            self._pipelines[(pid, shard)] = pipeline
        pipeline.submit(handle)
        return handle
