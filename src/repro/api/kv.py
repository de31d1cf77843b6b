"""The ``"kv"`` backend: the sharded key-value store behind the façade.

The store is the simulator backend plus shard pipelines:
:class:`KVBackend` is a :class:`~repro.api.sim.SimBackend` (it
inherits the simulator and every verb over it -- clock, fault
injection, history, traces) that owns a
:class:`~repro.kv.store.ShardRouter`.  Adds ``sharding`` to the
simulator's capabilities: operations address keys, keys map to shard
pipelines, and verification is per key.  Two vocabulary bridges make
keyed and keyless Session programs portable:

* an operation without a ``key`` targets :data:`DEFAULT_KEY`, so the
  anonymous-register programs of the other backends run unmodified;
* a session without a pinned ``pid`` lets the store route operations
  round-robin over the replicas (the other backends require a pid).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.api.base import Session, check_key, check_one_register
from repro.api.sim import SimBackend
from repro.api.types import (
    CRASH_INJECTION,
    LINK_FAULTS,
    STORAGE_FAULTS,
    SHARDING,
    TRACE,
    VIRTUAL_TIME,
    OpHandle,
    Verdict,
)
from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError, ReproError
from repro.kv.sharding import HashShardMap
from repro.kv.store import ShardRouter, projection_check_method

#: Key an operation without an explicit ``key`` addresses -- the KV
#: backend's stand-in for the anonymous register of the other backends.
DEFAULT_KEY = "default"

#: Predicate-poll stride for the preload readiness barrier (see
#: :meth:`repro.common.kernel.Kernel.run_until`).
PRELOAD_POLL_STRIDE = 16


class KVSession(Session):
    """A session over the store; ``pid=None`` lets the store route."""

    def ready_for(self, key: Optional[str] = None) -> bool:
        # Shard pipelines queue client-side and retry across crashes,
        # so a session can always accept the next operation.
        if key is not None:
            check_key(key)
        return True

    def write(self, value: Any, key: Optional[str] = None) -> OpHandle:
        # Only None maps to the default key: an empty string must reach
        # the store's own validation, not silently alias "default".
        target = DEFAULT_KEY if key is None else key
        return self._observed(
            self.cluster.router.submit("write", target, value, self.pid)
        )

    def read(self, key: Optional[str] = None) -> OpHandle:
        target = DEFAULT_KEY if key is None else key
        return self._observed(
            self.cluster.router.submit("read", target, None, self.pid)
        )


class KVBackend(SimBackend):
    """The simulator backend plus the store's shard pipelines."""

    backend = "kv"
    capabilities = frozenset(
        {VIRTUAL_TIME, SHARDING, CRASH_INJECTION, TRACE, STORAGE_FAULTS, LINK_FAULTS}
    )
    session_class = KVSession

    def __init__(
        self,
        protocol: str = "persistent",
        num_processes: Optional[int] = None,
        num_shards: int = 8,
        batch_window: float = 0.0,
        config: Optional[ClusterConfig] = None,
        seed: Optional[int] = None,
        capture_trace: bool = False,
        checkpoint_interval: Optional[float] = None,
        recovery_scan: bool = False,
    ):
        if not batch_window >= 0:  # NaN too
            raise ConfigurationError("batch_window must be >= 0")
        shard_map = HashShardMap(num_shards)
        super().__init__(
            protocol,
            num_processes,
            seed,
            config=config,
            capture_trace=capture_trace,
            batch_window=batch_window,
            checkpoint_interval=checkpoint_interval,
            recovery_scan=recovery_scan,
        )
        self.router = ShardRouter(self, shard_map, batch_window)

    def session(self, pid: Optional[int] = None) -> KVSession:
        # No pid: the store routes each operation.
        return KVSession(self, pid) if pid is None else super().session(pid)

    # -- keys --------------------------------------------------------------

    def ensure_key(self, key: str, timeout: float = 10.0) -> None:
        self.preload([key], timeout=timeout)

    def preload(self, keys: Sequence[str], timeout: float = 10.0) -> None:
        """Provision register instances for ``keys`` and wait until ready.

        Touching a key lazily works too, but the first touch pays the
        instance's initialization logs inside the request path;
        benchmarks and latency-sensitive callers provision the key
        universe up front instead.
        """
        self._provision(*keys)
        # The readiness predicate touches every node, so amortize it
        # over a stride of kernel events: the workload's measured
        # window opens after preload returns, so a few events of
        # overshoot are invisible.
        nodes = self.nodes
        ok = self.kernel.run_until(
            lambda: all(node.crashed or node.ready for node in nodes),
            timeout=timeout,
            poll_every=PRELOAD_POLL_STRIDE,
        )
        if not ok:
            raise ReproError("preloaded registers did not become ready")

    # -- verification ------------------------------------------------------

    def check(self, criterion: str = "atomic", method: str = "auto") -> Verdict:
        """Per-key verification: every touched key's projection, merged.

        ``method="auto"`` (and the explicit ``"per-key"``) apply the
        store's own policy
        (:func:`~repro.kv.store.projection_check_method`): exhaustive
        black-box search on small projections, the white-box tag
        checker beyond; ``"blackbox"`` / ``"whitebox"`` force one
        checker for every key.
        """
        resolved = self._resolve_criterion(criterion)
        method = self._validate_method(method)
        histories = self.per_register_histories()
        histories.pop(None, None)  # the anonymous register is no key
        per_key: Dict[str, Verdict] = {}
        for key, history in sorted(histories.items()):
            operations = history.operations()
            if not operations:
                continue
            key_method = method
            if method in ("auto", "per-key"):
                key_method = projection_check_method(len(operations))
            per_key[key] = check_one_register(
                self, history, self.recorder, criterion, key_method
            )
        failures = {
            key: child.reason for key, child in per_key.items() if not child.ok
        }
        return Verdict(
            ok=not failures,
            criterion=criterion,
            consistency=resolved,
            method="per-key",
            operations=len(self.history.completed_operations()),
            reason="; ".join(
                f"{key}: {reason}" for key, reason in sorted(failures.items())
            ),
            per_key=per_key,
        )

    # -- observability -----------------------------------------------------

    def _register_metrics(self, registry) -> None:
        super()._register_metrics(registry)
        router = self.router
        registry.gauge("kv.shards", fn=lambda: router.shard_map.num_shards)
        registry.gauge("kv.completed", fn=lambda: router.completed)
        registry.gauge("kv.aborted", fn=lambda: router.aborted)
