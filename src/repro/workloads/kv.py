"""Closed-loop key-value workloads: zipfian keys, read/write mixes.

Production key traffic is skewed -- a few hot keys absorb most
operations.  :class:`ZipfianKeys` draws keys with the classic
``P(rank k) ~ 1 / k**s`` popularity law; ``s ~ 0.99`` is the YCSB
default.  :class:`KVWorkloadRunner` drives N closed-loop clients over
the sharded store (:class:`~repro.api.kv.KVBackend`): each client picks
a key and an operation kind, submits, waits for completion, and
immediately issues the next -- so the offered concurrency is exactly
the client count, and throughput is bounded by how much of that
concurrency the store's shard pipelines can actually exploit.

Clients are crash-aware: an operation aborted by its coordinator's
crash is counted and the client moves on (at-most-once semantics; the
per-key history keeps the aborted invocation pending, which the
atomicity checkers handle).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.common.errors import ConfigurationError
from repro.workloads.generators import UniqueValues

#: Default predicate-poll stride for the KV drain loop: the per-event
#: Python predicate call is amortized 16x, at the cost of at most 15
#: leftover pipeline events executing after the last client finishes.
DRAIN_POLL_STRIDE = 16


class ZipfianKeys:
    """Draws keys from a fixed universe with zipfian popularity.

    Rank 1 is the hottest key.  Key ranks are shuffled once (seeded)
    so the hot keys are not always the lexicographically first ones.
    """

    def __init__(
        self,
        num_keys: int = 64,
        s: float = 0.99,
        prefix: str = "key",
        seed: int = 0,
    ):
        if num_keys < 1:
            raise ConfigurationError("num_keys must be >= 1")
        if s < 0:
            raise ConfigurationError("zipf exponent must be >= 0")
        self.num_keys = num_keys
        self.s = s
        width = len(str(num_keys - 1))
        self.keys = [f"{prefix}-{i:0{width}d}" for i in range(num_keys)]
        random.Random(seed).shuffle(self.keys)
        weights = [1.0 / (rank ** s) for rank in range(1, num_keys + 1)]
        total = sum(weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0

    def draw(self, rng: random.Random) -> str:
        """One key, zipf-distributed by rank."""
        return self.keys[bisect.bisect_left(self._cumulative, rng.random())]


@dataclass
class KVWorkloadReport:
    """What happened when a KV workload ran."""

    completed: int = 0
    aborted: int = 0
    #: Operations never submitted (the run ended first).
    unissued: int = 0
    #: Virtual time the workload occupied, seconds.
    duration: float = 0.0
    #: Completed-operation latencies, seconds (submission to reply).
    latencies: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed operations per second of *simulated* time."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


class KVWorkloadRunner:
    """N closed-loop clients over the sharded store.

    ``kv`` is a façade cluster, normally the store
    (``open_cluster(backend="kv")``); each client issues through a
    :class:`~repro.api.base.Session` pinned to its replica.
    """

    def __init__(
        self,
        kv,
        num_clients: int = 16,
        operations_per_client: Union[int, Sequence[int]] = 20,
        read_fraction: float = 0.5,
        keys: Optional[ZipfianKeys] = None,
        seed: int = 0,
        pids: Optional[List[int]] = None,
        values: Optional[UniqueValues] = None,
    ):
        if num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        # A per-client sequence lets callers hit an exact total budget
        # (the scenario runner distributes a phase's share this way);
        # a plain int keeps the uniform classic behavior.
        if isinstance(operations_per_client, int):
            if operations_per_client < 1:
                raise ConfigurationError("operations_per_client must be >= 1")
            per_client = [operations_per_client] * num_clients
        else:
            per_client = list(operations_per_client)
            if len(per_client) != num_clients:
                raise ConfigurationError(
                    "operations_per_client sequence must have one entry "
                    "per client"
                )
            if any(count < 0 for count in per_client) or sum(per_client) < 1:
                raise ConfigurationError(
                    "per-client operation counts must be >= 0 and sum >= 1"
                )
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        self._kv = kv
        self._num_clients = num_clients
        self._read_fraction = read_fraction
        self._keys = keys if keys is not None else ZipfianKeys(seed=seed)
        self._rng = random.Random(seed)
        # ``values`` may be shared across runners (scenario phases) so
        # written values stay unique over the whole run.
        self._values = values if values is not None else UniqueValues()
        self._report = KVWorkloadReport()
        self._remaining = per_client
        self._active = 0
        # Replicas clients are pinned to; restricting this keeps a run
        # live when some replicas never recover (crash-stop scenarios).
        if pids is None:
            pids = list(range(self._kv.num_processes))
        elif not pids or any(
            not 0 <= pid < self._kv.num_processes for pid in pids
        ):
            raise ConfigurationError("pids must be a non-empty list of replica ids")
        self._pids = list(pids)
        self._sessions = {pid: self._kv.session(pid) for pid in self._pids}

    def run(
        self,
        timeout: float = 120.0,
        preload: bool = True,
        poll_every: int = DRAIN_POLL_STRIDE,
        max_events: int = 1_000_000,
    ) -> KVWorkloadReport:
        """Drive every client to completion (or until ``timeout``).

        With ``preload`` (the default) the key universe's register
        instances are provisioned and initialized before the measured
        window opens, so throughput reflects steady state rather than
        first-touch initialization logs.

        The drain predicate is amortized with ``poll_every`` (see
        :meth:`repro.common.kernel.Kernel.run_until`): after the last
        client settles, at most ``poll_every - 1`` leftover pipeline
        events execute before the run stops, a negligible tail on the
        measured duration.  Pass ``poll_every=1`` for replay-exact
        stops.
        """
        if preload:
            self._kv.preload(self._keys.keys, timeout=timeout)
        started_at = self._kv.now
        self._active = self._num_clients
        for client in range(self._num_clients):
            # Client affinity: client i talks to replica i mod N, like
            # a connection pinned to its nearest server.
            self._next_op(client, self._pids[client % len(self._pids)])
        self._kv.run_until(
            lambda: self._active == 0, timeout=timeout, poll_every=poll_every,
            max_events=max_events,
        )
        self._report.unissued = sum(self._remaining)
        self._report.duration = self._kv.now - started_at
        return self._report

    def _next_op(self, client: int, pid: int) -> None:
        if self._remaining[client] == 0:
            self._active -= 1
            return
        self._remaining[client] -= 1
        key = self._keys.draw(self._rng)
        session = self._sessions[pid]
        if self._rng.random() < self._read_fraction:
            handle = session.read(key)
        else:
            handle = session.write(self._values(pid), key)
        handle.add_callback(
            lambda h, client=client, pid=pid: self._on_settled(client, pid, h)
        )

    def _on_settled(self, client: int, pid: int, handle) -> None:
        if handle.done:
            self._report.completed += 1
            latency = handle.latency
            if latency is not None:
                self._report.latencies.append(latency)
        else:
            self._report.aborted += 1
        # Issue the next operation from a fresh kernel event rather
        # than inside the settling call stack.
        self._kv.defer(0.0, self._next_op, client, pid)


def run_kv_closed_loop(
    kv,
    num_clients: int = 16,
    operations_per_client: int = 20,
    read_fraction: float = 0.5,
    num_keys: int = 64,
    zipf_s: float = 0.99,
    seed: int = 0,
    timeout: float = 120.0,
    preload: bool = True,
) -> KVWorkloadReport:
    """Convenience wrapper: zipfian closed-loop mix on ``kv``."""
    keys = ZipfianKeys(num_keys=num_keys, s=zipf_s, seed=seed)
    runner = KVWorkloadRunner(
        kv,
        num_clients=num_clients,
        operations_per_client=operations_per_client,
        read_fraction=read_fraction,
        keys=keys,
        seed=seed,
    )
    return runner.run(timeout=timeout, preload=preload)
