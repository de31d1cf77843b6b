"""Zipfian key-value clients for the closed-loop runner.

Production key traffic is skewed -- a few hot keys absorb most
operations.  :class:`ZipfianKeys` draws keys with the classic
``P(rank k) ~ 1 / k**s`` popularity law; ``s ~ 0.99`` is the YCSB
default.  :func:`zipf_clients` builds N clients for
:class:`~repro.workloads.generators.WorkloadRunner` that each pick a
key and an operation kind as they issue, so over the sharded store
(:class:`~repro.api.kv.KVBackend`) the offered concurrency is exactly
the client count, and throughput is bounded by how much of that
concurrency the store's shard pipelines can actually exploit.

The runner's one client policy applies: an operation aborted by its
coordinator's crash is counted and the client moves on (at-most-once
semantics; the per-key history keeps the aborted invocation pending,
which the atomicity checkers handle).
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence

from repro.common.errors import ConfigurationError
from repro.workloads.generators import (
    Client,
    OperationMix,
    WorkloadReport,
    WorkloadRunner,
)

#: Predicate-poll stride for KV runs: the per-event Python predicate
#: call is amortized 16x, at the cost of at most 15 leftover pipeline
#: events executing after the last client finishes.
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


def zipf_clients(
    counts: Sequence[int],
    pids: Sequence[int],
    keys: ZipfianKeys,
    read_fraction: float = 0.5,
    seed: int = 0,
) -> List[Client]:
    """One client per entry of ``counts``, drawing from one seeded stream.

    Client ``i`` issues ``counts[i]`` operations through replica
    ``pids[i % len(pids)]``, like a connection pinned to its nearest
    server.  Each draw happens as the client issues: the key first,
    then the kind.
    """
    if not pids:
        raise ConfigurationError("zipf clients need at least one pid")
    mix = OperationMix(read_fraction)
    rng = random.Random(seed)

    def draw():
        key = keys.draw(rng)
        return mix.draw(rng), key

    return [
        Client(pids[i % len(pids)], count, draw)
        for i, count in enumerate(counts)
    ]


def run_kv_closed_loop(
    kv,
    num_clients: int = 16,
    operations_per_client: int = 20,
    read_fraction: float = 0.5,
    num_keys: int = 64,
    zipf_s: float = 0.99,
    seed: int = 0,
    timeout: float = 120.0,
) -> WorkloadReport:
    """Convenience wrapper: zipfian closed-loop mix on ``kv``.

    The key universe is preloaded before the run, so throughput
    reflects steady state rather than first-touch initialization logs.
    """
    keys = ZipfianKeys(num_keys=num_keys, s=zipf_s, seed=seed)
    kv.preload(keys.keys, timeout=timeout)
    clients = zipf_clients(
        [operations_per_client] * num_clients,
        range(kv.num_processes),
        keys,
        read_fraction=read_fraction,
        seed=seed,
    )
    return WorkloadRunner(kv, clients).run(
        timeout=timeout, poll_every=DRAIN_POLL_STRIDE
    )
