"""The KV layer's key-to-shard map.

A shard is the store's unit of concurrency and batching: each process
runs one single-threaded pipeline per shard, so two operations on the
same shard at the same process serialize (and may share a quorum
round-trip), while operations on different shards proceed in parallel.
The shard map decides which keys contend with which.

It uses a content hash (not Python's salted ``hash``) so a key's
shard is stable across processes and runs -- determinism the simulator
and the recorded histories depend on.
"""

from __future__ import annotations

import zlib

from repro.common.errors import ConfigurationError


class HashShardMap:
    """Stable modular hashing: ``crc32(key) % num_shards``."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, key: str) -> int:
        """Shard index of ``key``, in ``range(num_shards)``."""
        return zlib.crc32(key.encode("utf-8")) % self.num_shards
