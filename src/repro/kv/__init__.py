"""repro.kv -- a sharded key-value store over the register emulations.

The paper emulates one shared register; a store serves a keyspace.
This package closes that gap without touching the algorithms:

* every key is its own *virtual register instance*, multiplexed over
  the same simulated cluster (register-id-namespaced messages, scoped
  stable storage -- see :mod:`repro.protocol.host`);
* a :class:`~repro.kv.sharding.HashShardMap` assigns each key to a
  shard; each shard is a single-threaded pipeline per process, the
  unit of concurrency and batching;
* operations on the same shard issued within the configurable batch
  window coalesce into a single quorum round-trip (one datagram per
  destination carries every operation's protocol message);
* histories are partitioned per key so the paper's atomicity checkers
  verify every register independently -- the store is per-key
  linearizable (persistent/transient atomic, per the chosen protocol).

The store is opened through the façade (:mod:`repro.api`)::

    from repro import open_cluster

    with open_cluster(backend="kv", num_processes=5, num_shards=8) as kv:
        kv.session(0).write_sync({"name": "ada"}, key="user:42")
        assert kv.session(1).read_sync(key="user:42") == {"name": "ada"}
        kv.crash(0)
        kv.recover(0)
        assert kv.check().ok
"""

from repro.kv.sharding import HashShardMap

__all__ = ["HashShardMap"]
