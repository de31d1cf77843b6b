"""A replicated configuration store that rides out power failures.

The paper's motivation: distributed programming with shared memory is
easier than with message passing.  This example builds the kind of
application the abstraction is for -- a small cluster-wide
configuration store (feature flags, leader hints, rate limits) -- on
the real sharded store, ``open_cluster(backend="kv")``: every key is a
virtual register instance multiplexed over ONE five-replica cluster
(not a cluster per key), keys are sharded across per-process
pipelines, and same-shard updates batch into shared quorum
round-trips.  Then we abuse it with
the failures the crash-recovery model allows:

* rolling restarts (each replica crashes and recovers in turn),
* a correlated crash of every replica at once (power loss),
* an update issued while part of the cluster is down.

Because every register is persistent atomic, readers always see a
consistent, most-recent value -- no matter which replica they ask and
what crashed in between -- and the run's per-key histories prove it
via the paper's atomicity checkers.

Usage::

    python examples/crash_recovery_kv.py
"""

from repro import open_cluster

CONFIG_KEYS = (
    "feature.dark_mode",
    "limits.requests_per_second",
    "routing.primary_region",
)


def main() -> None:
    store = open_cluster(
        backend="kv",
        protocol="persistent",
        num_processes=5,
        num_shards=4,
        batch_window=2e-5,  # 20us of virtual time to coalesce round-trips
        seed=0,
    ).start()
    # One session per replica; ``session()`` without a pid lets the
    # store pick coordinators round-robin.
    replica = [store.session(pid) for pid in range(5)]
    anyone = store.session()

    print("== initial configuration ==")
    anyone.write_sync(True, "feature.dark_mode")
    anyone.write_sync(1000, "limits.requests_per_second")
    anyone.write_sync("eu-west", "routing.primary_region")
    for key in CONFIG_KEYS:
        print(f"  {key} = {replica[3].read_sync(key)!r}")

    print("== rolling restart: every replica crashes and recovers ==")
    for pid in range(5):
        store.crash(pid)
        store.recover(pid)
    print(
        f"  dark_mode read from restarted replica 4: "
        f"{replica[4].read_sync('feature.dark_mode')!r}"
    )

    print("== update during a partial outage (2 of 5 replicas down) ==")
    store.crash(3)
    store.crash(4)
    replica[1].write_sync(250, "limits.requests_per_second")
    print(
        f"  rps while degraded: "
        f"{replica[2].read_sync('limits.requests_per_second')!r}"
    )
    store.recover(3)
    store.recover(4)
    print(
        f"  rps from recovered replica 3: "
        f"{replica[3].read_sync('limits.requests_per_second')!r}"
    )

    print("== datacenter power loss: all replicas crash at once ==")
    for pid in range(5):
        store.crash(pid)
    # Recovery of a persistent replica replays its last write to a
    # majority, so after a total outage the replicas must be restarted
    # together before any can finish recovering.
    for pid in range(5):
        store.recover(pid, wait=False)
    store.run_until(
        lambda: all(node.ready for node in store.nodes), timeout=5.0
    )
    for key in CONFIG_KEYS:
        print(f"  {key} = {replica[0].read_sync(key)!r}")

    # Every key's projected history is verified independently: small
    # projections by the exhaustive black-box search, large ones by the
    # scalable white-box tag checker (see docs/checking.md).
    verdict = store.check()
    checkers = sorted({child.method for child in verdict.per_key.values()})
    print(f"== all {len(verdict.per_key)} per-key histories atomic: "
          f"{verdict.ok} (via {', '.join(checkers)}) ==")


if __name__ == "__main__":
    main()
