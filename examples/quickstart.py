"""Quickstart: emulate a robust shared register over five processes.

Runs the paper's log-optimal persistent atomic emulation (Figure 4) on
the deterministic simulator, exercises writes, reads, a crash and a
recovery, and verifies the recorded history with the atomicity checker.

Usage::

    python examples/quickstart.py
"""

from repro import SimCluster, as_cluster


def main() -> None:
    # Five simulated workstations, calibrated like the paper's LAN:
    # ~0.1 ms message delay, ~0.2 ms synchronous disk log.
    cluster = SimCluster(protocol="persistent", num_processes=5)
    cluster.start()

    # Any process can write; any process can read (multi-writer/
    # multi-reader atomic register).
    write = cluster.write_sync(pid=0, value="hello, shared memory")
    print(f"write completed in {write.latency * 1e6:.0f} us "
          f"using {write.causal_logs} causal logs")

    value = cluster.read_sync(pid=3)
    print(f"process 3 read: {value!r}")

    # Crash the writer -- its volatile state is gone -- then recover it.
    # Stable storage brings the register's value back.
    cluster.crash(0)
    cluster.recover(0, wait=True)
    print(f"process 0 read after crash+recovery: {cluster.read_sync(0)!r}")

    # Even if EVERY process crashes simultaneously, the value survives,
    # as long as a majority eventually recovers (Section I-D).
    for pid in range(5):
        cluster.crash(pid)
    for pid in (0, 1, 2):
        cluster.recover(pid)
    cluster.run_until(lambda: all(cluster.node(p).ready for p in (0, 1, 2)))
    print(f"after total crash, majority recovered: {cluster.read_sync(1)!r}")

    # The recorded history is checked against the formal criterion.
    # Small histories like this one get the exhaustive black-box
    # search; past its cap, method="auto" switches to the near-linear
    # white-box tag checker (see docs/checking.md), so the same call
    # scales to soak-sized runs.
    verdict = cluster.check_atomicity()
    print(f"persistent atomicity: {verdict.ok} "
          f"({verdict.operations} operations checked)")

    stats = as_cluster(cluster).stats()
    print(f"total messages: {stats.messages_sent}, "
          f"stable-storage logs: {stats.stores_completed}")


if __name__ == "__main__":
    main()
