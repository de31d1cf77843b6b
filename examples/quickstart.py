"""Quickstart: emulate a robust shared register over five processes.

Runs the paper's log-optimal persistent atomic emulation (Figure 4) on
the deterministic simulator, exercises writes, reads, a crash and a
recovery, and verifies the recorded history with the atomicity checker.

Usage::

    python examples/quickstart.py
"""

from repro import open_cluster


def main() -> None:
    # Five simulated workstations, calibrated like the paper's LAN:
    # ~0.1 ms message delay, ~0.2 ms synchronous disk log.
    cluster = open_cluster("sim", protocol="persistent", num_processes=5).start()
    sessions = [cluster.session(pid) for pid in range(5)]

    # Any process can write; any process can read (multi-writer/
    # multi-reader atomic register).
    write = sessions[0].write_sync("hello, shared memory")
    print(f"write completed in {write.latency * 1e6:.0f} us "
          f"using {write.causal_logs} causal logs")

    value = sessions[3].read_sync()
    print(f"process 3 read: {value!r}")

    # Crash the writer -- its volatile state is gone -- then recover it.
    # Stable storage brings the register's value back.
    cluster.crash(0)
    cluster.recover(0)
    print(f"process 0 read after crash+recovery: {sessions[0].read_sync()!r}")

    # Even if EVERY process crashes simultaneously, the value survives,
    # as long as a majority eventually recovers (Section I-D).
    for pid in range(5):
        cluster.crash(pid)
    for pid in (0, 1, 2):
        cluster.recover(pid, wait=False)
    cluster.run_until(lambda: all(sessions[p].ready for p in (0, 1, 2)))
    print(f"after total crash, majority recovered: {sessions[1].read_sync()!r}")

    # The recorded history is checked against the formal criterion.
    # Small histories like this one get the exhaustive black-box
    # search; past its cap, method="auto" switches to the near-linear
    # white-box tag checker (see docs/checking.md), so the same call
    # scales to soak-sized runs.
    verdict = cluster.check()
    print(f"persistent atomicity: {verdict.ok} "
          f"({verdict.operations} operations checked)")

    stats = cluster.stats()
    print(f"total messages: {stats.messages_sent}, "
          f"stable-storage logs: {stats.stores_completed}")


if __name__ == "__main__":
    main()
