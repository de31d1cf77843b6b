"""Run the emulation over real UDP sockets and real fsync'd files.

The simulator is calibrated and deterministic; this example is the
opposite: the same protocol classes hosted over UDP on a caller-driven
selector loop, exchanging real datagrams on localhost and logging to a
real directory with ``fsync`` -- the Python analogue of the paper's
C/UDP testbed.  It reports the measured write latency split across the
three algorithms, which shows the same +1 log / +2 log hierarchy as
Figure 6 (the absolute numbers depend on your disk: on modern NVMe an
fsync costs tens of microseconds, not the 200 us of a 2003 IDE disk).

Usage::

    python examples/live_udp_cluster.py
"""

import statistics
import time

from repro import open_cluster

ALGORITHMS = ("crash-stop", "transient", "persistent")
WRITES = 30


def measure(protocol: str) -> float:
    with open_cluster(backend="live", protocol=protocol, num_processes=3) as cluster:
        writer = cluster.session(0)
        samples = []
        for i in range(WRITES):
            start = time.perf_counter()
            writer.write_sync(f"value-{i}")
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)


def main() -> None:
    print(f"{WRITES} writes per algorithm, 3 nodes on localhost UDP\n")
    results = {}
    for protocol in ALGORITHMS:
        results[protocol] = measure(protocol)
        print(f"  {protocol:<12s} median write latency: "
              f"{results[protocol] * 1e6:8.0f} us")
    print()
    base = results["crash-stop"]
    print("relative to the crash-stop baseline (paper: 1.0 / ~1.4 / ~1.8):")
    for protocol in ALGORITHMS:
        print(f"  {protocol:<12s} {results[protocol] / base:4.2f}x")

    print("\ncrash/recovery through the filesystem:")
    with open_cluster(backend="live", protocol="persistent", num_processes=3) as cluster:
        cluster.session(0).write_sync("survives-reboot")
        cluster.crash(0)
        cluster.recover(0)
        print(f"  read after recovery: {cluster.session(0).read_sync()!r}")


if __name__ == "__main__":
    main()
