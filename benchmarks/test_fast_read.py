"""Fast-read ablation bench (extension; ours).

Quantifies the optimization DESIGN.md lists as an extension: quiescent
reads drop from 4 communication steps to 2 when the query quorum
unanimously reports a durable tag, with writes and contended reads
unchanged and atomicity preserved.
"""

import pytest

from repro.cluster import SimCluster
from repro.obs.summary import LatencyStats


def _read_latency(protocol: str, repeats: int = 30) -> LatencyStats:
    cluster = SimCluster(protocol=protocol, num_processes=5, capture_trace=False)
    cluster.start()
    cluster.write_sync(0, b"seed")
    samples = []
    for _ in range(repeats):
        handle = cluster.wait(cluster.read(1))
        samples.append(handle.latency)
    return LatencyStats.from_samples(samples)


@pytest.mark.parametrize("protocol", ["persistent", "persistent-fastread"])
def test_quiescent_read_latency(benchmark, protocol):
    stats = benchmark(_read_latency, protocol)
    benchmark.extra_info["read_us"] = round(stats.mean_us, 1)


def test_speedup_table(benchmark, write_result):
    def run():
        return {
            protocol: _read_latency(protocol)
            for protocol in ("persistent", "persistent-fastread")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results["persistent"].mean_us
    fast = results["persistent-fastread"].mean_us
    write_result(
        "fast_read",
        "Quiescent read latency (N = 5, crash-free):\n"
        f"  persistent            {base:8.1f} us  (4 communication steps)\n"
        f"  persistent-fastread   {fast:8.1f} us  (2 communication steps)\n"
        f"  speedup               {base / fast:8.2f}x",
    )
    assert fast == pytest.approx(base / 2, rel=0.15)
