"""Fast-read ablation bench (extension; ours).

Quantifies the optimization docs/protocols.md lists as an extension:
quiescent reads drop from 4 communication steps to 2 when the query
quorum unanimously reports a durable tag, with writes and contended
reads unchanged and atomicity preserved.
"""

import pytest

from repro.api import open_cluster
from repro.obs.summary import LatencyStats


def _read_latency(protocol: str, repeats: int = 30) -> LatencyStats:
    cluster = open_cluster("sim", protocol=protocol, num_processes=5).start()
    cluster.session(0).write_sync(b"seed")
    reader = cluster.session(1)
    samples = []
    for _ in range(repeats):
        handle = cluster.wait(reader.read())
        samples.append(handle.latency)
    return LatencyStats.from_samples(samples)


@pytest.mark.parametrize("protocol", ["persistent", "persistent-fastread"])
def test_quiescent_read_latency(protocol):
    _read_latency(protocol)


def test_speedup_table(write_result):
    results = {
        protocol: _read_latency(protocol)
        for protocol in ("persistent", "persistent-fastread")
    }
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
