"""KV store benchmarks (ours): throughput scaling of the sharded layer.

Not a figure from the paper -- the acceptance bar of the KV subsystem,
measured in simulated time on a 16-client zipfian workload against the
sharded store, sweeping the **shard count** at a zero batch window
(pure pipeline parallelism) and the **batch window** at a fixed shard
count (same-shard operations issued within the window share one quorum
round-trip):

* simulated-time throughput must scale at least 2x going from 1 shard
  to 8 shards (pipeline parallelism actually exploited);
* a positive batch window must cut the datagram count (same-shard
  operations genuinely share quorum round-trips);
* every measured run's per-key histories must pass the atomicity
  checkers -- the store never buys throughput with consistency.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import pytest

from repro.kv.store import KVCluster
from repro.workloads.kv import KVWorkloadRunner, ZipfianKeys

#: Simulated-time throughput sweep defaults.
SHARD_SWEEP = (1, 2, 4, 8)
WINDOW_SWEEP = (0.0, 2e-5, 1e-4)
WINDOW_SWEEP_SHARDS = 2


@dataclass
class KVBenchRow:
    """One configuration's measured results."""

    shards: int
    batch_window: float
    clients: int
    completed: int
    aborted: int
    throughput: float
    mean_latency: float
    messages_sent: int
    atomic: bool

    @property
    def window_us(self) -> float:
        return self.batch_window * 1e6

    @property
    def latency_us(self) -> float:
        return self.mean_latency * 1e6


def run_kv_config(
    shards: int,
    batch_window: float = 0.0,
    protocol: str = "persistent",
    num_processes: int = 5,
    num_clients: int = 16,
    operations_per_client: int = 30,
    read_fraction: float = 0.85,
    num_keys: int = 64,
    zipf_s: float = 0.99,
    seed: Optional[int] = None,
    check: bool = True,
) -> KVBenchRow:
    """Run one (shards, window) configuration and measure it.

    ``seed`` defaults to the sweep's curated 7.
    """
    seed = 7 if seed is None else seed
    kv = KVCluster(
        protocol=protocol,
        num_processes=num_processes,
        num_shards=shards,
        batch_window=batch_window,
        seed=seed,
    )
    kv.start()
    keys = ZipfianKeys(num_keys=num_keys, s=zipf_s, seed=seed + 4)
    runner = KVWorkloadRunner(
        kv,
        num_clients=num_clients,
        operations_per_client=operations_per_client,
        read_fraction=read_fraction,
        keys=keys,
        seed=seed + 4,
    )
    report = runner.run(timeout=300.0)
    atomic = kv.check_atomicity().ok if check else True
    return KVBenchRow(
        shards=shards,
        batch_window=batch_window,
        clients=num_clients,
        completed=report.completed,
        aborted=report.aborted,
        throughput=report.throughput,
        mean_latency=report.mean_latency,
        messages_sent=kv.network.messages_sent,
        atomic=atomic,
    )


def format_kv_bench(rows: Sequence[KVBenchRow]) -> str:
    """Render the sweep as the table the results file records."""
    header = (
        f"{'shards':>6}  {'window':>9}  {'clients':>7}  {'ops':>6}  "
        f"{'throughput':>12}  {'mean lat':>10}  {'messages':>9}  {'atomic':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.shards:>6}  {row.window_us:>7.0f}us  {row.clients:>7}  "
            f"{row.completed:>6}  {row.throughput:>8,.0f} o/s  "
            f"{row.latency_us:>8,.0f}us  {row.messages_sent:>9}  "
            f"{'yes' if row.atomic else 'NO':>6}"
        )
    baseline = next((r for r in rows if r.shards == 1 and r.batch_window == 0.0), None)
    best = max(rows, key=lambda r: r.throughput)
    if baseline is not None and baseline.throughput > 0:
        lines.append(
            f"\nbest configuration: {best.shards} shards, "
            f"{best.window_us:.0f}us window -> "
            f"{best.throughput / baseline.throughput:.2f}x the 1-shard serial baseline"
        )
    return "\n".join(lines)


@pytest.fixture(scope="module")
def shard_rows():
    return [run_kv_config(shards, batch_window=0.0) for shards in SHARD_SWEEP]


@pytest.fixture(scope="module")
def window_rows():
    return [
        run_kv_config(WINDOW_SWEEP_SHARDS, batch_window=window)
        for window in WINDOW_SWEEP
    ]


def test_throughput_scales_2x_from_1_to_8_shards(shard_rows, write_result):
    by_shards = {row.shards: row for row in shard_rows}
    baseline, scaled = by_shards[1], by_shards[8]
    assert baseline.completed == scaled.completed == 16 * 30
    speedup = scaled.throughput / baseline.throughput
    write_result(
        "kv_shard_scaling",
        format_kv_bench(shard_rows)
        + f"\n\n1 -> 8 shard speedup: {speedup:.2f}x (required: >= 2.0x)",
    )
    assert speedup >= 2.0, (
        f"1->8 shard speedup {speedup:.2f}x below the 2x acceptance bar "
        f"({baseline.throughput:,.0f} -> {scaled.throughput:,.0f} ops/s)"
    )


def test_throughput_increases_monotonically_enough(shard_rows):
    """Each doubling of shards may plateau but must never regress by
    more than measurement noise."""
    ordered = sorted(shard_rows, key=lambda row: row.shards)
    for smaller, larger in zip(ordered, ordered[1:]):
        assert larger.throughput > smaller.throughput * 0.9


def test_every_swept_run_is_per_key_atomic(shard_rows, window_rows):
    for row in [*shard_rows, *window_rows]:
        assert row.atomic, (
            f"shards={row.shards} window={row.window_us:.0f}us produced a "
            f"non-atomic per-key history"
        )


def test_batching_cuts_datagrams_and_helps_throughput(window_rows, write_result):
    by_window = {row.batch_window: row for row in window_rows}
    unbatched = by_window[0.0]
    batched = max(
        (row for row in window_rows if row.batch_window > 0),
        key=lambda row: row.throughput,
    )
    write_result("kv_batch_window", format_kv_bench(window_rows))
    assert batched.messages_sent < unbatched.messages_sent * 0.8
    assert batched.throughput > unbatched.throughput
