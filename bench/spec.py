"""What the benchmark measures: workloads, metrics, layers.  Pure data.

Nothing here imports :mod:`repro`; the round driver, the orchestrator,
``--compare`` and the tests all read the same tables, and
``BENCHMARK.json`` at the repository root is checked against them by
``bench/tests``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

SCHEMA = "repro-perfbench/1"

#: Seed used when none is given on the command line.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload; ``ops`` is per round and frozen.

    A run is a sequence of *rounds*, each a fresh subprocess executing
    exactly ``ops`` operations on a fresh cluster, so every simulated
    round is deterministic per seed whatever the host speed; the host
    speed only decides how many rounds fit in the run's time budget.
    """

    name: str
    why: str
    backend: str
    num_processes: int
    clients: int
    read_fraction: float
    ops: int
    smoke_ops: int
    #: Forwarded to ``open_cluster`` verbatim.
    options: Dict[str, Any] = field(default_factory=dict)
    #: Key universe (0 = the anonymous register) and its zipf exponent.
    keys: int = 0
    zipf_s: float = 0.0
    #: Operations run and discarded before the timed window (live).
    warmup: int = 0
    #: Virtual seconds between crashes / a crashed process's downtime.
    fault_interval: float = 0.0
    fault_downtime: float = 0.0
    #: Operations per calibration chunk: the host's speed is probed at
    #: every chunk boundary (``bench.driver.Calibration``).
    chunk: int = 500
    #: Which probe scores the host's speed for this workload's timings
    #: (``bench.driver.HostProbe``): "spin" is interpreter work, the
    #: simulator's diet; "spin+stores" adds fsynced stores, the runtime's.
    probe: str = "spin"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim-mixed",
            why=(
                "soak-100k shape, 5 procs x 5 clients, 50% reads, no faults: "
                "kernel + network + node host + protocol do the work, "
                "runtime does none"
            ),
            backend="sim",
            num_processes=5,
            clients=5,
            read_fraction=0.5,
            ops=6_000,
            smoke_ops=300,
            options={"capture_trace": False},
        ),
        Workload(
            name="sim-write-churn",
            why=(
                "90% writes with checkpoints every 1.5 ms and a rotating "
                "crash/restart every 8 ms: stores, compaction and recovery "
                "that the fault-free read path never pays for"
            ),
            backend="sim",
            num_processes=5,
            clients=5,
            read_fraction=0.1,
            ops=6_000,
            smoke_ops=300,
            options={"capture_trace": False, "checkpoint_interval": 1.5e-3},
            fault_interval=8e-3,
            fault_downtime=3e-3,
        ),
        Workload(
            name="kv-zipf-read",
            why=(
                "sharded KV store, 16 clients, 128 zipf keys, 85% reads: "
                "shard pipelines, MuxBatch framing, Message.size chain and "
                "per-key checking that sim-mixed never touches"
            ),
            backend="kv",
            num_processes=5,
            clients=16,
            read_fraction=0.85,
            ops=5_000,
            smoke_ops=320,
            options={
                "capture_trace": False,
                "num_shards": 8,
                "batch_window": 2e-5,
            },
            keys=128,
            zipf_s=0.99,
        ),
        Workload(
            name="live-loopback",
            why=(
                "3 nodes on localhost UDP with fsynced files, one sync "
                "client: the only workload where asyncio, UdpTransport and "
                "FileStableStorage run and the simulator does nothing"
            ),
            backend="live",
            num_processes=3,
            clients=1,
            read_fraction=0.5,
            ops=1_000,
            smoke_ops=120,
            warmup=150,
            chunk=50,
            probe="spin+stores",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric and the bound by which it may worsen."""

    name: str
    unit: str
    better: str
    #: Share of the reference value (or, with ``absolute``, the plain
    #: difference) by which the metric may get worse.
    bound: float
    absolute: bool = False
    #: Workloads the metric exists on (``None`` = all).  A metric that
    #: does not apply is omitted from a result, not reported as zero.
    workloads: Optional[Tuple[str, ...]] = None
    #: Listed under ``end_to_end`` in ``BENCHMARK.json``: defined on
    #: every workload and never zero, as the driver's contract needs.
    gated: bool = False
    #: Exact per seed on simulated workloads (no host time in it).
    deterministic: bool = False


_SIMULATED = ("sim-mixed", "sim-write-churn", "kv-zipf-read")

METRICS: Tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher", 0.20, gated=True),
    Metric("wall_write_p50_us", "us", "lower", 0.20, gated=True),
    Metric("wall_read_p50_us", "us", "lower", 0.20, gated=True),
    Metric("peak_rss_mb", "MB", "lower", 0.05, gated=True),
    Metric("setup_s", "s", "lower", 0.25, gated=True),
    # Reported and compared, but not gated: on this shared box the tail
    # is the host's stalls, not the program.  Ten-run spreads of one
    # commit reached 21 % (p95) and 34 % (p99) on live-loopback, and the
    # p99 median moved 22 % between two sets of runs on sim-mixed.
    Metric("wall_op_p95_us", "us", "lower", 0.25),
    Metric("wall_op_p99_us", "us", "lower", 0.25),
    Metric("sim_write_p50_us", "virt_us", "lower", 0.005,
           workloads=_SIMULATED, deterministic=True),
    Metric("sim_write_p99_us", "virt_us", "lower", 0.005,
           workloads=_SIMULATED, deterministic=True),
    Metric("sim_read_p50_us", "virt_us", "lower", 0.005,
           workloads=_SIMULATED, deterministic=True),
    Metric("sim_read_p99_us", "virt_us", "lower", 0.005,
           workloads=_SIMULATED, deterministic=True),
    Metric("recovery_mean_ms", "virt_ms", "lower", 0.005,
           workloads=("sim-write-churn",), deterministic=True),
    Metric("failed_ops_frac", "ratio", "lower", 0.0, absolute=True,
           deterministic=True),
)


#: layer -> module prefixes (longest matching prefix wins).  A module
#: under ``repro.`` that matches none lands in ``unattributed``, so a
#: refactor that adds a module shows up instead of being dropped.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "api": ("repro.api", "repro.cluster"),
    "kv": ("repro.kv",),
    "sim.kernel": ("repro.sim.kernel",),
    "sim.network": ("repro.sim.network", "repro.net"),
    "sim.node": ("repro.sim.node",),
    "sim.storage": ("repro.sim.storage", "repro.storage.model"),
    "sim.failures": ("repro.sim.failures",),
    "storage.checkpoint": ("repro.storage.checkpoint",),
    "protocol": ("repro.protocol",),
    "protocol.messages": ("repro.protocol.messages",),
    "common": ("repro.common",),
    "history.recorder": (
        "repro.history.recorder",
        "repro.history.history",
        "repro.history.events",
    ),
    "history.causal_logs": ("repro.history.causal_logs",),
    "history.checker": (
        "repro.history.checker",
        "repro.history.register_checker",
        "repro.history.regular_checker",
        "repro.history.partition",
        "repro.history.completion",
    ),
    "obs": ("repro.obs", "repro.sim.tracing"),
    "runtime.node": ("repro.runtime.node",),
    "runtime.transport": ("repro.runtime.transport",),
    "runtime.storage": ("repro.runtime.storage",),
    "runtime.cluster": ("repro.runtime.cluster",),
    "driver": ("bench",),
}

#: Rows of the per-layer table, in report order.  ``host`` is stdlib
#: Python code (asyncio, selectors, random, threading, ...).
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + ("host", "unattributed")

#: Per-layer counts read from ``stats()`` / ``metrics()`` / handles in
#: the untraced round; zero where the backend has no such counter.
COUNT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.kernel.events_per_op", "count"),
    ("sim.network.msgs_per_op", "count"),
    ("sim.network.bytes_per_op", "B"),
    ("sim.network.dropped_per_op", "count"),
    ("sim.storage.stores_per_op", "count"),
    ("sim.storage.bytes_logged_per_op", "B"),
    ("sim.storage.footprint_bytes", "B"),
    ("sim.node.crashes", "count"),
    ("sim.node.recoveries", "count"),
    ("protocol.causal_logs_per_write", "count"),
    ("protocol.causal_logs_per_read", "count"),
    ("obs.ring_records_per_op", "count"),
    ("history.checker.wall_s", "s"),
    ("history.checker.ops_per_s", "1/s"),
    ("kv.completed", "count"),
    ("kv.aborted", "count"),
    ("runtime.transport.datagrams_per_op", "count"),
    ("runtime.storage.stores_per_op", "count"),
    ("runtime.task_errors", "count"),
    ("host.cpu_us_per_op", "us"),
    ("host.speed", "ratio"),
    ("host.raw_ops_per_s", "1/s"),
)

#: Per-layer figures of the traced rounds, one triple per layer.
TRACE_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("calls_per_op", "count"),
    ("self_share", "ratio"),
    ("self_us_per_op", "us"),
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, as ``--trace 1`` prints them.

    The end-to-end metrics that are not defined on every workload (or
    can be zero) ride along here, zero where they do not apply, because
    the driver's ``end_to_end`` list must be uniform across workloads.
    """
    units = {m.name: m.unit for m in METRICS if not m.gated}
    units.update(COUNT_METRICS)
    for layer in LAYER_NAMES:
        for suffix, unit in TRACE_SUFFIXES:
            units[f"{layer}.{suffix}"] = unit
    units["trace_overhead_pct"] = "%"
    return units
