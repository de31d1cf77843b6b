"""Measured causal-log complexity vs. the paper's bounds (Section IV).

The paper's central claims, as a measurable table:

=============  ==============  =============
algorithm      causal logs per causal logs per
               write           read
=============  ==============  =============
crash-stop     0               0
transient      1               <= 1 (0 crash-free)
persistent     2               <= 1 (0 crash-free)
naive          4               3
=============  ==============  =============

The harness runs each algorithm under three workloads -- crash-free
sequential, concurrent mixed, and crashy -- and reports the measured
min/mean/max causal logs per operation kind, measured by the
engine-level accounting of :mod:`repro.history.causal_logs` (protocols
cannot self-report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.api import Cluster, open_cluster
from repro.scenarios.faults import RandomCrashPlan
from repro.workloads.generators import run_closed_loop

#: Expected worst-case causal logs per (algorithm, kind).
EXPECTED_BOUNDS: Dict[str, Dict[str, int]] = {
    "crash-stop": {"write": 0, "read": 0},
    "abd": {"write": 0, "read": 0},
    "transient": {"write": 1, "read": 1},
    "persistent": {"write": 2, "read": 1},
    "naive": {"write": 4, "read": 3},
}

#: Expected exact counts for crash-free sequential writes.
EXPECTED_SEQUENTIAL_WRITE: Dict[str, int] = {
    "crash-stop": 0,
    "abd": 0,
    "transient": 1,
    "persistent": 2,
    "naive": 4,
}


@dataclass(frozen=True)
class LogComplexityRow:
    """Measured causal logs for one algorithm/workload/kind."""

    algorithm: str
    workload: str
    kind: str
    minimum: int
    mean: float
    maximum: int
    samples: int
    bound: Optional[int]

    @property
    def within_bound(self) -> bool:
        return self.bound is None or self.maximum <= self.bound


def _rows_from_cluster(
    cluster: Cluster, algorithm: str, workload: str
) -> List[LogComplexityRow]:
    counts: Dict[str, List[int]] = {"read": [], "write": []}
    for record in cluster.history.completed_operations():
        logs = cluster.recorder.causal_logs(record.op)
        if logs is not None:
            counts[record.kind].append(logs)
    rows: List[LogComplexityRow] = []
    for kind, values in counts.items():
        if not values:
            continue
        rows.append(
            LogComplexityRow(
                algorithm=algorithm,
                workload=workload,
                kind=kind,
                minimum=min(values),
                mean=sum(values) / len(values),
                maximum=max(values),
                samples=len(values),
                bound=EXPECTED_BOUNDS.get(algorithm, {}).get(kind),
            )
        )
    return rows


def measure_log_complexity(
    algorithms: Sequence[str] = ("crash-stop", "transient", "persistent", "naive"),
    num_processes: int = 5,
    operations: int = 30,
    seed: int = 0,
) -> List[LogComplexityRow]:
    """Measure causal logs per operation under three workloads."""
    rows: List[LogComplexityRow] = []
    for algorithm in algorithms:
        # Workload 1: crash-free sequential writes then reads.
        cluster = open_cluster(
            "sim", protocol=algorithm, num_processes=num_processes, seed=seed
        ).start()
        writer, reader = cluster.session(0), cluster.session(1)
        for i in range(operations // 2):
            writer.write_sync(f"seq-{i}")
        for _ in range(operations // 2):
            cluster.wait(reader.read())
        rows.extend(_rows_from_cluster(cluster, algorithm, "sequential"))

        # Workload 2: concurrent mixed clients on every process.
        cluster = open_cluster(
            "sim", protocol=algorithm, num_processes=num_processes, seed=seed
        ).start()
        run_closed_loop(
            cluster,
            operations_per_client=max(4, operations // num_processes),
            read_fraction=0.5,
            seed=seed,
        )
        rows.extend(_rows_from_cluster(cluster, algorithm, "concurrent"))

        # Workload 3: concurrent clients with random crash/recovery
        # (crash-recovery algorithms only).
        if algorithm not in ("crash-stop", "abd"):
            cluster = open_cluster(
                "sim", protocol=algorithm, num_processes=num_processes, seed=seed
            ).start()
            RandomCrashPlan(
                horizon=0.2,
                seed=seed + 1,
                crash_rate=0.6,
                mean_downtime=0.02,
            ).arm(cluster)
            run_closed_loop(
                cluster,
                operations_per_client=max(4, operations // num_processes),
                read_fraction=0.5,
                seed=seed,
            )
            rows.extend(_rows_from_cluster(cluster, algorithm, "crashy"))
    return rows


def format_log_complexity(rows: List[LogComplexityRow]) -> str:
    """Render the measurement table."""
    header = (
        f"{'algorithm':<12s} {'workload':<11s} {'op':<6s} "
        f"{'min':>4s} {'mean':>6s} {'max':>4s} {'bound':>6s} {'ok':>3s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        bound = "-" if row.bound is None else str(row.bound)
        ok = "yes" if row.within_bound else "NO"
        lines.append(
            f"{row.algorithm:<12s} {row.workload:<11s} {row.kind:<6s} "
            f"{row.minimum:>4d} {row.mean:>6.2f} {row.maximum:>4d} "
            f"{bound:>6s} {ok:>3s}"
        )
    return "\n".join(lines)
