"""Section VI: does emulating weaker-than-atomic memory pay off?

The paper's concluding remarks argue that in a system where logging
dominates, safe/regular emulations buy nothing over transient atomic
memory: every meaningful crash-recovery write still needs one causal
log, and crash-free atomic reads do not log anyway -- the regular
read's only saving is one message round trip.

This experiment measures exactly that trade-off, plus the price paid
for it (loss of atomicity), on three axes:

1. **costs**: per-operation latency and causal logs for the regular
   emulation vs. the transient and persistent ones;
2. **the saving**: regular reads take 2 communication steps (2 delta),
   atomic reads 4;
3. **the loss**: a steered schedule produces a new/old inversion on
   the regular emulation -- accepted by the regularity checker,
   rejected by the atomicity checker -- while the same schedule on the
   transient emulation stays atomic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.cluster import SimCluster
from repro.common.errors import ReproError
from repro.history.checker import check_transient_atomicity
from repro.history.regular_checker import check_regularity, check_safety
from repro.obs.summary import LatencyStats
from repro.protocol.messages import WriteRequest

COMPARED = ("regular", "transient", "persistent")


@dataclass(frozen=True)
class CostRow:
    """Measured costs of one algorithm."""

    algorithm: str
    write_latency: LatencyStats
    read_latency: LatencyStats
    write_causal_logs: int
    read_causal_logs: int


def measure_costs(
    algorithms=COMPARED, num_processes: int = 5, repeats: int = 30, seed: int = 0
) -> List[CostRow]:
    """Crash-free sequential costs per algorithm (writer = process 0)."""
    rows: List[CostRow] = []
    for algorithm in algorithms:
        cluster = SimCluster(
            protocol=algorithm, num_processes=num_processes, seed=seed,
            capture_trace=False,
        )
        cluster.start()
        write_samples: List[float] = []
        write_logs = 0
        for i in range(repeats):
            handle = cluster.write_sync(0, f"v{i}")
            write_samples.append(handle.latency)
            write_logs = max(write_logs, handle.causal_logs)
        read_samples: List[float] = []
        read_logs = 0
        for _ in range(repeats):
            handle = cluster.wait(cluster.read(1))
            read_samples.append(handle.latency)
            read_logs = max(read_logs, handle.causal_logs)
        rows.append(
            CostRow(
                algorithm=algorithm,
                write_latency=LatencyStats.from_samples(write_samples),
                read_latency=LatencyStats.from_samples(read_samples),
                write_causal_logs=write_logs,
                read_causal_logs=read_logs,
            )
        )
    return rows


@dataclass
class InversionRun:
    """Outcome of the new/old inversion schedule on one algorithm."""

    algorithm: str
    read_results: List[Any]
    atomic: bool
    regular: bool
    safe: bool


def new_old_inversion_run(
    algorithm: str, seed: Optional[int] = None
) -> InversionRun:
    """Two reads racing one write, quorums steered apart.

    ``W(new)``'s second round reaches only ``p2``.  ``R1`` (at ``p1``,
    quorum ``{p1, p2}``) observes ``new``; ``R2`` (at ``p1``, quorum
    ``{p0, p1}``) runs next.  A regular register may answer ``old`` --
    the inversion -- because the write is still in progress; an atomic
    register's first read wrote ``new`` back to a majority, so the
    second read must return it.
    """
    cluster = SimCluster(
        protocol=algorithm, num_processes=3,
        seed=21 if seed is None else seed, include_broken=True
    )
    cluster.start()
    cluster.write_sync(0, "old")

    w = cluster.write(0, "new")
    remove = cluster.network.add_filter(
        lambda src, dst, msg: (
            isinstance(msg, WriteRequest) and msg.op == w.op and dst != 2
        )
    )
    ok = cluster.run_until(
        lambda: cluster.node(2).protocol.durable_tag.sn >= 2, timeout=1.0
    )
    if not ok:
        raise ReproError("p2 never adopted the in-progress write")

    cluster.network.block(0, 1)
    r1 = cluster.wait(cluster.read(1))
    cluster.network.unblock(0, 1)

    cluster.network.block(2, 1)
    r2 = cluster.wait(cluster.read(1))
    cluster.network.heal_all()

    remove()
    cluster.wait(w)

    history = cluster.history
    return InversionRun(
        algorithm=algorithm,
        read_results=[r1.result, r2.result],
        atomic=bool(check_transient_atomicity(history)),
        regular=bool(check_regularity(history)),
        safe=bool(check_safety(history)),
    )


def format_costs(rows: List[CostRow]) -> str:
    header = (
        f"{'algorithm':<12s} {'write us':>9s} {'read us':>9s} "
        f"{'W logs':>7s} {'R logs':>7s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.algorithm:<12s} {row.write_latency.mean_us:>9.1f} "
            f"{row.read_latency.mean_us:>9.1f} "
            f"{row.write_causal_logs:>7d} {row.read_causal_logs:>7d}"
        )
    return "\n".join(lines)


def format_inversions(runs: List[InversionRun]) -> str:
    header = (
        f"{'algorithm':<12s} {'reads':<12s} "
        f"{'atomic':>7s} {'regular':>8s} {'safe':>5s}"
    )
    lines = [header, "-" * len(header)]
    for run in runs:
        lines.append(
            f"{run.algorithm:<12s} {','.join(map(str, run.read_results)):<12s} "
            f"{str(run.atomic):>7s} {str(run.regular):>8s} {str(run.safe):>5s}"
        )
    return "\n".join(lines)
