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
from typing import List, Optional

from repro.api import open_cluster
from repro.experiments.lower_bounds import AdversarialRun, reader_across_write
from repro.obs.summary import LatencyStats

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
        cluster = open_cluster(
            "sim", protocol=algorithm, num_processes=num_processes, seed=seed
        ).start()
        writer, reader = cluster.session(0), cluster.session(1)
        write_samples: List[float] = []
        write_logs = 0
        for i in range(repeats):
            handle = writer.write_sync(f"v{i}")
            write_samples.append(handle.latency)
            write_logs = max(write_logs, handle.causal_logs)
        read_samples: List[float] = []
        read_logs = 0
        for _ in range(repeats):
            handle = cluster.wait(reader.read())
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


def new_old_inversion_run(
    algorithm: str, seed: Optional[int] = None
) -> AdversarialRun:
    """Two reads racing one write, quorums steered apart.

    Run rho_4's schedule without the reader's crash: ``W(new)``'s
    second round reaches only ``p2``.  ``R1`` (at ``p1``, quorum ``{p1,
    p2}``) observes ``new``; ``R2`` (at ``p1``, quorum ``{p0, p1}``)
    runs next.  A regular register may answer ``old`` -- the inversion
    -- because the write is still in progress; an atomic register's
    first read wrote ``new`` back to a majority, so the second read
    must return it.
    """
    return reader_across_write(
        algorithm, ("new", "old"), 21 if seed is None else seed,
        "inversion", ("old", "new"),
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


def format_inversions(runs: List[AdversarialRun]) -> str:
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
