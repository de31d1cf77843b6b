"""Message and time complexity table (Sections I-D and IV-B claims).

The paper: "our algorithms use the same number of communication steps
as [2], namely 4 for any operation.  In other words, this means that
minimizing the number of logs does not increase the number of
messages, or communication steps, with respect to the most efficient
robust emulation algorithms we know of in a crash-stop model."

This harness measures, per algorithm and operation kind, the
communication steps (2 per round), total messages (requests plus
acknowledgments across all processes) and total stable-storage logs,
from crash-free sequential runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis import (
    ComplexitySummary,
    format_summary,
    profile_operations,
    summarize_profiles,
)
from repro.api import open_cluster

COMPLEXITY_ALGORITHMS = (
    "abd",
    "crash-stop",
    "transient",
    "persistent",
    "naive",
    "regular",
)

#: Expected communication steps per (algorithm, kind); the paper's "4
#: for any operation" for the three multi-writer atomic algorithms.
EXPECTED_STEPS: Dict[str, Dict[str, int]] = {
    "abd": {"write": 2, "read": 4},
    "crash-stop": {"write": 4, "read": 4},
    "transient": {"write": 4, "read": 4},
    "persistent": {"write": 4, "read": 4},
    "naive": {"write": 4, "read": 4},
    "regular": {"write": 4, "read": 2},
}


@dataclass
class AlgorithmComplexity:
    """Measured complexity rows for one algorithm."""

    algorithm: str
    rows: List[ComplexitySummary]

    def steps_of(self, kind: str) -> int:
        for row in self.rows:
            if row.kind == kind:
                assert row.steps_min == row.steps_max
                return row.steps_min
        raise KeyError(kind)

    def messages_of(self, kind: str) -> float:
        for row in self.rows:
            if row.kind == kind:
                return row.messages_mean
        raise KeyError(kind)


def measure_complexity(
    algorithms: Sequence[str] = COMPLEXITY_ALGORITHMS,
    num_processes: int = 5,
    operations: int = 5,
    seed: int = 0,
) -> List[AlgorithmComplexity]:
    """Crash-free sequential runs; complexity profiles from the trace."""
    results: List[AlgorithmComplexity] = []
    for algorithm in algorithms:
        cluster = open_cluster(
            "sim", protocol=algorithm, num_processes=num_processes, seed=seed,
            capture_trace=True,
        ).start()
        writer, reader = cluster.session(0), cluster.session(1)
        for i in range(operations):
            writer.write_sync(f"v{i}")
        for _ in range(operations):
            cluster.wait(reader.read())
        profiles = profile_operations(cluster)
        results.append(
            AlgorithmComplexity(
                algorithm=algorithm, rows=summarize_profiles(profiles)
            )
        )
    return results


def format_complexity(results: List[AlgorithmComplexity]) -> str:
    blocks = [format_summary(result.algorithm, result.rows) for result in results]
    # Merge into one table: keep the first header only.
    lines: List[str] = []
    for index, block in enumerate(blocks):
        rows = block.splitlines()
        lines.extend(rows if index == 0 else rows[2:])
    return "\n".join(lines)
