"""Aggregated metrics of a simulation run.

Collects what the paper's evaluation reports -- operation latencies,
log counts, message counts -- from a cluster's recorder, trace and
nodes, into plain dataclasses the experiments print as tables.  The
latency summary and the exact percentile math live in
:mod:`repro.obs.summary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.history.events import READ, WRITE
from repro.obs import summary


@dataclass
class RunMetrics:
    """Everything the experiment harnesses report about one run."""

    protocol: str
    num_processes: int
    write_latency: summary.LatencyStats = field(default_factory=summary.LatencyStats)
    read_latency: summary.LatencyStats = field(default_factory=summary.LatencyStats)
    causal_logs_write: List[int] = field(default_factory=list)
    causal_logs_read: List[int] = field(default_factory=list)
    messages_sent: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    stores_completed: int = 0
    bytes_logged: int = 0
    crashes: int = 0
    recoveries: int = 0
    aborted_operations: int = 0

    @property
    def max_causal_logs_write(self) -> Optional[int]:
        return max(self.causal_logs_write) if self.causal_logs_write else None

    @property
    def max_causal_logs_read(self) -> Optional[int]:
        return max(self.causal_logs_read) if self.causal_logs_read else None


def collect_metrics(cluster) -> RunMetrics:
    """Build :class:`RunMetrics` from a finished (or paused) cluster.

    ``cluster`` is a :class:`repro.cluster.SimCluster`; the import is
    late to avoid a cycle.
    """
    history = cluster.history
    write_samples: List[float] = []
    read_samples: List[float] = []
    logs: Dict[str, List[int]] = {READ: [], WRITE: []}
    aborted = 0
    for record in history.operations():
        if record.pending:
            aborted += 1
            continue
        latency = record.latency
        assert latency is not None
        if record.kind == WRITE:
            write_samples.append(latency)
        else:
            read_samples.append(latency)
        measured = cluster.recorder.causal_logs(record.op)
        if measured is not None:
            logs[record.kind].append(measured)
    stores = sum(node.storage.stores_completed for node in cluster.nodes)
    bytes_logged = sum(node.storage.bytes_logged for node in cluster.nodes)
    return RunMetrics(
        protocol=cluster.protocol_name,
        num_processes=cluster.config.num_processes,
        write_latency=summary.LatencyStats.from_samples(write_samples),
        read_latency=summary.LatencyStats.from_samples(read_samples),
        causal_logs_write=logs[WRITE],
        causal_logs_read=logs[READ],
        messages_sent=cluster.network.messages_sent,
        messages_dropped=cluster.network.messages_dropped,
        bytes_sent=cluster.network.bytes_sent,
        stores_completed=stores,
        bytes_logged=bytes_logged,
        crashes=sum(node.crash_count for node in cluster.nodes),
        recoveries=cluster.trace.count("recover"),
        aborted_operations=aborted,
    )
