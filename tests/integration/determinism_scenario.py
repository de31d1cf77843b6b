"""Shared fixed-seed scenario for the determinism regression test.

The engine's fast paths (allocation-free kernel heap entries, guarded
trace emission, memoized message sizes) must never change what a seeded
run *does* -- only how fast it does it.  This module runs one fixed,
adversarial-ish scenario per protocol with full trace capture and
serializes everything observable (the trace transcript, network and
storage counters, the kernel's event count and final clock) into a
stable text form.  Golden copies of that text, captured from the
pre-fast-path engine, live in ``tests/data/determinism``; the
regression test asserts byte-identical output.

Operation ids come from a process-global counter, so their raw ``seq``
components depend on whatever ran earlier in the interpreter.  The
serialization renormalizes every ``p<pid>#<seq>`` occurrence by order
of first appearance, which makes the transcript stable across test
orderings without losing the identity structure.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.api import Cluster, open_cluster
from repro.common.config import ClusterConfig, NetworkConfig, StorageConfig
from repro.scenarios.faults import Downtime
from repro.workloads.generators import run_closed_loop

#: Protocols covered by the regression test.  Crash-stop runs without a
#: failure schedule (its processes do not recover); the crash-recovery
#: algorithms get a mid-run downtime window so the crash, recovery and
#: abort paths are all exercised.
PROTOCOLS = ("crash-stop", "transient", "persistent", "persistent-fastread")

_OPID = re.compile(r"p(\d+)#(\d+)")


def run_scenario(protocol: str) -> str:
    """Run the fixed-seed scenario and return its serialized transcript."""
    config = ClusterConfig(
        num_processes=3,
        network=NetworkConfig(
            max_jitter=20e-6,
            drop_probability=0.05,
            duplicate_probability=0.05,
        ),
        storage=StorageConfig(max_jitter=10e-6),
        seed=1234,
    )
    cluster = open_cluster(
        "sim",
        protocol=protocol,
        config=config,
        capture_trace=True,
    )
    cluster.start()
    if protocol != "crash-stop":
        _downtime_window(cluster)
    report = run_closed_loop(
        cluster, operations_per_client=6, read_fraction=0.5, seed=42, timeout=60.0
    )
    return serialize(cluster, report)


def _downtime_window(cluster: Cluster) -> None:
    """Process 2 is down from t=4ms to t=9ms of the run's virtual clock.

    Faults arm relative to now; ``t - now`` is the same arithmetic the
    goldens were recorded with.
    """
    now = cluster.now
    Downtime(2, 0.004 - now, 0.009 - now).arm(cluster)


def run_checkpoint_scenario() -> str:
    """The checkpointing variant of the fixed-seed scenario.

    Same cluster, network adversary and downtime window as
    :func:`run_scenario` on the persistent protocol, plus periodic
    checkpoints and recovery-scan billing -- so the two-phase
    checkpoint events (``ckpt_begin``/``ckpt_tentative``/
    ``ckpt_commit``), the log truncation they trigger, and the
    scan-delayed recovery all land in the golden transcript.
    """
    config = ClusterConfig(
        num_processes=3,
        network=NetworkConfig(
            max_jitter=20e-6,
            drop_probability=0.05,
            duplicate_probability=0.05,
        ),
        storage=StorageConfig(max_jitter=10e-6),
        seed=1234,
    )
    cluster = open_cluster(
        "sim",
        protocol="persistent",
        config=config,
        capture_trace=True,
        checkpoint_interval=1.5e-3,
        recovery_scan=True,
    )
    cluster.start()
    _downtime_window(cluster)
    report = run_closed_loop(
        cluster, operations_per_client=6, read_fraction=0.5, seed=42, timeout=60.0
    )
    # The workload drains before the 9ms recovery; drive the cluster
    # through it and a few more checkpoint intervals so commits,
    # truncation and the scan-delayed recovery all reach the golden.
    cluster.kernel.run(until=0.012)
    return serialize(cluster, report)


def serialize(cluster: Cluster, report) -> str:
    lines: List[str] = [str(event) for event in cluster.trace.events]
    network = cluster.network
    stores = sum(node.storage.stores_completed for node in cluster.nodes)
    lost = sum(node.storage.stores_lost_to_crash for node in cluster.nodes)
    bytes_logged = sum(node.storage.bytes_logged for node in cluster.nodes)
    lines += [
        f"completed={report.completed} aborted={report.aborted}",
        f"messages sent={network.messages_sent} "
        f"delivered={network.messages_delivered} "
        f"dropped={network.messages_dropped} bytes={network.bytes_sent}",
        f"stores completed={stores} lost={lost} bytes_logged={bytes_logged}",
        f"kernel events={cluster.kernel.events_processed} now={cluster.kernel.now!r}",
        f"trace counts="
        + " ".join(
            f"{kind}:{cluster.trace.count(kind)}"
            for kind in sorted(
                {event.kind for event in cluster.trace.events}
            )
        ),
    ]
    return _renumber_ops("\n".join(lines) + "\n")


def _renumber_ops(text: str) -> str:
    """Map global operation ``seq`` numbers to first-appearance order."""
    mapping: Dict[str, int] = {}

    def replace(match: re.Match) -> str:
        seq = match.group(2)
        if seq not in mapping:
            mapping[seq] = len(mapping)
        return f"p{match.group(1)}#{mapping[seq]}"

    return _OPID.sub(replace, text)
