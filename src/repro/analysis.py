"""Trace analysis: message, step and log complexity per operation.

The paper claims its algorithms "use the same number of communication
steps as [the crash-stop algorithm of Lynch-Shvartsman], namely 4 for
any operation" -- i.e. minimizing logs costs nothing in messages or
rounds.  This module derives those complexity measures from a run's
trace so the claim can be checked as a measurement:

* **rounds**: distinct broadcast rounds the operation ran (query and
  propagate phases);
* **communication steps**: ``2 * rounds`` -- each round is a request
  step plus an acknowledgment step;
* **messages**: total transmissions attributable to the operation
  (requests, acks and retransmissions, across all processes);
* **logs**: total stable-storage writes performed for the operation
  (distinct from *causal* logs: a persistent write totals ~1 + majority
  logs, but only 2 of them chain causally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.common.errors import ConfigurationError
from repro.common.ids import OperationId
from repro.obs import tracing


@dataclass
class OperationProfile:
    """Complexity measures of one operation, derived from the trace."""

    op: OperationId
    kind: str = "?"
    messages: int = 0
    rounds: int = 0
    logs: int = 0
    #: Which request kinds the initiator broadcast (one round each).
    request_kinds: Set[str] = field(default_factory=set)

    @property
    def communication_steps(self) -> int:
        """Request + acknowledgment step per round (the paper's metric)."""
        return 2 * self.rounds


def profile_operations(cluster) -> Dict[OperationId, OperationProfile]:
    """Build per-operation complexity profiles from a cluster's trace.

    Requires the cluster to have been opened with ``capture_trace=True``;
    any other cluster raises
    :class:`~repro.common.errors.ConfigurationError` rather than
    profiling nothing.  Retransmissions count toward ``messages`` but
    not toward ``rounds``.
    """
    if not cluster.trace.capturing:
        raise ConfigurationError(
            "profile_operations reads the captured trace: open the "
            "cluster with capture_trace=True"
        )
    profiles: Dict[OperationId, OperationProfile] = {}

    def profile(op: Optional[OperationId]) -> Optional[OperationProfile]:
        if op is None:
            return None
        if op not in profiles:
            profiles[op] = OperationProfile(op=op)
        return profiles[op]

    for event in cluster.trace.events:
        if event.kind == tracing.SEND:
            entry = profile(event.detail.get("op"))
            if entry is not None:
                entry.messages += 1
        elif event.kind == tracing.STORE_END:
            entry = profile(event.detail.get("op"))
            if entry is not None:
                entry.logs += 1
        elif event.kind == tracing.INVOKE:
            entry = profile(event.detail.get("op"))
            if entry is not None:
                entry.kind = event.detail.get("kind", "?")

    # Rounds: distinct *request* message kinds the initiator broadcast
    # for the operation.  Every algorithm in this library runs at most
    # one round per request kind (SnQuery, ReadQuery, WriteRequest), so
    # the kind set sizes the rounds while retransmissions (same kind)
    # collapse.
    request_kinds: Dict[OperationId, Set[str]] = {}
    for event in cluster.trace.events:
        if event.kind != tracing.SEND:
            continue
        op = event.detail.get("op")
        if not isinstance(op, OperationId) or event.pid != op.pid:
            continue
        message_kind = event.detail.get("msg", "")
        if message_kind in ("SnQuery", "ReadQuery", "WriteRequest"):
            request_kinds.setdefault(op, set()).add(message_kind)
    for op, kinds in request_kinds.items():
        if op in profiles:
            profiles[op].rounds = len(kinds)
            profiles[op].request_kinds = kinds
    return profiles


@dataclass
class ComplexitySummary:
    """Aggregated complexity per operation kind."""

    kind: str
    count: int
    steps_min: int
    steps_max: int
    messages_mean: float
    logs_mean: float


def summarize_profiles(
    profiles: Dict[OperationId, OperationProfile]
) -> List[ComplexitySummary]:
    """Aggregate profiles into per-kind rows."""
    by_kind: Dict[str, List[OperationProfile]] = {}
    for entry in profiles.values():
        by_kind.setdefault(entry.kind, []).append(entry)
    rows: List[ComplexitySummary] = []
    for kind in sorted(by_kind):
        entries = by_kind[kind]
        steps = [entry.communication_steps for entry in entries]
        rows.append(
            ComplexitySummary(
                kind=kind,
                count=len(entries),
                steps_min=min(steps),
                steps_max=max(steps),
                messages_mean=sum(e.messages for e in entries) / len(entries),
                logs_mean=sum(e.logs for e in entries) / len(entries),
            )
        )
    return rows


def format_summary(algorithm: str, rows: List[ComplexitySummary]) -> str:
    header = (
        f"{'algorithm':<12s} {'op':<6s} {'n':>4s} "
        f"{'steps':>8s} {'msgs/op':>8s} {'logs/op':>8s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        steps = (
            str(row.steps_min)
            if row.steps_min == row.steps_max
            else f"{row.steps_min}-{row.steps_max}"
        )
        lines.append(
            f"{algorithm:<12s} {row.kind:<6s} {row.count:>4d} "
            f"{steps:>8s} {row.messages_mean:>8.1f} {row.logs_mean:>8.1f}"
        )
    return "\n".join(lines)
