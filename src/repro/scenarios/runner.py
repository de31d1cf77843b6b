"""Scenario execution: spec in, seed-reproducible verdict out.

:func:`run_scenario` builds the cluster a :class:`~repro.scenarios
.spec.Scenario` asks for, then walks its phases: arm the phase's
faults, drive its closed-loop workload to completion, and re-check
the *same* growing history with the white-box tag checker.  The append-only :class:`~repro.history
.history.History` contract makes each re-check reuse the cached
operation records (only the phase's new events are folded in); the
checker's sweep itself still walks the whole history, so a pass costs
O(N log N) of the history so far -- cheap in absolute terms (~0.7s at
100k operations), but with many phases the total verification cost is
O(phases x N), so phase counts stay small even for soaks.

Everything observable lands in a :class:`ScenarioResult`.  Its
:meth:`~ScenarioResult.fingerprint` is the determinism contract: two
runs of the same scenario, seed, protocol and budget produce equal
fingerprints (verdicts, per-phase metrics, counters and -- with
``capture_trace`` -- the normalized event transcript).  Wall-clock
timings are reported alongside but excluded from the fingerprint.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.base import Cluster, open_cluster
from repro.api.types import SHARDING
from repro.common.errors import ConfigurationError
from repro.history.checker import default_criterion
from repro.scenarios.faults import check_steps, victims_of
from repro.scenarios.spec import Scenario, WorkloadPhase
from repro.workloads.generators import (
    ClientPlan,
    OperationMix,
    UniqueValues,
    WorkloadRunner,
    planned,
)
from repro.workloads.kv import DRAIN_POLL_STRIDE, ZipfianKeys, zipf_clients

#: Virtual seconds allowed per operation when sizing phase timeouts
#: (generous: a healthy write costs ~1 ms of virtual time).
_TIMEOUT_PER_OP = 0.02
_TIMEOUT_FLOOR = 30.0
#: Kernel-event budget per operation (a simulated op costs tens of
#: events; retransmissions during partitions cost more).
_EVENTS_PER_OP = 2_000
_EVENTS_FLOOR = 2_000_000

_OPID = re.compile(r"p(\d+)#(\d+)")


@dataclass
class CheckOutcome:
    """One verification pass over the recorded history."""

    phase: str
    ok: bool
    criterion: str
    method: str
    operations: int
    violations: str = ""
    #: Wall seconds the check took; excluded from the fingerprint.
    wall_s: float = 0.0

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "ok": self.ok,
            "criterion": self.criterion,
            "method": self.method,
            "operations": self.operations,
            "violations": self.violations,
        }


@dataclass
class PhaseOutcome:
    """What one workload phase did.

    ``sim_duration`` is the time the phase's workload occupied on the
    cluster's clock, as the runner measures it from its own start --
    so on a sharded store it excludes the key preload before it.
    """

    name: str
    attempted: int
    completed: int
    aborted: int
    unissued: int
    sim_duration: float
    #: What the phase cost, as a :meth:`~repro.obs.metrics
    #: .MetricsSnapshot.diff` of the cluster's metrics across the
    #: phase (``as_dict`` form).  Observational only -- latency
    #: histograms include bucket estimates and the live backend's
    #: gauges move with wall time -- so it stays out of the
    #: fingerprint.
    metrics: Optional[Dict[str, Any]] = field(default=None, repr=False)

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "attempted": self.attempted,
            "completed": self.completed,
            "aborted": self.aborted,
            "unissued": self.unissued,
            "sim_duration": round(self.sim_duration, 12),
        }


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: str
    store: str
    protocol: str
    seed: int
    ops: int
    phases: List[PhaseOutcome] = field(default_factory=list)
    checks: List[CheckOutcome] = field(default_factory=list)
    completed: int = 0
    aborted: int = 0
    unissued: int = 0
    final_clock: float = 0.0
    kernel_events: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    stores_completed: int = 0
    crashes: int = 0
    recoveries: int = 0
    #: Normalized trace transcript (``capture_trace`` scenarios only).
    transcript: Optional[str] = None
    #: Wall seconds: total run, and verification alone.  Excluded from
    #: the fingerprint -- they vary run to run.
    wall_s: float = 0.0
    check_wall_s: float = 0.0
    #: Final cluster-wide metrics snapshot (``as_dict`` form) and the
    #: run's flight-recorder ring, when the backend keeps one.  Both
    #: are observation, not behaviour: they stay out of the
    #: fingerprint so attaching them can never perturb the
    #: determinism contract.
    metrics: Optional[Dict[str, Any]] = field(default=None, repr=False)
    flight_recorder: Optional[Any] = field(default=None, repr=False)
    #: The final snapshot as a live :class:`~repro.obs.metrics
    #: .MetricsSnapshot` (exact bucket counts, picklable) -- the form
    #: fleet aggregation merges.  ``metrics`` above is its lossy
    #: ``as_dict`` summary; both stay out of the fingerprint.
    metrics_snapshot: Optional[Any] = field(default=None, repr=False)
    #: Virtual-seconds duration of every completed crash-recovery, per
    #: process (pid -> durations, in crash order).  Deterministic, but
    #: observational -- reported alongside the fingerprint, not inside
    #: it, like the other metrics.
    recovery_times: Optional[Dict[int, List[float]]] = field(
        default=None, repr=False
    )

    @property
    def verdict(self) -> bool:
        """Whether the run is healthy: checks passed AND work finished.

        A stalled workload (a partition that never healed, an
        exhausted event budget) leaves operations unissued; the checks
        would trivially accept the truncated history, so unissued work
        fails the verdict on its own.  Aborted operations do *not* --
        crash scenarios abort in-flight work by design, and the
        checkers judge whether the survivors stayed atomic.
        """
        return (
            bool(self.checks)
            and all(check.ok for check in self.checks)
            and self.unissued == 0
        )

    def fingerprint(self) -> Dict[str, Any]:
        """The deterministic subset: equal across same-seed runs."""
        return {
            "scenario": self.scenario,
            "store": self.store,
            "protocol": self.protocol,
            "seed": self.seed,
            "ops": self.ops,
            "phases": [phase.fingerprint() for phase in self.phases],
            "checks": [check.fingerprint() for check in self.checks],
            "completed": self.completed,
            "aborted": self.aborted,
            "unissued": self.unissued,
            "final_clock": round(self.final_clock, 12),
            "kernel_events": self.kernel_events,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "stores_completed": self.stores_completed,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "transcript": self.transcript,
            "verdict": self.verdict,
        }

    def summary(self) -> str:
        """A short human-readable report for the CLI."""
        lines = [
            f"scenario {self.scenario} ({self.store}, {self.protocol}, "
            f"seed {self.seed}): {'PASS' if self.verdict else 'FAIL'}",
            f"  operations: {self.completed} completed, {self.aborted} aborted, "
            f"{self.unissued} unissued of {self.ops}",
            f"  virtual time {self.final_clock * 1e3:.1f}ms, "
            f"{self.kernel_events:,} kernel events, "
            f"{self.messages_sent:,} messages "
            f"({self.messages_dropped:,} dropped), "
            f"{self.stores_completed:,} stable-storage logs",
            f"  failures: {self.crashes} crashes, {self.recoveries} recoveries",
            f"  wall {self.wall_s:.2f}s (verification {self.check_wall_s:.2f}s)",
        ]
        if self.recovery_times:
            durations = [
                duration
                for times in self.recovery_times.values()
                for duration in times
            ]
            if durations:
                lines.append(
                    f"  recovery times: {len(durations)} recoveries, "
                    f"max {max(durations) * 1e3:.2f}ms, "
                    f"mean {sum(durations) / len(durations) * 1e3:.2f}ms"
                )
        for check in self.checks:
            status = "ok" if check.ok else f"VIOLATED ({check.violations})"
            lines.append(
                f"  check[{check.phase}] {check.criterion}/{check.method}: "
                f"{check.operations} ops, {status}, {check.wall_s * 1e3:.0f}ms"
            )
        if self.transcript is not None:
            lines.append(
                f"  transcript: {len(self.transcript.splitlines()):,} trace events"
            )
        if self.flight_recorder is not None:
            ring = self.flight_recorder
            lines.append(
                f"  flight recorder: {len(ring):,} of {ring.total:,} "
                f"events retained"
            )
        return "\n".join(lines)


def _normalize_transcript(lines: List[str]) -> str:
    """Renumber operation ids by first appearance.

    Operation ids come from a process-global counter, so raw ``seq``
    components depend on whatever ran earlier in the interpreter; the
    renumbering makes transcripts comparable across runs (same trick as
    the determinism goldens).
    """
    mapping: Dict[str, str] = {}

    def rename(match: "re.Match[str]") -> str:
        token = match.group(0)
        if token not in mapping:
            mapping[token] = f"p{match.group(1)}#op{len(mapping)}"
        return mapping[token]

    return "\n".join(_OPID.sub(rename, line) for line in lines)


def _phase_seed(seed: int, index: int) -> int:
    """A per-phase derived seed, stable and collision-free in practice."""
    return seed * 1_000_003 + 7919 * (index + 1)


def _supports_recovery(protocol: str) -> bool:
    from repro.protocol.registry import get_protocol_class

    return getattr(
        get_protocol_class(protocol, include_broken=True),
        "supports_recovery",
        True,
    )


def _effective_faults(
    phase: WorkloadPhase, supports_recovery: bool, num_processes: int
):
    """The phase's faults, adapted to the protocol's failure model.

    Crash-stop processes never recover (recovery raises), so against
    that baseline every crash-producing fault is skipped -- the
    scenario still runs its workload and network faults, it just
    cannot exercise the crash choreography the crash-recovery
    algorithms exist for.
    """
    if supports_recovery:
        return phase.faults
    return tuple(
        fault for fault in phase.faults
        if not victims_of([fault], num_processes)
    )


def _all_faults(scenario: Scenario, supports_recovery: bool) -> list:
    return [
        fault
        for phase in scenario.phases
        for fault in _effective_faults(
            phase, supports_recovery, scenario.num_processes
        )
    ]


def _client_pids(scenario: Scenario, supports_recovery: bool) -> List[int]:
    """Replicas clients may be pinned to.

    Clients keep off any replica a fault crashes for good (a crash
    step with no recover step, see :func:`~repro.scenarios.faults
    .victims_of`) -- a client pinned there would stall against a
    process that never comes back.  If the faults doom every replica,
    clients stay on the full set and the run simply reports the
    unissued work.
    """
    everyone = list(range(scenario.num_processes))
    faults = _all_faults(scenario, supports_recovery)
    doomed = victims_of(faults, scenario.num_processes, permanent_only=True)
    survivors = [pid for pid in everyone if pid not in doomed]
    return survivors or everyone


def _check(
    cluster: Cluster, criterion: str, phase: str, method: str
) -> CheckOutcome:
    """One façade verification pass over the recorded history.

    ``method`` is the scenario's checker (the white-box tag checker on
    the single register, per-key on the KV store); the façade's merged
    :class:`~repro.api.types.Verdict` maps 1:1 onto the outcome.
    """
    started = time.perf_counter()
    verdict = cluster.check(criterion=criterion, method=method)
    wall = time.perf_counter() - started
    return CheckOutcome(
        phase=phase,
        ok=verdict.ok,
        criterion=verdict.consistency,
        method=verdict.method,
        operations=verdict.operations,
        violations=verdict.reason,
        wall_s=wall,
    )


def _drive_phases(
    result: ScenarioResult,
    scenario: Scenario,
    cluster: Cluster,
    recovery: bool,
    criterion: str,
) -> None:
    """The one phase driver, for every store.

    Per phase: on a sharded store, preload the phase's key universe
    (*before* the faults, so a phase-relative fault window cannot
    elapse inside setup); arm the phase's (protocol-adapted) faults;
    run its closed-loop clients; fold the counters; and check the
    history so far.  The only backend-sensitive choice -- which
    client shape to run, and the runner's drain-poll stride -- keys
    off the ``sharding`` capability, not the cluster's type.
    """
    pids = _client_pids(scenario, recovery)
    values = UniqueValues()
    sharded = SHARDING in cluster.capabilities
    preloaded: set = set()
    shares = scenario.split_ops(result.ops)
    for index, (phase, phase_ops) in enumerate(zip(scenario.phases, shares)):
        phase_seed = _phase_seed(result.seed, index)
        if sharded:
            keys = ZipfianKeys(
                num_keys=phase.num_keys, s=phase.zipf_s, seed=phase_seed
            )
            # Provisioning 64 registers costs tens of virtual
            # milliseconds.  Key names depend only on (num_keys,
            # prefix), so a universe is preloaded once even across
            # many phases.
            if not preloaded.issuperset(keys.keys):
                cluster.preload(keys.keys, timeout=_TIMEOUT_FLOOR)
                preloaded.update(keys.keys)
            clients = zipf_clients(
                _split(phase_ops, phase.clients or 16), pids, keys,
                read_fraction=phase.read_fraction, seed=phase_seed,
            )
        else:
            clients = planned(_register_plans(
                phase, phase_ops, pids, random.Random(phase_seed)
            ))
        for fault in _effective_faults(phase, recovery, scenario.num_processes):
            fault.arm(cluster)
        # Bracket the phase with registry snapshots: the diff is what
        # the phase itself cost.  Snapshotting only samples gauges and
        # copies counters -- no kernel events, no randomness.
        before = cluster.metrics()
        report = WorkloadRunner(cluster, clients, values=values).run(
            timeout=max(_TIMEOUT_FLOOR, phase_ops * _TIMEOUT_PER_OP),
            poll_every=DRAIN_POLL_STRIDE if sharded else 1,
            max_events=max(_EVENTS_FLOOR, phase_ops * _EVENTS_PER_OP),
        )
        result.phases.append(PhaseOutcome(
            name=phase.name,
            attempted=phase_ops,
            completed=report.completed,
            aborted=report.aborted,
            unissued=report.unissued,
            sim_duration=report.duration,
            metrics=cluster.metrics().diff(before).as_dict(),
        ))
        result.completed += report.completed
        result.aborted += report.aborted
        result.unissued += report.unissued
        result.checks.append(
            _check(cluster, criterion, phase.name, scenario.check_method)
        )


def run_scenario(
    scenario: Scenario,
    protocol: Optional[str] = None,
    seed: Optional[int] = None,
    ops: Optional[int] = None,
    capture_trace: Optional[bool] = None,
) -> ScenarioResult:
    """Execute ``scenario`` and return its result.

    ``protocol``, ``seed``, ``ops`` and ``capture_trace`` override the
    scenario's defaults; everything else is the spec's business.  Two
    calls with equal arguments produce equal
    :meth:`ScenarioResult.fingerprint` values -- the ring and metrics
    are passive observers.
    """
    protocol = protocol or scenario.default_protocol
    seed = scenario.default_seed if seed is None else seed
    ops = scenario.default_ops if ops is None else ops
    if ops < 1:
        raise ConfigurationError("ops must be >= 1")
    capture = scenario.capture_trace if capture_trace is None else capture_trace
    criterion = default_criterion(protocol)

    started = time.perf_counter()
    result = _run(scenario, protocol, seed, ops, capture, criterion)
    result.wall_s = time.perf_counter() - started
    result.check_wall_s = sum(check.wall_s for check in result.checks)
    return result


# -- the one backend-agnostic driver -----------------------------------------


def _split(total: int, parts: int) -> List[int]:
    """``total`` spread over ``parts`` counts, the remainder first."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _register_plans(
    phase: WorkloadPhase,
    phase_ops: int,
    pids: List[int],
    rng: random.Random,
) -> List[ClientPlan]:
    """Closed-loop plans distributing ``phase_ops`` over the clients."""
    clients = min(phase.clients or len(pids), len(pids))
    mix = OperationMix(read_fraction=phase.read_fraction)
    return [
        ClientPlan(pid=pids[i], kinds=mix.plan(count, rng))
        for i, count in enumerate(_split(phase_ops, clients))
    ]


def _run(
    scenario: Scenario,
    protocol: str,
    seed: int,
    ops: int,
    capture: bool,
    criterion: str,
) -> ScenarioResult:
    """Drive ``scenario`` against the façade cluster its spec maps to.

    The spec names the backend (:attr:`~repro.scenarios.spec
    .Scenario.backend`); the cluster declares its capabilities, which
    :func:`_drive_phases` reads.
    """
    cluster = open_cluster(
        backend=scenario.backend,
        protocol=protocol,
        num_processes=scenario.num_processes,
        seed=seed,
        capture_trace=capture,
        **scenario.backend_options(),
    )
    recovery = _supports_recovery(protocol)
    # A fault the backend lacks a verb for, or that names a process the
    # cluster does not have, fails the scenario before it boots -- not
    # when the fault's phase opens.
    check_steps(cluster, [
        step
        for fault in _all_faults(scenario, recovery)
        for step in fault.steps(scenario.num_processes)
    ])
    cluster.start()
    result = ScenarioResult(
        scenario=scenario.name,
        store=scenario.store,
        protocol=protocol,
        seed=seed,
        ops=ops,
    )
    _drive_phases(result, scenario, cluster, recovery, criterion)
    _finalize(result, cluster, capture)
    return result


def _finalize(result: ScenarioResult, cluster: Cluster, capture: bool) -> None:
    """Collect run-wide counters (and the transcript, if captured)."""
    stats = cluster.stats()
    result.final_clock = stats.clock
    result.kernel_events = stats.kernel_events
    result.messages_sent = stats.messages_sent
    result.messages_dropped = stats.messages_dropped
    result.stores_completed = stats.stores_completed
    result.crashes = stats.crashes
    result.recoveries = stats.recoveries
    snapshot = cluster.metrics()
    result.metrics = snapshot.as_dict()
    result.metrics_snapshot = snapshot
    result.flight_recorder = cluster.flight_recorder
    result.recovery_times = {
        node.pid: list(node.recovery_times)
        for node in cluster.nodes
        if node.recovery_times
    }
    if capture:
        result.transcript = _normalize_transcript(cluster.transcript() or [])
