"""Failure injection: crash/recovery schedules and event-triggered adversaries.

Two styles of injection, both deterministic:

* **Time-based schedules** (:class:`CrashSchedule`): crash/recover given
  processes at fixed virtual instants.  Good for throughput-style
  experiments ("p3 is down between t=2s and t=5s").
* **Trigger-based adversaries** (:class:`TriggerInjector`): fire on
  trace events, e.g. "crash the writer the moment its first ``W``
  message is delivered somewhere, but before its own log completes".
  This is how the runs of the lower-bound proofs (rho_1 .. rho_4,
  Figures 2 and 3 of the paper) are reproduced exactly: the paper's
  adversary controls scheduling at instant precision, and trace
  listeners run synchronously before the simulation proceeds.

:class:`RandomCrashPlan` generates seeded random schedules for the
property-based soak tests, with the constraint knobs needed to keep a
majority eventually up (the termination assumption of Section II).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import ProcessId
from repro.obs.tracing import Trace, TraceEvent

CRASH = "crash"
RECOVER = "recover"


@dataclass(frozen=True)
class FailureAction:
    """One scheduled failure event."""

    time: float
    action: str
    pid: ProcessId

    def __post_init__(self) -> None:
        if self.action not in (CRASH, RECOVER):
            raise ConfigurationError(f"unknown action {self.action!r}")
        if self.time < 0:
            raise ConfigurationError("action time must be >= 0")


class CrashSchedule:
    """A time-ordered list of crash/recover actions.

    The schedule is installed on a cluster with
    :meth:`repro.cluster.SimCluster.install_schedule`; each action is
    executed at its virtual instant.  Actions against a process in the
    wrong state (crashing a crashed process) are skipped with a note in
    the skipped list rather than failing the run -- random schedules
    legitimately race with protocol-driven state.
    """

    def __init__(self, actions: Optional[Sequence[FailureAction]] = None):
        self._actions: List[FailureAction] = sorted(
            actions or [], key=lambda a: a.time
        )
        self.skipped: List[FailureAction] = []

    def crash(self, time: float, pid: ProcessId) -> "CrashSchedule":
        """Add a crash of ``pid`` at ``time`` (chainable)."""
        self._actions.append(FailureAction(time=time, action=CRASH, pid=pid))
        self._actions.sort(key=lambda a: a.time)
        return self

    def recover(self, time: float, pid: ProcessId) -> "CrashSchedule":
        """Add a recovery of ``pid`` at ``time`` (chainable)."""
        self._actions.append(FailureAction(time=time, action=RECOVER, pid=pid))
        self._actions.sort(key=lambda a: a.time)
        return self

    def downtime(self, pid: ProcessId, start: float, end: float) -> "CrashSchedule":
        """Crash ``pid`` at ``start`` and recover it at ``end``."""
        if end <= start:
            raise ConfigurationError("downtime end must be after start")
        return self.crash(start, pid).recover(end, pid)

    @property
    def actions(self) -> List[FailureAction]:
        return list(self._actions)

    def __len__(self) -> int:
        return len(self._actions)


@dataclass
class Trigger:
    """Crash/recover a process when a trace event matches a predicate.

    ``count`` skips the first ``count - 1`` matches; ``delay`` postpones
    the action by that much virtual time after the match (0 = at the
    very instant, before the simulator processes anything else).
    """

    predicate: Callable[[TraceEvent], bool]
    action: str
    pid: ProcessId
    count: int = 1
    delay: float = 0.0
    fired: bool = field(default=False, init=False)
    _seen: int = field(default=0, init=False)

    def matches(self, event: TraceEvent) -> bool:
        if self.fired:
            return False
        if not self.predicate(event):
            return False
        self._seen += 1
        return self._seen >= self.count


class TriggerInjector:
    """Subscribes triggers to a trace and applies their actions.

    The injector needs callables to perform the actions; the cluster
    wires them up.  Trigger actions run *synchronously* inside trace
    emission when ``delay == 0`` -- i.e. between the matched event and
    the next simulator step -- which gives adversarial schedules the
    instant precision the proofs assume.

    The injector subscribes to the trace lazily, on the first installed
    trigger: predicates are opaque, so once any trigger exists it must
    see every event kind, but a cluster that never installs one (the
    common benchmark configuration) keeps the trace's allocation-free
    emission fast path.
    """

    def __init__(
        self,
        trace: Trace,
        crash_fn: Callable[[ProcessId], None],
        recover_fn: Callable[[ProcessId], None],
        schedule_fn: Callable[[float, Callable[[], None]], None],
    ):
        self._triggers: List[Trigger] = []
        self._trace = trace
        self._crash_fn = crash_fn
        self._recover_fn = recover_fn
        self._schedule_fn = schedule_fn
        self._unsubscribe: Optional[Callable[[], None]] = None

    def add(self, trigger: Trigger) -> Trigger:
        """Install a trigger; returns it for later inspection."""
        if self._unsubscribe is None:
            self._unsubscribe = self._trace.subscribe(self._on_event)
        self._triggers.append(trigger)
        return trigger

    def crash_when(
        self,
        predicate: Callable[[TraceEvent], bool],
        pid: ProcessId,
        count: int = 1,
        delay: float = 0.0,
    ) -> Trigger:
        """Shorthand for installing a crash trigger."""
        return self.add(
            Trigger(predicate=predicate, action=CRASH, pid=pid, count=count, delay=delay)
        )

    def recover_when(
        self,
        predicate: Callable[[TraceEvent], bool],
        pid: ProcessId,
        count: int = 1,
        delay: float = 0.0,
    ) -> Trigger:
        """Shorthand for installing a recovery trigger."""
        return self.add(
            Trigger(
                predicate=predicate, action=RECOVER, pid=pid, count=count, delay=delay
            )
        )

    def close(self) -> None:
        """Detach from the trace.  Idempotent."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def _on_event(self, event: TraceEvent) -> None:
        for trigger in self._triggers:
            if not trigger.matches(event):
                continue
            trigger.fired = True
            action = self._make_action(trigger)
            if trigger.delay == 0.0:
                action()
            else:
                self._schedule_fn(trigger.delay, action)

    def _make_action(self, trigger: Trigger) -> Callable[[], None]:
        if trigger.action == CRASH:
            return lambda: self._crash_fn(trigger.pid)
        return lambda: self._recover_fn(trigger.pid)


class RandomCrashPlan:
    """Seeded random crash/recovery schedules for soak tests.

    Generates, for each chosen victim, one or more downtime windows in
    ``[0, horizon]``.  ``max_concurrent_down`` bounds how many processes
    are down simultaneously so that a majority stays responsive often
    enough for operations to terminate (the model only guarantees
    robustness when a majority is eventually permanently up).
    """

    def __init__(
        self,
        num_processes: int,
        horizon: float,
        seed: int = 0,
        max_concurrent_down: Optional[int] = None,
        crash_rate: float = 0.5,
        mean_downtime: float = 0.01,
    ):
        if num_processes < 1:
            raise ConfigurationError("num_processes must be >= 1")
        if horizon <= 0:
            raise ConfigurationError("horizon must be > 0")
        if not 0.0 <= crash_rate <= 1.0:
            raise ConfigurationError("crash_rate must be in [0, 1]")
        self._n = num_processes
        self._horizon = horizon
        self._rng = random.Random(seed)
        minority = max(0, (num_processes - 1) // 2)
        self._max_down = (
            minority if max_concurrent_down is None else max_concurrent_down
        )
        self._crash_rate = crash_rate
        self._mean_downtime = mean_downtime

    def generate(self) -> CrashSchedule:
        """Produce a schedule honouring the concurrency bound."""
        windows: List[Tuple[float, float, ProcessId]] = []
        for pid in range(self._n):
            if self._rng.random() >= self._crash_rate:
                continue
            start = self._rng.uniform(0.0, self._horizon * 0.8)
            duration = self._rng.expovariate(1.0 / self._mean_downtime)
            end = min(start + max(duration, 1e-4), self._horizon * 0.95)
            windows.append((start, end, pid))
        windows.sort()
        accepted: List[Tuple[float, float, ProcessId]] = []
        for window in windows:
            start, end, _ = window
            overlap = sum(
                1 for s, e, _ in accepted if s < end and start < e
            )
            if overlap < self._max_down:
                accepted.append(window)
        schedule = CrashSchedule()
        for start, end, pid in accepted:
            schedule.downtime(pid, start, end)
        return schedule
