"""Declarative fault primitives for scenarios: lists of timed façade verbs.

Each primitive is a frozen dataclass describing one adversarial
ingredient -- a crash/recovery window, a rolling restart wave, a
network partition, a message-loss burst, a slow-link window, a
trace-triggered crash, a storage fault, a seeded random crash plan --
and :meth:`FaultAction.steps` turns it into plain data: a list of
``(at, verb, args)`` steps, where ``verb`` names a fault verb of the
:class:`~repro.api.base.Cluster` façade (:data:`~repro.api.types
.FAULT_VERB_CAPABILITIES`) and ``at`` says when it runs:

* a number: virtual seconds **after the arm instant** (a scenario arms
  a phase's faults when the phase opens);
* a trigger ``(kind, source_pid, count, delay)``: ``delay`` virtual
  seconds after the ``count``-th trace event of ``kind`` emitted by
  ``source_pid`` (``None``: by anyone) -- synchronously inside that
  emission when ``delay`` is 0, the instant precision of the paper's
  lower-bound adversaries.

Every value in a step is a str, int, float, ``None`` or tuple, so a
step list survives a JSON round trip.  :func:`arm_steps` is the one way
a step list reaches a cluster: :func:`check_steps` first refuses steps
whose verbs the backend lacks or whose pids it does not have, then
timed steps are armed with ``Cluster.defer`` and triggers with
``Cluster.on_event`` -- one kernel event per step, whatever number of
links or processes the step names.

Primitives compose: a scenario phase carries a tuple of them.  Link
blocks and slow-link penalties stack, so overlapping windows on the
same links compose; one loss window and one slow-disk window per
process are open at a time.  Randomized primitives own a seeded
generator instead of touching the kernel's stream, so a scenario run
stays a pure function of (scenario, seed).  :func:`victims_of` reads
the crash and recover steps: the runner skips crashing faults under
protocols whose processes cannot recover (crash-stop), and keeps
clients off processes a fault crashes for good.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Set, Tuple

from repro.api.types import FAULT_VERB_CAPABILITIES, VIRTUAL_TIME
from repro.common.errors import (
    CapabilityError,
    ConfigurationError,
    ProcessCrashed,
    ProtocolError,
)
from repro.obs import tracing

__all__ = [
    "CorruptRecord",
    "CrashAt",
    "CrashOnTrace",
    "Downtime",
    "FaultAction",
    "LossBurst",
    "LostStore",
    "PartitionWindow",
    "RandomCrashPlan",
    "RollingRestarts",
    "SlowDisk",
    "SlowLinks",
    "TornStore",
    "arm_steps",
    "check_steps",
    "victims_of",
]

#: One step: ``(at, verb, args)`` -- see the module docstring.
Step = Tuple[Any, str, Tuple[Any, ...]]


class FaultAction:
    """Base class: one declarative fault, a pure list of steps."""

    def steps(self, num_processes: int) -> List[Step]:
        """This fault's steps on a cluster of ``num_processes``."""
        raise NotImplementedError

    def arm(self, cluster) -> None:
        """Arm this fault on façade ``cluster``; times start now."""
        arm_steps(cluster, self.steps(cluster.num_processes))


def _downtime(pid: int, start: float, end: float) -> List[Step]:
    # Recoveries never wait: the step runs inside a kernel event.
    return [(start, "crash", (pid,)), (end, "recover", (pid, False))]


def _check_window(start: float, end: float, what: str) -> None:
    if not 0 <= start < end:  # NaN too
        raise ConfigurationError(f"{what} needs 0 <= start < end")


@dataclass(frozen=True)
class Downtime(FaultAction):
    """Crash ``pid`` at ``start`` and recover it at ``end``."""

    pid: int
    start: float
    end: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "downtime")

    def steps(self, num_processes: int) -> List[Step]:
        return _downtime(self.pid, self.start, self.end)


@dataclass(frozen=True)
class CrashAt(FaultAction):
    """Crash ``pid`` at ``time`` and leave it down."""

    pid: int
    time: float

    def __post_init__(self) -> None:
        if not self.time >= 0:  # NaN too
            raise ConfigurationError("crash time must be >= 0")

    def steps(self, num_processes: int) -> List[Step]:
        return [(self.time, "crash", (self.pid,))]


@dataclass(frozen=True)
class RollingRestarts(FaultAction):
    """Restart processes one after another, each down for ``downtime``.

    Process ``pids[i]`` (default: every process) crashes at
    ``start + i * interval`` and recovers ``downtime`` later -- the
    classic rolling-upgrade wave.  With ``interval > downtime`` at most
    one process is down at a time, preserving a responsive majority.
    """

    start: float = 0.0
    interval: float = 2e-3
    downtime: float = 1e-3
    pids: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not (self.start >= 0 and self.interval > 0 and self.downtime > 0):
            raise ConfigurationError(
                "rolling restarts need start >= 0, interval > 0, downtime > 0"
            )

    def steps(self, num_processes: int) -> List[Step]:
        pids = self.pids if self.pids is not None else range(num_processes)
        steps: List[Step] = []
        for i, pid in enumerate(pids):
            begin = self.start + i * self.interval
            steps += _downtime(pid, begin, begin + self.downtime)
        return steps


@dataclass(frozen=True)
class PartitionWindow(FaultAction):
    """Split the cluster into two groups between ``start`` and ``end``.

    Every link between ``group_a`` and ``group_b`` is blocked (both
    directions) at ``start`` and healed at ``end``.  Processes inside a
    group keep talking; operations coordinated from the minority side
    stall on their quorum until the heal, then complete -- the model's
    fair-lossy channels permit arbitrary finite silence.
    """

    group_a: Tuple[int, ...]
    group_b: Tuple[int, ...]
    start: float
    end: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "partition")
        if not self.group_a or not self.group_b:
            raise ConfigurationError("both partition groups must be non-empty")
        if set(self.group_a) & set(self.group_b):
            raise ConfigurationError("partition groups must be disjoint")

    def steps(self, num_processes: int) -> List[Step]:
        groups = (tuple(self.group_a), tuple(self.group_b))
        return [(self.start, "partition", groups), (self.end, "heal", groups)]


@dataclass(frozen=True)
class LossBurst(FaultAction):
    """Drop a fraction of transmissions between ``start`` and ``end``.

    Every non-loopback transmission in the window is dropped with
    ``probability``, decided by a private generator seeded from
    ``seed`` -- the kernel's random stream is untouched, so the burst
    perturbs the run only through the drops themselves.
    """

    start: float
    end: float
    probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "loss burst")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")

    def steps(self, num_processes: int) -> List[Step]:
        return [
            (self.start, "lose", (self.probability, self.seed)),
            (self.end, "lose", (0.0,)),
        ]


@dataclass(frozen=True)
class SlowLinks(FaultAction):
    """Add ``extra_delay`` to deliveries between ``start`` and ``end``.

    ``links`` restricts the penalty to specific ``(src, dst)`` pairs;
    ``None`` degrades every non-loopback link.  Messages still arrive
    -- late -- so unlike a partition nothing retransmits forever, the
    protocols just see their round-trips stretch.
    """

    start: float
    end: float
    extra_delay: float
    links: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "slow-link window")
        if not self.extra_delay > 0:
            raise ConfigurationError("extra_delay must be > 0")

    def steps(self, num_processes: int) -> List[Step]:
        if self.links is not None:
            links = tuple(tuple(link) for link in self.links)
        else:
            links = tuple(
                (src, dst)
                for src in range(num_processes)
                for dst in range(num_processes)
                if src != dst
            )
        return [
            (self.start, "slow_link", (links, self.extra_delay)),
            (self.end, "slow_link", (links, -self.extra_delay)),
        ]


@dataclass(frozen=True)
class CrashOnTrace(FaultAction):
    """Crash ``pid`` the instant a matching trace event fires.

    The precision tool of the paper's lower-bound adversaries, exposed
    declaratively: ``kind`` names a trace event kind (e.g.
    ``"store_begin"``), ``source_pid`` optionally restricts which
    process's event triggers, and ``count`` skips the first matches.
    The crash lands *synchronously between the matched event and the
    next simulator step* -- e.g. "crash the writer the moment its first
    log write starts" for the crash-during-write scenario.
    ``recover_after`` schedules the recovery that much virtual time
    after the trigger fires (``None`` leaves the process down).
    """

    kind: str
    pid: int
    source_pid: Optional[int] = None
    count: int = 1
    recover_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")
        if self.recover_after is not None and not self.recover_after > 0:
            raise ConfigurationError("recover_after must be > 0")

    def steps(self, num_processes: int) -> List[Step]:
        steps: List[Step] = [
            ((self.kind, self.source_pid, self.count, 0.0), "crash", (self.pid,))
        ]
        if self.recover_after is not None:
            # The crash hook is installed first, so it runs first.
            trigger = (self.kind, self.source_pid, self.count, self.recover_after)
            steps.append((trigger, "recover", (self.pid, False)))
        return steps


@dataclass(frozen=True)
class TornStore(FaultAction):
    """Crash ``pid`` exactly between the two phases of its checkpoint.

    The adversarial schedule for the two-phase checkpoint discipline
    (``docs/recovery.md``): the crash lands synchronously on
    the process's ``ckpt_tentative`` trace event -- the tentative
    snapshot is durable, the permanent store was never issued, and no
    truncation happened.  Recovery must ignore the stray tentative
    record and restore from the previous permanent snapshot plus the
    intact log suffix.  ``count`` skips the first matches (tear the
    ``count``-th checkpoint); ``recover_after`` schedules the recovery
    that much virtual time later (``None`` leaves the process down).
    """

    pid: int
    count: int = 1
    recover_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")
        if self.recover_after is not None and not self.recover_after > 0:
            raise ConfigurationError("recover_after must be > 0")

    def steps(self, num_processes: int) -> List[Step]:
        return CrashOnTrace(
            tracing.CKPT_TENTATIVE, self.pid, self.pid, self.count,
            self.recover_after,
        ).steps(num_processes)


@dataclass(frozen=True)
class CorruptRecord(FaultAction):
    """Make ``pid``'s durable record under ``key`` unreadable at ``time``.

    Models a log frame failing its checksum on the next read-back and
    being quarantined (what the live file storage does): the key
    simply stops resolving.  ``key`` is the raw storage key --
    ``"writing"``/``"written"`` for the default register slot,
    ``"<register>/writing"`` for named slots.  Corrupting
    ``writing`` is always recoverable (recovery replays bottom);
    corrupting ``written`` may lose the only local copy of a value, so
    scenarios that must stay atomic should leave it alone.
    """

    pid: int
    key: str
    time: float

    def __post_init__(self) -> None:
        if not self.time >= 0:  # NaN too
            raise ConfigurationError("corruption time must be >= 0")

    def steps(self, num_processes: int) -> List[Step]:
        return [(self.time, "corrupt_record", (self.pid, self.key))]


@dataclass(frozen=True)
class SlowDisk(FaultAction):
    """Add ``extra_latency`` to ``pid``'s stores between ``start`` and ``end``.

    The storage sibling of :class:`SlowLinks`: every store issued in
    the window pays the extra latency on top of the modelled one, and
    queues behind the slowed writes ahead of it on the sequential
    device.  Windows on the same process must not overlap (the end of
    one would clear the other).
    """

    pid: int
    start: float
    end: float
    extra_latency: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "slow-disk window")
        if not self.extra_latency > 0:
            raise ConfigurationError("extra_latency must be > 0")

    def steps(self, num_processes: int) -> List[Step]:
        return [
            (self.start, "slow_storage", (self.pid, self.extra_latency)),
            (self.end, "slow_storage", (self.pid, 0.0)),
        ]


@dataclass(frozen=True)
class LostStore(FaultAction):
    """Silently lose ``count`` of ``pid``'s stores from ``time`` on.

    The lying-fsync fault: the device acknowledges the store (the
    protocol proceeds as if it were durable) but the record never
    lands.  The protocols tolerate it the way they tolerate a crash
    that voids an in-flight store -- the paper's algorithms never rely
    on a *single* copy of anything -- but the lost log is visible in
    ``stores_lost`` and in recovery behavior, which is exactly what
    robustness scenarios probe.
    """

    pid: int
    time: float
    count: int = 1

    def __post_init__(self) -> None:
        if not self.time >= 0:  # NaN too
            raise ConfigurationError("loss time must be >= 0")
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")

    def steps(self, num_processes: int) -> List[Step]:
        return [(self.time, "lose_stores", (self.pid, self.count))]


@dataclass(frozen=True)
class RandomCrashPlan(FaultAction):
    """Seeded random downtime windows within ``[0, horizon]``.

    Each process is picked with probability ``crash_rate`` for one
    window starting in the first 80 % of the horizon and lasting an
    exponential ``mean_downtime`` (at least 0.1 ms, ending by 95 % of
    the horizon).  ``max_concurrent_down`` (default: a minority) bounds
    how many processes are down at once, so a majority stays
    responsive often enough for operations to terminate -- the model
    only guarantees robustness when a majority is eventually up.
    """

    horizon: float
    seed: int = 0
    max_concurrent_down: Optional[int] = None
    crash_rate: float = 0.5
    mean_downtime: float = 0.01

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ConfigurationError("horizon must be > 0")
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ConfigurationError("crash_rate must be in [0, 1]")
        if not self.mean_downtime > 0:
            raise ConfigurationError("mean_downtime must be > 0")

    def steps(self, num_processes: int) -> List[Step]:
        rng = random.Random(self.seed)
        max_down = self.max_concurrent_down
        if max_down is None:
            max_down = max(0, (num_processes - 1) // 2)
        windows = []
        for pid in range(num_processes):
            if rng.random() >= self.crash_rate:
                continue
            start = rng.uniform(0.0, self.horizon * 0.8)
            duration = rng.expovariate(1.0 / self.mean_downtime)
            end = min(start + max(duration, 1e-4), self.horizon * 0.95)
            windows.append((start, end, pid))
        windows.sort()
        accepted: List[Tuple[float, float, int]] = []
        for start, end, pid in windows:
            overlap = sum(1 for s, e, _ in accepted if s < end and start < e)
            if overlap < max_down:
                accepted.append((start, end, pid))
        return [
            step for start, end, pid in accepted
            for step in _downtime(pid, start, end)
        ]


# -- arming -------------------------------------------------------------------


def _is_trigger(at: Any) -> bool:
    return not isinstance(at, (int, float))


def check_steps(cluster, steps: Iterable[Step]) -> None:
    """Refuse ``steps`` that ``cluster`` could not arm, before arming any.

    A step needs its verb's capability, plus ``virtual_time`` when it
    is timed (its offset is virtual seconds, armed with ``defer``) or
    ``trace`` when it is a trigger (armed with ``on_event``); a missing
    one raises :class:`CapabilityError`.  An unknown verb, a negative
    offset or a pid outside the cluster raises
    :class:`ConfigurationError`.  Needs no running cluster: the runner
    calls it before ``start()``.
    """
    needed: Set[str] = set()
    for at, verb, args in steps:
        if verb not in FAULT_VERB_CAPABILITIES:
            raise ConfigurationError(f"unknown fault verb {verb!r}")
        needed.add(FAULT_VERB_CAPABILITIES[verb])
        if _is_trigger(at):
            needed.add(FAULT_VERB_CAPABILITIES["on_event"])
        elif not at >= 0:  # NaN too
            raise ConfigurationError(f"{verb} step at {at} is in the past")
        else:
            needed.add(VIRTUAL_TIME)
        for pid in _pids(at, verb, args):
            if not 0 <= pid < cluster.num_processes:
                raise ConfigurationError(
                    f"{verb} step names pid {pid}, outside the "
                    f"{cluster.num_processes}-process cluster"
                )
    missing = needed - cluster.capabilities
    if missing:
        raise CapabilityError(
            f"the {cluster.backend!r} backend lacks "
            f"{', '.join(sorted(missing))}, which these faults need"
        )


def _pids(at: Any, verb: str, args: Tuple[Any, ...]) -> List[int]:
    """Every process id a step names."""
    if verb in ("partition", "heal"):
        pids = [pid for group in args[:2] for pid in group]
    elif verb == "slow_link":
        pids = [pid for link in args[0] for pid in link]
    elif verb == "lose":
        pids = []
    else:
        pids = [args[0]]
    if _is_trigger(at) and at[1] is not None:
        pids.append(at[1])
    return pids


def arm_steps(cluster, steps: List[Step]) -> None:
    """Arm ``steps`` on façade ``cluster``, all or nothing.

    :func:`check_steps` runs first, so a refused list schedules
    nothing.  Timed steps are sorted stably by ``at`` and each becomes
    one ``defer``; triggers are installed with ``on_event`` in list
    order.
    """
    check_steps(cluster, steps)
    timed = sorted((s for s in steps if not _is_trigger(s[0])), key=lambda s: s[0])
    for at, verb, args in timed:
        cluster.defer(at, _fire, cluster, verb, args)
    for at, verb, args in steps:
        if not _is_trigger(at):
            continue
        kind, source_pid, count, delay = at
        if delay:
            cluster.on_event(
                kind, source_pid, count, cluster.defer, delay, _fire,
                cluster, verb, args,
            )
        else:
            cluster.on_event(kind, source_pid, count, _fire, cluster, verb, args)


def _fire(cluster, verb: str, args: Tuple[Any, ...]) -> None:
    """Run one step's verb; skip a crash of a crashed process or a
    recovery of a process that is up.

    Those two refusals are the only errors skipped: independent faults
    (a random plan beside a trace-triggered crash) legitimately race
    for the same process.
    """
    try:
        getattr(cluster, verb)(*args)
    except ProcessCrashed:
        if verb != "crash":
            raise
    except ProtocolError as error:
        if verb != "recover" or str(error) != f"process {args[0]} is not crashed":
            raise


def victims_of(
    faults: Iterable[FaultAction],
    num_processes: int,
    permanent_only: bool = False,
) -> Set[int]:
    """Every process the given faults may crash.

    With ``permanent_only`` only victims a fault crashes without ever
    recovering them count.
    """
    victims: Set[int] = set()
    for fault in faults:
        crashed, recovered = set(), set()
        for _, verb, args in fault.steps(num_processes):
            if verb == "crash":
                crashed.add(args[0])
            elif verb == "recover":
                recovered.add(args[0])
        victims |= crashed - recovered if permanent_only else crashed
    return victims
