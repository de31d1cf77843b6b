"""Declarative fault-schedule primitives for scenarios.

Each primitive is a frozen dataclass describing one adversarial
ingredient -- a crash/recovery window, a rolling restart wave, a
network partition, a message-loss burst, a slow-link window, or a
trace-triggered crash -- and knows how to **arm** itself on a cluster:
:meth:`FaultAction.arm` translates the declaration into kernel events,
network state changes, or :class:`~repro.sim.failures.TriggerInjector`
triggers.  All times are virtual seconds **relative to the arm
instant** (a scenario arms a phase's faults when the phase opens), and
every primitive is deterministic: randomized ones (the loss burst) own
a seeded generator instead of touching the kernel's stream, so a
scenario run stays a pure function of (scenario, seed).

Primitives compose: a scenario phase carries a tuple of them, and the
network-level effects (link blocks, slow-link penalties) are
refcounted/additive so overlapping windows on the same links stack
instead of clobbering each other.  Two introspection hooks serve the
runner: :meth:`FaultAction.victims` (everyone a fault may crash --
such faults are skipped entirely under protocols whose processes
cannot recover, like crash-stop) and
:meth:`FaultAction.permanent_victims` (victims never recovered, e.g.
:class:`CrashAt` -- clients are kept off those replicas so their work
does not stall against a process that will never come back).
:func:`victims_of` aggregates either set over a fault collection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.obs import tracing
from repro.sim.failures import CrashSchedule

__all__ = [
    "CorruptRecord",
    "CrashAt",
    "CrashOnTrace",
    "Downtime",
    "FaultAction",
    "LossBurst",
    "LostStore",
    "PartitionWindow",
    "RollingRestarts",
    "SlowDisk",
    "SlowLinks",
    "TornStore",
    "victims_of",
]


def _sim_of(cluster):
    """The underlying :class:`~repro.cluster.SimCluster` of ``cluster``.

    Accepts a ``SimCluster`` and anything owning one as ``.sim`` --
    the ``"sim"`` and ``"kv"`` backends of :mod:`repro.api` -- so the
    same fault declarations arm against any virtual-time front-end.
    """
    return getattr(cluster, "sim", cluster)


class FaultAction:
    """Base class: one declarative fault, armable on a cluster."""

    def arm(self, cluster) -> None:
        """Install this fault; times are relative to the current clock."""
        raise NotImplementedError

    def victims(self) -> Set[int]:
        """Processes this fault may crash (empty for network faults)."""
        return set()

    def permanent_victims(self) -> Set[int]:
        """Victims this fault crashes without ever recovering them."""
        return set()


@dataclass(frozen=True)
class Downtime(FaultAction):
    """Crash ``pid`` at ``start`` and recover it at ``end``."""

    pid: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError("downtime needs 0 <= start < end")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        now = sim.kernel.now
        sim.install_schedule(
            CrashSchedule().downtime(self.pid, now + self.start, now + self.end)
        )

    def victims(self) -> Set[int]:
        return {self.pid}


@dataclass(frozen=True)
class CrashAt(FaultAction):
    """Crash ``pid`` at ``time`` and leave it down."""

    pid: int
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("crash time must be >= 0")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        sim.install_schedule(
            CrashSchedule().crash(sim.kernel.now + self.time, self.pid)
        )

    def victims(self) -> Set[int]:
        return {self.pid}

    def permanent_victims(self) -> Set[int]:
        return {self.pid}


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
        if self.start < 0 or self.interval <= 0 or self.downtime <= 0:
            raise ConfigurationError(
                "rolling restarts need start >= 0, interval > 0, downtime > 0"
            )

    def _resolved_pids(self, num_processes: int) -> Tuple[int, ...]:
        return self.pids if self.pids is not None else tuple(range(num_processes))

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        now = sim.kernel.now
        schedule = CrashSchedule()
        for i, pid in enumerate(self._resolved_pids(sim.config.num_processes)):
            begin = now + self.start + i * self.interval
            schedule.downtime(pid, begin, begin + self.downtime)
        sim.install_schedule(schedule)

    def victims(self) -> Set[int]:
        # Without a cluster we cannot resolve "every process"; callers
        # that need exact victims pass explicit pids.  The sentinel -1
        # marks "all processes" for victims_of().
        return set(self.pids) if self.pids is not None else {-1}


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
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError("partition needs 0 <= start < end")
        if not self.group_a or not self.group_b:
            raise ConfigurationError("both partition groups must be non-empty")
        if set(self.group_a) & set(self.group_b):
            raise ConfigurationError("partition groups must be disjoint")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        network = sim.network
        a, b = set(self.group_a), set(self.group_b)

        def heal() -> None:
            for src in a:
                for dst in b:
                    network.unblock(src, dst)
                    network.unblock(dst, src)

        sim.kernel.schedule(self.start, network.partition, a, b)
        sim.kernel.schedule(self.end, heal)


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
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError("loss burst needs 0 <= start < end")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        rng = random.Random(self.seed)
        probability = self.probability

        def should_drop(src, dst, message) -> bool:
            return src != dst and rng.random() < probability

        state = {}

        def install() -> None:
            state["remove"] = sim.network.add_filter(should_drop)

        def remove() -> None:
            removal = state.pop("remove", None)
            if removal is not None:
                removal()

        sim.kernel.schedule(self.start, install)
        sim.kernel.schedule(self.end, remove)


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
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError("slow-link window needs 0 <= start < end")
        if self.extra_delay <= 0:
            raise ConfigurationError("extra_delay must be > 0")

    def _resolved_links(self, num_processes: int) -> Sequence[Tuple[int, int]]:
        if self.links is not None:
            return self.links
        return [
            (src, dst)
            for src in range(num_processes)
            for dst in range(num_processes)
            if src != dst
        ]

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        network = sim.network
        links = self._resolved_links(sim.config.num_processes)

        def slow() -> None:
            for src, dst in links:
                network.slow_link(src, dst, self.extra_delay)

        def restore() -> None:
            for src, dst in links:
                network.unslow_link(src, dst, self.extra_delay)

        sim.kernel.schedule(self.start, slow)
        sim.kernel.schedule(self.end, restore)


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
        if self.recover_after is not None and self.recover_after <= 0:
            raise ConfigurationError("recover_after must be > 0")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        kind, source = self.kind, self.source_pid

        def matches(event) -> bool:
            return event.kind == kind and (source is None or event.pid == source)

        sim.injector.crash_when(matches, self.pid, count=self.count)
        if self.recover_after is not None:
            # A second trigger on the same event schedules the
            # recovery; the crash trigger (installed first) runs first.
            sim.injector.recover_when(
                matches, self.pid, count=self.count, delay=self.recover_after
            )

    def victims(self) -> Set[int]:
        return {self.pid}

    def permanent_victims(self) -> Set[int]:
        return set() if self.recover_after is not None else {self.pid}


@dataclass(frozen=True)
class TornStore(FaultAction):
    """Crash ``pid`` exactly between the two phases of its checkpoint.

    The adversarial schedule for the two-phase checkpoint discipline
    (:mod:`repro.storage.checkpoint`): the crash lands synchronously on
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
        if self.recover_after is not None and self.recover_after <= 0:
            raise ConfigurationError("recover_after must be > 0")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        pid = self.pid

        def matches(event) -> bool:
            return event.kind == tracing.CKPT_TENTATIVE and event.pid == pid

        sim.injector.crash_when(matches, pid, count=self.count)
        if self.recover_after is not None:
            sim.injector.recover_when(
                matches, pid, count=self.count, delay=self.recover_after
            )

    def victims(self) -> Set[int]:
        return {self.pid}

    def permanent_victims(self) -> Set[int]:
        return set() if self.recover_after is not None else {self.pid}


@dataclass(frozen=True)
class CorruptRecord(FaultAction):
    """Make ``pid``'s durable record under ``key`` unreadable at ``time``.

    Models a log frame failing its checksum on the next read-back and
    being quarantined (the :class:`~repro.runtime.storage.
    FileStableStorage` behavior): the key simply stops resolving.  ``key`` is the raw
    storage key -- ``"writing"``/``"written"`` for the default register
    slot, ``"<register>/writing"`` for named slots.  Corrupting
    ``writing`` is always recoverable (recovery replays bottom);
    corrupting ``written`` may lose the only local copy of a value, so
    scenarios that must stay atomic should leave it alone.
    """

    pid: int
    key: str
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("corruption time must be >= 0")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        storage = sim.nodes[self.pid].storage
        sim.kernel.schedule(self.time, storage.corrupt, self.key)


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
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError("slow-disk window needs 0 <= start < end")
        if self.extra_latency <= 0:
            raise ConfigurationError("extra_latency must be > 0")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        storage = sim.nodes[self.pid].storage
        sim.kernel.schedule(self.start, storage.set_slow, self.extra_latency)
        sim.kernel.schedule(self.end, storage.clear_slow)


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
        if self.time < 0:
            raise ConfigurationError("loss time must be >= 0")
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")

    def arm(self, cluster) -> None:
        sim = _sim_of(cluster)
        storage = sim.nodes[self.pid].storage
        sim.kernel.schedule(self.time, storage.lose_next_stores, self.count)


def victims_of(
    faults: Iterable[FaultAction],
    num_processes: int,
    permanent_only: bool = False,
) -> Set[int]:
    """Every process the given faults may crash.

    With ``permanent_only`` only victims that are never recovered
    count.  The ``-1`` sentinel (a :class:`RollingRestarts` over all
    processes) expands to the full process set.
    """
    victims: Set[int] = set()
    for fault in faults:
        victims |= (
            fault.permanent_victims() if permanent_only else fault.victims()
        )
    if -1 in victims:
        victims.discard(-1)
        victims |= set(range(num_processes))
    return victims
