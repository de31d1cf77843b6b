"""Structured traces of runs: the event vocabulary every host emits into.

Every interesting event in a run -- sends, deliveries, drops, stores,
invocations, replies, crashes, recoveries -- is appended to a
:class:`Trace` as a :class:`TraceEvent`.  The trace is the single
source of truth for:

* the failure injector (triggers fire on trace events, which is how the
  adversarial schedules of the lower-bound proofs are reproduced);
* the metrics layer (latencies, message counts, log counts per
  operation);
* debugging (a trace pretty-prints as a readable run transcript).

Fast path.  Building a :class:`TraceEvent` (a dataclass plus a detail
dict) per simulated message is the single biggest per-event cost when
nobody is looking, so emitters are expected to guard construction::

    if trace.wants(tracing.SEND):
        trace.emit(TraceEvent(...))     # someone captures or listens
    else:
        trace.tick(tracing.SEND)        # count-only, allocation-free

:meth:`Trace.wants` answers in O(1) from a precomputed set: a kind is
wanted when the trace captures, when a listener subscribed to every
kind, or when a listener subscribed to that kind specifically.
:meth:`Trace.tick` keeps :meth:`Trace.count` exact either way, so the
metrics layer sees identical numbers with tracing on or off.
:data:`NULL_TRACE` is a module-level sink for components run without
any trace at all; it wants nothing and refuses listeners.

Flight recorder.  Independently of capture, every trace feeds a
bounded :class:`repro.obs.ring.RingTrace` of ``(time, kind-id, pid,
op)`` codes -- cheap enough to leave always on, so the tail of any run
is reconstructable after a crash without re-running with capture
enabled.  :meth:`Trace.tick` therefore accepts the event coordinates
as optional positional arguments; emitters pass them on both the fast
and slow paths.  Recording never schedules kernel events or consumes
randomness, so seeded runs are byte-identical with the ring on or off
(``Trace(flight_recorder=False)`` disables it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence

from repro.obs.ring import DEFAULT_CAPACITY, RingTrace

# Event kinds, kept as plain strings for cheap filtering.
SEND = "send"
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
STORE_BEGIN = "store_begin"
STORE_END = "store_end"
INVOKE = "invoke"
REPLY = "reply"
CRASH = "crash"
RECOVER = "recover"
RECOVERY_DONE = "recovery_done"
TIMER = "timer"
CKPT_BEGIN = "ckpt_begin"
CKPT_TENTATIVE = "ckpt_tentative"
CKPT_COMMIT = "ckpt_commit"

# The ring encodes kinds positionally (KIND_IDS below), so new kinds
# must be appended at the end to keep old flight-recorder exports
# decodable.
ALL_KINDS = (
    SEND,
    DELIVER,
    DROP,
    DUPLICATE,
    STORE_BEGIN,
    STORE_END,
    INVOKE,
    REPLY,
    CRASH,
    RECOVER,
    RECOVERY_DONE,
    TIMER,
    CKPT_BEGIN,
    CKPT_TENTATIVE,
    CKPT_COMMIT,
)

#: kind name -> ring code, the binary encoding of the flight recorder.
KIND_IDS = {kind: code for code, kind in enumerate(ALL_KINDS)}


@dataclass(frozen=True)
class TraceEvent:
    """One event of a simulation run."""

    time: float
    kind: str
    pid: int
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"{self.time * 1e6:10.1f}us p{self.pid} {self.kind:<13} {parts}"


Listener = Callable[[TraceEvent], None]


class Trace:
    """Append-only event log with live listeners.

    Listeners run synchronously at append time, *before* the simulator
    processes the next event -- that is what lets a failure injector
    crash a process "immediately after its first store completes",
    mirroring the instant-precise schedules in the paper's proofs.

    A listener may subscribe to specific event ``kinds``; emitters then
    skip :class:`TraceEvent` construction entirely for kinds nobody
    wants (see the module docstring).
    """

    def __init__(
        self,
        capture: bool = True,
        flight_recorder: bool = True,
        ring_capacity: int = DEFAULT_CAPACITY,
    ):
        self._capture = capture
        self._ring: Optional[RingTrace] = (
            RingTrace(capacity=ring_capacity, kinds=ALL_KINDS)
            if flight_recorder
            else None
        )
        self._events: List[TraceEvent] = []
        #: Listeners for every kind, in subscription order.
        self._all_listeners: List[Listener] = []
        #: kind -> listeners restricted to that kind.
        self._kind_listeners: Dict[str, List[Listener]] = {}
        self._counts: Dict[str, int] = {}
        #: ``None`` means every kind is wanted (capture on, or a
        #: listener subscribed without a kind restriction).
        self._wanted: Optional[FrozenSet[str]] = None
        self._recompute_wanted()

    @property
    def capturing(self) -> bool:
        """Whether emitted events are retained in :attr:`events`."""
        return self._capture

    @property
    def ring(self) -> Optional[RingTrace]:
        """The flight recorder, or ``None`` when disabled."""
        return self._ring

    def wants(self, kind: str) -> bool:
        """Whether an emitter must build a real event for ``kind``."""
        wanted = self._wanted
        return True if wanted is None else kind in wanted

    def tick(
        self, kind: str, time: float = 0.0, pid: int = -1, op: Any = None
    ) -> None:
        """Count one ``kind`` occurrence without building an event.

        The allocation-free sibling of :meth:`emit`, used by emitters
        when :meth:`wants` says nobody would see the event.  Keeps
        :meth:`count` exact with tracing off, and feeds the flight
        recorder the same ``(time, kind, pid, op)`` coordinates a full
        event would carry.
        """
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        ring = self._ring
        if ring is not None:
            # RingTrace.record, inlined: this is the single hottest
            # telemetry line in the simulator (once per kernel event),
            # and skipping the method call keeps the always-on ring
            # within its overhead budget (see BENCH_trace.json).
            index = ring.next_index
            ring.times[index] = time
            ring.codes[index] = KIND_IDS[kind]
            ring.pids[index] = pid
            ring.ops[index] = op
            index += 1
            if index == ring.capacity:
                ring.next_index = 0
                ring.wraps += 1
            else:
                ring.next_index = index

    def emit(self, event: TraceEvent) -> None:
        """Record ``event`` and notify listeners."""
        kind = event.kind
        if self._capture:
            self._events.append(event)
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        ring = self._ring
        if ring is not None:
            ring.record(
                event.time, KIND_IDS[kind], event.pid, event.detail.get("op")
            )
        if self._all_listeners:
            for listener in list(self._all_listeners):
                listener(event)
        kind_listeners = self._kind_listeners.get(kind)
        if kind_listeners:
            for listener in list(kind_listeners):
                listener(event)

    def subscribe(
        self, listener: Listener, kinds: Optional[Sequence[str]] = None
    ) -> Callable[[], None]:
        """Register ``listener``; returns an unsubscribe function.

        With ``kinds=None`` the listener sees every event (and forces
        emitters onto the slow path for every kind).  With an explicit
        kind list it sees only those kinds, and every other kind keeps
        its allocation-free fast path.
        """
        if kinds is None:
            self._all_listeners.append(listener)
        else:
            for kind in kinds:
                self._kind_listeners.setdefault(kind, []).append(listener)
        self._recompute_wanted()

        def unsubscribe() -> None:
            if kinds is None:
                if listener in self._all_listeners:
                    self._all_listeners.remove(listener)
            else:
                for kind in kinds:
                    listeners = self._kind_listeners.get(kind, [])
                    if listener in listeners:
                        listeners.remove(listener)
                    if not listeners:
                        self._kind_listeners.pop(kind, None)
            self._recompute_wanted()

        return unsubscribe

    def _recompute_wanted(self) -> None:
        if self._capture or self._all_listeners:
            self._wanted = None
        else:
            self._wanted = frozenset(self._kind_listeners)

    # -- queries ---------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """All captured events, in emission order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` (works even when not capturing)."""
        return self._counts.get(kind, 0)

    def filter(
        self, kind: Optional[str] = None, pid: Optional[int] = None
    ) -> List[TraceEvent]:
        """Captured events matching the given kind and/or process."""
        return [
            event
            for event in self._events
            if (kind is None or event.kind == kind)
            and (pid is None or event.pid == pid)
        ]

    def format(self, kinds: Optional[List[str]] = None) -> str:
        """Human-readable transcript, optionally restricted to ``kinds``."""
        wanted = set(kinds) if kinds is not None else None
        lines = [
            str(event)
            for event in self._events
            if wanted is None or event.kind in wanted
        ]
        return "\n".join(lines)


class NullTrace(Trace):
    """A trace that wants nothing and records nothing.

    Components constructed without a trace share the module-level
    :data:`NULL_TRACE` singleton; it cannot capture and refuses
    listeners, so its fast path can never be deactivated.  Counts are
    dropped too: on a process-wide singleton they would aggregate
    unrelated runs, so keeping them would only cost dict work on the
    hot path to produce a meaningless number.  The flight recorder is
    off for the same reason.
    """

    def __init__(self):
        super().__init__(capture=False, flight_recorder=False)

    def subscribe(
        self, listener: Listener, kinds: Optional[Sequence[str]] = None
    ) -> Callable[[], None]:
        raise ValueError(
            "NULL_TRACE accepts no listeners; construct a Trace(capture=False) "
            "to observe a run without capturing it"
        )

    def tick(
        self, kind: str, time: float = 0.0, pid: int = -1, op: Any = None
    ) -> None:
        pass

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - safety net
        pass


#: Shared sink for components run without any trace.
NULL_TRACE = NullTrace()
