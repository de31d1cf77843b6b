"""Structured traces of runs: the event vocabulary every host records into.

Every interesting event in a run -- sends, deliveries, drops, stores,
invocations, replies, crashes, recoveries -- is recorded on a
:class:`Trace` with one call::

    trace.record(tracing.SEND, now, src, op, dst, message.kind, size)

``(time, pid, op)`` are the event's coordinates; up to three positional
detail values follow, named per kind by :data:`DETAIL_FIELDS`.  The
trace is the single source of truth for:

* the failure injector (triggers fire on trace events, which is how the
  adversarial schedules of the lower-bound proofs are reproduced);
* the metrics layer (latencies, message counts, log counts per
  operation);
* debugging (captured events print as a readable run transcript).

What an event costs when nobody is looking is decided here, not at the
call sites.  :meth:`Trace.record` always stores the event's
flight-recorder slot; only when the kind is *wanted* -- the trace
captures, a listener subscribed to every kind, or one subscribed to
that kind -- does it build a :class:`TraceEvent` (a dataclass plus a
detail dict, the single biggest per-event cost) for the capture list
and the listeners.  :meth:`Trace.wants` answers that question in O(1)
from a precomputed set, which is one shared empty set when nobody
listens, so a record tests it once, by identity.
:data:`NULL_TRACE` is a module-level sink for components run without
any trace at all; it records nothing and refuses listeners.

Counts.  :meth:`Trace.count` is exact, and a record pays nothing for
it: the ring holds every record's kind code and folds each completed
lap into per-kind totals (:meth:`repro.obs.ring.RingTrace.count`).

Flight recorder.  Independently of capture, every trace feeds a
bounded :class:`repro.obs.ring.RingTrace` of ``(time, kind-id, pid,
op)`` codes -- cheap enough to leave always on, so the tail of any run
is reconstructable after a crash without re-running with capture
enabled.  Its slot is written from :meth:`Trace.record`'s own
arguments before anything else, so the ring holds the same records
whether or not anyone captures or listens.  Recording never schedules
kernel events or consumes randomness, so observing a run cannot
change it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

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

#: kind -> the field names of its events' detail dict, in order.
#: ``"op"`` is filled from :meth:`Trace.record`'s ``op`` argument (the
#: kinds without it still carry ``op`` in the flight recorder); every
#: other name takes the next of ``record``'s three positional detail
#: slots.  The ring encodes kinds by their position here (KIND_IDS
#: below), so new kinds must be appended at the end to keep old
#: flight-recorder exports decodable.
DETAIL_FIELDS: Dict[str, Tuple[str, ...]] = {
    SEND: ("dst", "msg", "op", "size"),
    DELIVER: ("src", "msg", "op"),
    DROP: ("dst", "msg", "reason"),
    DUPLICATE: ("dst", "msg"),
    STORE_BEGIN: ("key", "size", "done_at", "op"),
    STORE_END: ("key", "size", "op"),
    INVOKE: ("op", "kind", "register"),
    REPLY: ("op", "kind", "causal_logs"),
    CRASH: (),
    RECOVER: (),
    RECOVERY_DONE: ("register",),
    TIMER: ("token", "register"),
    CKPT_BEGIN: ("seq", "entries"),
    CKPT_TENTATIVE: ("seq",),
    CKPT_COMMIT: ("seq", "entries", "truncated"),
}

ALL_KINDS = tuple(DETAIL_FIELDS)

#: kind name -> ring code, the binary encoding of the flight recorder.
KIND_IDS = {kind: code for code, kind in enumerate(ALL_KINDS)}

#: ``Trace._wanted`` when nobody captures or listens, told by identity.
_NOBODY: FrozenSet[str] = frozenset()


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

    A listener may subscribe to specific event ``kinds``; :meth:`record`
    then skips :class:`TraceEvent` construction entirely for kinds
    nobody wants (see the module docstring).
    """

    def __init__(self, capture: bool = True, ring_capacity: int = DEFAULT_CAPACITY):
        self._capture = capture
        #: The flight recorder.
        self.ring = RingTrace(capacity=ring_capacity, kinds=ALL_KINDS)
        self._events: List[TraceEvent] = []
        #: Listeners for every kind, in subscription order.
        self._all_listeners: List[Listener] = []
        #: kind -> listeners restricted to that kind.
        self._kind_listeners: Dict[str, List[Listener]] = {}
        #: ``None`` means every kind is wanted (capture on, or a
        #: listener subscribed without a kind restriction); ``_NOBODY``
        #: that none is.
        self._wanted: Optional[FrozenSet[str]] = None
        self._recompute_wanted()

    @property
    def capturing(self) -> bool:
        """Whether recorded events are retained in :attr:`events`."""
        return self._capture

    def wants(self, kind: str) -> bool:
        """Whether :meth:`record` builds a real event for ``kind``."""
        wanted = self._wanted
        return True if wanted is None else kind in wanted

    def record(
        self,
        kind: str,
        time: float,
        pid: int,
        op: Any = None,
        a: Any = None,
        b: Any = None,
        c: Any = None,
    ) -> None:
        """Record one ``kind`` event of process ``pid`` at ``time``.

        ``op`` is the operation the event belongs to; ``a``, ``b`` and
        ``c`` are the kind's other detail values, in the order of
        :data:`DETAIL_FIELDS`.  The flight-recorder slot is written
        inline; a :class:`TraceEvent` is built only when :meth:`wants`
        says someone captures or listens.
        """
        # RingTrace.record, inlined: this is the single hottest
        # telemetry line in the simulator (once per kernel event), and
        # skipping the method call keeps the always-on ring within its
        # overhead budget.
        ring = self.ring
        index = ring.next_index
        ring.times[index] = time
        ring.codes[index] = KIND_IDS[kind]
        ring.pids[index] = pid
        ring.ops[index] = op
        index += 1
        if index == ring.end:
            ring.wrap()
        else:
            ring.next_index = index
        if self._wanted is not _NOBODY:
            wanted = self._wanted
            if wanted is None or kind in wanted:
                self._publish(kind, time, pid, op, (a, b, c))

    def _publish(
        self, kind: str, time: float, pid: int, op: Any, values: Tuple[Any, ...]
    ) -> None:
        """Build the event, capture it and run its listeners."""
        slots = iter(values)
        detail = {
            name: op if name == "op" else next(slots) for name in DETAIL_FIELDS[kind]
        }
        event = TraceEvent(time=time, kind=kind, pid=pid, detail=detail)
        if self._capture:
            self._events.append(event)
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

        With ``kinds=None`` the listener sees every event (and makes
        :meth:`record` build one for every kind).  With an explicit
        kind list it sees only those kinds, and every other kind stays
        allocation-free.
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
            self._wanted = frozenset(self._kind_listeners) or _NOBODY

    # -- queries ---------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """All captured events, in recording order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` (works even when not capturing)."""
        return self.ring.count(kind)


class NullTrace(Trace):
    """A trace that wants nothing and records nothing.

    Components constructed without a trace share the module-level
    :data:`NULL_TRACE` singleton; it cannot capture and refuses
    listeners, so its fast path can never be deactivated.  Nothing
    reaches its one-slot ring either: on a process-wide singleton the
    records and counts would mix unrelated runs.
    """

    def __init__(self):
        super().__init__(capture=False, ring_capacity=1)

    def subscribe(
        self, listener: Listener, kinds: Optional[Sequence[str]] = None
    ) -> Callable[[], None]:
        raise ValueError(
            "NULL_TRACE accepts no listeners; construct a Trace(capture=False) "
            "to observe a run without capturing it"
        )

    def record(
        self,
        kind: str,
        time: float,
        pid: int,
        op: Any = None,
        a: Any = None,
        b: Any = None,
        c: Any = None,
    ) -> None:
        pass


#: Shared sink for components run without any trace.
NULL_TRACE = NullTrace()
