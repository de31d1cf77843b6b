"""The flight recorder: a bounded binary ring of trace codes.

Where a capturing :class:`repro.obs.tracing.Trace` stores one frozen
``TraceEvent`` dataclass (with a detail dict) per event, the ring
stores four parallel list slots per event -- time, a small-int kind
code, the node id and an opaque op reference -- and overwrites the
oldest entry when full.  A slot store allocates *nothing* (the stored
objects already exist on the caller's frame) and triggers no cyclic-GC
bookkeeping, which is what makes the recorder cheap enough to leave
**always on**: when a soak run crashes or a checker flags a violation,
the last ``capacity`` events are already in memory, no re-run with
capture enabled required.

The slots are sized to the run: a ring opens with ``min(capacity,
1024)`` of them and doubles, up to ``capacity``, each time its cursor
reaches the allocated end, so a short run never pays for a window it
does not fill.

Recording never touches the kernel: no events, no randomness, no
allocation beyond the slot assignments (and the rare growth).  The
hot-path attributes are deliberately public so the simulator's trace
and the live transport can inline the store sequence without a method
call per event (see :meth:`repro.obs.tracing.Trace.record`); every
writer, :meth:`RingTrace.record` included, ends by comparing the
cursor with :attr:`RingTrace.end` and leaves the rare branch to
:meth:`RingTrace.wrap`, the one place the ring grows, wraps and counts
its laps.  Decoding is on demand only: :meth:`RingTrace.events` yields
light tuples in chronological order, and
:meth:`RingTrace.to_chrome_trace` / :meth:`RingTrace.to_jsonl` export
them for chrome://tracing and scripts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence, Tuple

#: Default ring capacity: 64Ki events (~2MB of slots once grown) holds
#: the full tail of any scenario phase while staying negligible next to
#: the history the checker keeps anyway.
DEFAULT_CAPACITY = 65536

#: Slots a ring opens with (fewer if its capacity is smaller).
FIRST_SLOTS = 1024


class RingEvent(NamedTuple):
    """One decoded flight-recorder entry."""

    time: float
    kind: str
    pid: int
    op: Any


class RingTrace:
    """Bounded ring of ``(time, kind-id, pid, op)`` codes.

    ``kinds`` is the kind-name table; recorded slots carry the *index*
    into it (resolve once via :meth:`kind_id` at wiring time, the same
    pre-resolved-handle discipline as the metrics registry).

    The slot lists (:attr:`times`/:attr:`codes`/:attr:`pids`/
    :attr:`ops`), their allocated length :attr:`end` and the
    :attr:`next_index` cursor are public on purpose: they are the
    inlinable hot path.  A writer stores into all four lists at
    ``next_index``, advances the cursor, and calls :meth:`wrap` instead
    when the cursor reaches ``end`` -- :attr:`total` is derived from
    the cursor, so recording an event costs no separate counter update.
    """

    __slots__ = ("kinds", "capacity", "end", "times", "codes", "pids", "ops",
                 "next_index", "wraps", "_lapped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 kinds: Sequence[str] = ()) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.kinds = tuple(kinds)
        self.capacity = capacity
        #: Slots allocated so far: grows to ``capacity`` in :meth:`wrap`.
        self.end = end = min(capacity, FIRST_SLOTS)
        self.times: List[float] = [0.0] * end
        self.codes: List[int] = [0] * end
        self.pids: List[int] = [0] * end
        self.ops: List[Any] = [None] * end
        #: Next slot to overwrite, and completed trips around the ring.
        self.next_index = 0
        self.wraps = 0
        # Kind code -> its records in the completed laps.
        self._lapped: Counter = Counter()

    def kind_id(self, kind: str) -> int:
        """Resolve a kind name to its code (do this once, not per event)."""
        return self.kinds.index(kind)

    def record(self, time: float, kind_id: int, pid: int, op: Any) -> None:
        """Append one event, overwriting the oldest when full."""
        index = self.next_index
        self.times[index] = time
        self.codes[index] = kind_id
        self.pids[index] = pid
        self.ops[index] = op
        index += 1
        if index == self.end:
            self.wrap()
        else:
            self.next_index = index

    def wrap(self) -> None:
        """Move the cursor on from the allocated end: every writer's rare branch.

        Short of ``capacity`` the slots double (at most to ``capacity``)
        and the cursor runs on into the new ones; at ``capacity`` the
        lap just completed is folded into the per-kind totals, one
        C-speed pass, and the cursor returns to the oldest slot.
        """
        end = self.end
        if end < self.capacity:
            more = min(end, self.capacity - end)
            self.times += [0.0] * more
            self.codes += [0] * more
            self.pids += [0] * more
            self.ops += [None] * more
            self.end = end + more
            self.next_index = end
        else:
            self._lapped.update(self.codes)
            self.wraps += 1
            self.next_index = 0

    @property
    def total(self) -> int:
        """Events ever recorded (including since-overwritten ones)."""
        return self.wraps * self.capacity + self.next_index

    def count(self, kind: str) -> int:
        """Events of ``kind`` ever recorded, overwritten ones included."""
        if kind not in self.kinds:
            return 0
        code = self.kinds.index(kind)
        return self._lapped[code] + self.codes[: self.next_index].count(code)

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring wrapped."""
        return max(0, self.total - self.capacity)

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    def _indexes(self) -> Iterator[int]:
        """Retained slot indexes, oldest first."""
        if self.wraps == 0:
            yield from range(self.next_index)
        else:
            yield from range(self.next_index, self.capacity)
            yield from range(self.next_index)

    def events(self) -> List[RingEvent]:
        """Decode the retained window, oldest first."""
        times, codes, pids, ops, kinds = (
            self.times, self.codes, self.pids, self.ops, self.kinds
        )
        return [
            RingEvent(times[i], kinds[codes[i]], pids[i], ops[i])
            for i in self._indexes()
        ]

    def to_jsonl(self) -> str:
        """One compact JSON object per retained event."""
        lines = []
        for event in self.events():
            record: Dict[str, Any] = {
                "t": event.time, "kind": event.kind, "pid": event.pid,
            }
            if event.op is not None:
                record["op"] = str(event.op)
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The window as Chrome ``trace_event`` JSON (object form).

        Load the dumped dict in ``chrome://tracing`` or Perfetto: each
        event is a thread-scoped instant on the row of the node that
        produced it, timestamped in microseconds of simulated (or
        wall) time.
        """
        decoded = self.events()
        trace_events: List[Dict[str, Any]] = []
        for event in decoded:
            entry: Dict[str, Any] = {
                "name": event.kind,
                "ph": "i",
                "s": "t",
                "ts": event.time * 1e6,
                "pid": 0,
                "tid": event.pid,
            }
            if event.op is not None:
                entry["args"] = {"op": str(event.op)}
            trace_events.append(entry)
        metadata = [
            {
                "name": "thread_name", "ph": "M", "pid": 0, "tid": pid,
                "args": {"name": f"p{pid}"},
            }
            for pid in sorted({event.pid for event in decoded})
        ]
        return {
            "displayTimeUnit": "ms",
            "traceEvents": metadata + trace_events,
        }

    def counts(self) -> Dict[str, int]:
        """Per-kind totals of the *retained* window."""
        totals: Dict[str, int] = {}
        kinds = self.kinds
        codes = self.codes
        for i in self._indexes():
            kind = kinds[codes[i]]
            totals[kind] = totals.get(kind, 0) + 1
        return totals

    def __repr__(self) -> str:
        return (
            f"RingTrace(capacity={self.capacity}, retained={len(self)}, "
            f"total={self.total})"
        )


__all__: Tuple[str, ...] = (
    "DEFAULT_CAPACITY", "RingEvent", "RingTrace",
)
