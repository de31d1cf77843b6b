"""Property tests for the flight recorder: a growing ring is a plain tail.

A :class:`~repro.obs.ring.RingTrace` opens small, doubles at its wrap
point up to its capacity, then overwrites its oldest slot and folds the
lap into its per-kind totals.  None of that may show: whatever the
capacity and however many records cross however many growth and wrap
boundaries, the ring reads as the list of every record kept to its last
``capacity``.  Both writers are held to it: :meth:`RingTrace.record`
and the inlined store of :meth:`repro.obs.tracing.Trace.record`.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.obs.ring import FIRST_SLOTS, RingEvent, RingTrace
from repro.obs.tracing import ALL_KINDS, Trace

KINDS = ALL_KINDS[:4]


def assert_is_the_tail(ring, records, capacity):
    """``ring`` reads as ``records`` (``(time, kind, pid, op)``) kept to ``capacity``."""
    retained = records[-capacity:]
    assert ring.events() == [RingEvent(*record) for record in retained]
    assert ring.total == len(records)
    assert len(ring) == len(retained)
    assert ring.dropped == len(records) - len(retained)
    assert ring.counts() == dict(Counter(kind for _, kind, _, _ in retained))
    every = Counter(kind for _, kind, _, _ in records)
    for kind in ALL_KINDS + ("no-such-kind",):
        assert ring.count(kind) == every[kind], kind
    assert len(ring.times) == len(ring.codes) == ring.end <= capacity


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 5000),
    laps=st.integers(0, 3),
    beyond=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_a_growing_ring_reads_as_the_tail_of_every_record(capacity, laps, beyond, seed):
    count = capacity * laps + int(beyond * capacity)
    rng = random.Random(seed)
    kinds = [rng.randrange(len(KINDS)) for _ in range(count)]
    records = [(float(i), KINDS[code], i % 7, i) for i, code in enumerate(kinds)]
    ring = RingTrace(capacity=capacity, kinds=ALL_KINDS)
    trace = Trace(capture=False, ring_capacity=capacity)
    for time, kind, pid, op in records:
        ring.record(time, ALL_KINDS.index(kind), pid, op)
        trace.record(kind, time, pid, op)
    for recorder in (ring, trace.ring):
        assert_is_the_tail(recorder, records, capacity)
    # Sized to the run: doubled from FIRST_SLOTS only as records filled it.
    end = min(capacity, FIRST_SLOTS)
    while end <= count and end < capacity:
        end = min(2 * end, capacity)
    assert ring.end == trace.ring.end == end
    assert [trace.count(kind) for kind in KINDS] == [ring.count(kind) for kind in KINDS]


@given(capacity=st.integers(1, 3 * FIRST_SLOTS), stop=st.integers(0, 6 * FIRST_SLOTS))
def test_the_ring_is_the_tail_at_every_point_it_can_stop(capacity, stop):
    ring = RingTrace(capacity=capacity, kinds=KINDS)
    records = [(float(i), KINDS[i % 3], 0, None) for i in range(stop)]
    for time, kind, pid, op in records:
        ring.record(time, KINDS.index(kind), pid, op)
    assert_is_the_tail(ring, records, capacity)
