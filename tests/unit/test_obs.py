"""Unit tests for :mod:`repro.obs`: summary math, metrics, the ring."""

import json
import math
import random

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.obs.ring import RingTrace
from repro.obs.summary import LatencyStats, percentile


class TestSummaryIsTheOneImplementation:
    def test_metrics_module_no_longer_reexports_summary(self):
        # repro.metrics keeps only run collection; the summary math has
        # one home and one import path.
        import repro.metrics as metrics

        for name in ("LatencyStats", "WallClockStats", "percentile"):
            assert not hasattr(metrics, name)

    def test_percentile_exact_values(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 0) == 10.0
        assert percentile(samples, 100) == 40.0
        assert percentile(samples, 50) == pytest.approx(25.0)

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_latency_stats_mean_us(self):
        stats = LatencyStats.from_samples([1e-3, 3e-3])
        assert stats.mean_us == pytest.approx(2000.0)


class TestHistogram:
    def test_observe_counts_and_extremes(self):
        histogram = Histogram("h")
        for value in (1e-6, 5e-6, 5e-6, 2.0):
            histogram.observe(value)
        assert histogram.total == 4
        assert histogram.minimum == 1e-6
        assert histogram.maximum == 2.0
        assert histogram.sum == pytest.approx(2.000011)

    def test_quantile_brackets_exact_percentile(self):
        # The bucket estimate must land within one geometric bucket of
        # the exact percentile: bounds grow by 2x, so estimate/exact
        # stays within [0.5, 2] for every quantile.
        rng = random.Random(7)
        samples = [rng.uniform(1e-5, 1e-2) for _ in range(500)]
        histogram = Histogram("h")
        for sample in samples:
            histogram.observe(sample)
        for q in (50.0, 90.0, 99.0):
            estimate = histogram.quantile(q)
            exact = percentile(samples, q)
            assert 0.5 <= estimate / exact <= 2.0, (q, estimate, exact)

    def test_quantile_empty_and_out_of_range(self):
        histogram = Histogram("h")
        assert histogram.quantile(50.0) is None
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(101.0)

    def test_overflow_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(50.0)
        assert histogram.counts == [0, 0, 1]
        # The overflow bucket's upper edge is the observed maximum.
        assert histogram.quantile(100.0) == pytest.approx(50.0)

    def test_snapshot_diff_and_merge(self):
        histogram = Histogram("h")
        histogram.observe(1e-4)
        first = histogram.snapshot()
        histogram.observe(1e-3)
        second = histogram.snapshot()
        window = second.diff(first)
        assert window.total == 1
        assert window.sum == pytest.approx(1e-3)
        merged = first.merge(window)
        assert merged.total == second.total
        assert merged.sum == pytest.approx(second.sum)
        assert merged.minimum == second.minimum
        with pytest.raises(ValueError):
            first.diff(Histogram("other", bounds=(1.0,)).snapshot())

    def test_as_dict_keys(self):
        histogram = Histogram("h")
        histogram.observe(1e-4)
        payload = histogram.snapshot().as_dict()
        assert set(payload) == {
            "count", "sum", "mean", "min", "max", "p50", "p99",
        }
        assert payload["count"] == 1
        assert payload["mean"] == pytest.approx(1e-4)


class TestRegistry:
    def test_handles_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.names() == ["c", "g", "h"]

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_counter_and_gauge_semantics(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = Gauge("g")
        gauge.set(3.5)
        assert gauge.sample() == 3.5
        pulled = Gauge("p", fn=lambda: 42)
        assert pulled.sample() == 42

    def test_snapshot_samples_pull_gauges_lazily(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.gauge("pull", fn=lambda: box["value"])
        box["value"] = 7
        assert registry.snapshot().scalars["pull"] == 7

    def test_snapshot_diff_and_merge(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        histogram = registry.histogram("lat")
        counter.inc(3)
        histogram.observe(2e-5)
        first = registry.snapshot()
        counter.inc(2)
        histogram.observe(4e-5)
        second = registry.snapshot()
        window = second.diff(first)
        assert window.scalars["ops"] == 2
        assert window.histograms["lat"].total == 1
        merged = first.merge(first)
        assert merged.scalars["ops"] == 6
        assert merged.histograms["lat"].total == 2

    def test_as_dict_and_format(self):
        registry = MetricsRegistry()
        registry.counter("big").inc(100)
        registry.counter("small").inc(1)
        registry.histogram("lat").observe(3e-5)
        snapshot = registry.snapshot()
        payload = snapshot.as_dict()
        assert list(payload["scalars"]) == ["big", "small"]
        assert json.dumps(payload)  # JSON-serializable throughout
        text = snapshot.format()
        assert text.index("big") < text.index("small")
        assert "lat: n=1" in text


class TestRingTrace:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingTrace(capacity=0)

    def test_records_and_decodes_in_order(self):
        ring = RingTrace(capacity=8, kinds=("send", "deliver"))
        send = ring.kind_id("send")
        deliver = ring.kind_id("deliver")
        ring.record(0.1, send, 0, "p0#1")
        ring.record(0.2, deliver, 1, None)
        assert ring.total == len(ring) == 2
        assert ring.dropped == 0
        events = ring.events()
        assert [event.kind for event in events] == ["send", "deliver"]
        assert events[0].op == "p0#1" and events[1].op is None
        assert ring.counts() == {"send": 1, "deliver": 1}

    def test_wraps_keeping_the_newest_window(self):
        ring = RingTrace(capacity=4, kinds=("k",))
        for i in range(11):
            ring.record(float(i), 0, i % 3, None)
        assert ring.total == 11
        assert len(ring) == 4
        assert ring.dropped == 7
        assert [event.time for event in ring.events()] == [7.0, 8.0, 9.0, 10.0]

    def test_storage_stays_fixed_while_wrapping(self):
        ring = RingTrace(capacity=4, kinds=("k",))
        for i in range(1000):
            ring.record(float(i), 0, 0, None)
        assert len(ring.times) == len(ring.ops) == 4  # preallocated slots
        assert ring.wraps == 250 and ring.next_index == 0
        assert ring.total == 1000
        assert [event.time for event in ring.events()] == [
            996.0, 997.0, 998.0, 999.0,
        ]

    def test_inlined_writer_form_matches_record(self):
        # The simulator's trace inlines record()'s store sequence; the
        # two write paths must express the same state machine.
        via_record = RingTrace(capacity=3, kinds=("k",))
        inlined = RingTrace(capacity=3, kinds=("k",))
        for i in range(7):
            via_record.record(float(i), 0, i, None)
            index = inlined.next_index
            inlined.times[index] = float(i)
            inlined.codes[index] = 0
            inlined.pids[index] = i
            inlined.ops[index] = None
            index += 1
            if index == inlined.capacity:
                inlined.next_index = 0
                inlined.wraps += 1
            else:
                inlined.next_index = index
        assert inlined.events() == via_record.events()
        assert inlined.total == via_record.total == 7

    def test_to_trace_events_rehydrates(self):
        from repro.obs.tracing import TraceEvent

        ring = RingTrace(capacity=4, kinds=("send",))
        ring.record(0.5, 0, 2, "p2#9")
        (event,) = ring.to_trace_events()
        assert isinstance(event, TraceEvent)
        assert event.kind == "send" and event.pid == 2
        assert event.detail == {"op": "p2#9"}

    def test_jsonl_export(self):
        ring = RingTrace(capacity=4, kinds=("send",))
        ring.record(0.5, 0, 2, "p2#9")
        ring.record(0.6, 0, 1, None)
        lines = ring.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"t": 0.5, "kind": "send", "pid": 2, "op": "p2#9"}
        assert "op" not in json.loads(lines[1])
        assert RingTrace(capacity=2).to_jsonl() == ""

    def test_chrome_trace_export(self):
        ring = RingTrace(capacity=4, kinds=("send", "deliver"))
        ring.record(0.001, 0, 0, "p0#1")
        ring.record(0.002, 1, 1, None)
        payload = ring.to_chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        names = [entry["name"] for entry in payload["traceEvents"]]
        assert names == ["thread_name", "thread_name", "send", "deliver"]
        instants = payload["traceEvents"][2:]
        assert instants[0]["ts"] == pytest.approx(1000.0)
        assert instants[0]["args"] == {"op": "p0#1"}
        assert all(entry["ph"] == "i" for entry in instants)
        assert json.dumps(payload)

    def test_repr(self):
        ring = RingTrace(capacity=4, kinds=("k",))
        ring.record(0.0, 0, 0, None)
        assert repr(ring) == "RingTrace(capacity=4, retained=1, total=1)"


class TestDefaultBuckets:
    def test_geometric_and_sorted(self):
        assert len(DEFAULT_BUCKETS) == 28
        assert DEFAULT_BUCKETS[0] == 1e-6
        for lower, upper in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]):
            assert upper == pytest.approx(lower * 2.0)
        assert math.isclose(DEFAULT_BUCKETS[-1], 1e-6 * 2 ** 27)


class TestSnapshotDefaults:
    def test_empty_snapshot_composes(self):
        empty = MetricsSnapshot()
        assert empty.diff(MetricsSnapshot()).scalars == {}
        assert empty.merge(MetricsSnapshot()).histograms == {}
        assert empty.as_dict() == {"scalars": {}, "histograms": {}}
        assert empty.format() == ""


def _random_snapshot(rng):
    """A snapshot with awkward float scalars and a populated histogram."""
    hist = Histogram("lat")
    for _ in range(rng.randrange(1, 40)):
        hist.observe(rng.uniform(1e-6, 5.0))
    return MetricsSnapshot(
        scalars={
            "ops": float(rng.randrange(1000)),
            # Deliberately rounding-hostile magnitudes: pairwise float
            # folds of these differ by fold order; merge_snapshots
            # must not.
            "clock": rng.uniform(0, 1e12),
            "drift": rng.uniform(0, 1e-9),
        },
        histograms={"lat": hist.snapshot()},
    )


class TestMergeSnapshots:
    """The fleet-aggregation contract: merge order must not matter."""

    def test_matches_pairwise_merge_semantics(self):
        rng = random.Random(7)
        a, b = _random_snapshot(rng), _random_snapshot(rng)
        folded = merge_snapshots([a, b])
        pairwise = a.merge(b)
        assert folded.scalars["ops"] == pairwise.scalars["ops"]
        assert folded.histograms["lat"].counts == pairwise.histograms["lat"].counts
        assert folded.histograms["lat"].sum == pytest.approx(
            pairwise.histograms["lat"].sum
        )

    def test_any_permutation_is_bit_identical(self):
        rng = random.Random(13)
        snapshots = [_random_snapshot(rng) for _ in range(9)]
        reference = merge_snapshots(snapshots)
        for seed in range(5):
            shuffled = snapshots[:]
            random.Random(seed).shuffle(shuffled)
            permuted = merge_snapshots(shuffled)
            # Bit-identical, not approx: fleet results land in
            # completion order, which varies run to run, and the
            # merged report must not vary with it.
            assert permuted.scalars == reference.scalars
            assert permuted.histograms == reference.histograms

    def test_associativity_against_incremental_fold(self):
        rng = random.Random(5)
        snapshots = [_random_snapshot(rng) for _ in range(4)]
        left = merge_snapshots(
            [merge_snapshots(snapshots[:2]), merge_snapshots(snapshots[2:])]
        )
        flat = merge_snapshots(snapshots)
        assert left.histograms["lat"].counts == flat.histograms["lat"].counts
        assert left.histograms["lat"].total == flat.histograms["lat"].total
        for name in flat.scalars:
            assert left.scalars[name] == pytest.approx(
                flat.scalars[name], rel=1e-15
            )

    def test_disjoint_metric_names_union(self):
        a = MetricsSnapshot(scalars={"x": 1.0})
        b = MetricsSnapshot(scalars={"y": 2.0})
        merged = merge_snapshots([a, b])
        assert merged.scalars == {"x": 1.0, "y": 2.0}

    def test_mismatched_bounds_raise(self):
        small = Histogram("lat", bounds=(1.0, 2.0))
        small.observe(1.5)
        big = Histogram("lat")
        big.observe(1.5)
        with pytest.raises(ValueError):
            merge_snapshots(
                [
                    MetricsSnapshot(histograms={"lat": small.snapshot()}),
                    MetricsSnapshot(histograms={"lat": big.snapshot()}),
                ]
            )

    def test_empty_input_merges_to_empty(self):
        merged = merge_snapshots([])
        assert merged.scalars == {} and merged.histograms == {}


class TestWireForm:
    """Lossless snapshot round-trip across process/file boundaries."""

    def test_histogram_wire_round_trip(self):
        hist = Histogram("lat")
        for value in (1e-6, 3e-4, 0.5, 40.0):
            hist.observe(value)
        snap = hist.snapshot()
        clone = HistogramSnapshot.from_wire(
            json.loads(json.dumps(snap.to_wire()))
        )
        assert clone == snap  # exact: bucket counts survive, not summaries
        assert clone.quantile(99.0) == snap.quantile(99.0)

    def test_snapshot_wire_round_trip_preserves_merge(self):
        rng = random.Random(3)
        a, b = _random_snapshot(rng), _random_snapshot(rng)
        a_clone = MetricsSnapshot.from_wire(
            json.loads(json.dumps(a.to_wire()))
        )
        merged = merge_snapshots([a_clone, b])
        direct = merge_snapshots([a, b])
        assert merged.scalars == direct.scalars
        assert merged.histograms == direct.histograms
