"""Metrics registry: counters, gauges and fixed-bucket histograms.

The hot-path contract is *pre-resolved handles*: instrumented code asks
the registry for a :class:`Counter` / :class:`Gauge` / :class:`Histogram`
once, at wiring time, and then updates the returned object with plain
attribute arithmetic -- no dict lookup, no string hashing, no branching
on "is telemetry enabled" inside the kernel loop.

* :class:`Counter` -- monotonic ``inc``-only total.
* :class:`Gauge` -- a point-in-time value; either ``set()`` by the
  producer or *pull-based* (constructed with ``fn=``), sampled only
  when a snapshot is taken.  Pull gauges are how the backends expose
  their existing native counters (``SimNetwork.messages_sent`` etc.)
  with **zero** added hot-path cost.
* :class:`Histogram` -- fixed geometric buckets with ``O(log buckets)``
  ``observe`` and p50/p99 estimated from bucket counts.  The estimate
  is validated against the exact :func:`repro.obs.summary.percentile`
  in the unit tests; both share one quantile convention.
* :class:`MetricsRegistry` -- the name -> instrument directory;
  ``snapshot()`` freezes everything into a :class:`MetricsSnapshot`.
* :class:`MetricsSnapshot` -- plain data; ``diff`` (per-phase windows)
  and ``merge`` (future fleet aggregation) compose snapshots.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import fsum
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.summary import percentile  # noqa: F401  (shared convention)

#: Default histogram bucket upper bounds: geometric, factor 2, from one
#: microsecond to ~134 seconds -- covers both simulated-time operation
#: latencies (tens of microseconds) and wall-clock phases.  A final
#: implicit +inf bucket catches everything above.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    1e-6 * (2.0 ** i) for i in range(28)
)


class Counter:
    """A monotonically increasing total, updated via a resolved handle."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value: ``set()`` by hand or pulled via ``fn``.

    Pull gauges (``fn`` given) cost nothing until a snapshot samples
    them -- the instrumented code keeps updating its own plain ``int``
    attribute exactly as before.
    """

    __slots__ = ("name", "value", "fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def sample(self) -> float:
        return self.fn() if self.fn is not None else self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name})"


class Histogram:
    """Fixed-bucket histogram with percentile estimates.

    ``observe`` is a ``bisect`` over the static bound table plus two
    integer adds -- cheap enough for per-operation latencies.  Bucket
    counts are exact; quantiles are estimated by linear interpolation
    inside the winning bucket (tested against the exact percentile to
    within one bucket's width).
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum",
                 "minimum", "maximum")

    def __init__(self, name: str,
                 bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot: > bounds[-1]
        self.total = 0
        self.sum = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-th percentile (0..100) from bucket counts."""
        return self.snapshot().quantile(q)

    def snapshot(self) -> "HistogramSnapshot":
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(self.counts),
            total=self.total,
            sum=self.sum,
            minimum=self.minimum,
            maximum=self.maximum,
        )

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.total})"


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state: exact bucket counts plus extremes.

    ``diff`` subtracts bucket counts (a window of a monotonic series).
    A window's exact extremes are not recoverable from cumulative ones,
    so a diff takes them from the window's own non-empty buckets -- the
    lower edge of the first, the upper edge of the last -- clamped into
    the run's ``[minimum, maximum]``: two windows with disjoint ranges
    report different extremes, each within one bucket of the truth.
    """

    bounds: Tuple[float, ...]
    counts: Tuple[int, ...]
    total: int
    sum: float
    minimum: Optional[float]
    maximum: Optional[float]

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-th percentile (0..100) from bucket counts.

        Linear interpolation inside the winning bucket, clamped into
        ``[minimum, maximum]``: the buckets are powers of two, so an
        unclamped estimate can land outside every observed value.
        """
        if self.total == 0:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        target = self.total * (q / 100.0)
        cumulative = 0
        estimate = self.maximum
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (self.bounds[index] if index < len(self.bounds)
                         else (self.maximum or lower))
                upper = max(upper, lower)
                fraction = (target - cumulative) / count
                estimate = lower + (upper - lower) * fraction
                break
            cumulative += count
        return min(max(estimate, self.minimum), self.maximum)

    def diff(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        if earlier.bounds != self.bounds:
            raise ValueError("cannot diff histograms with different buckets")
        counts = tuple(a - b for a, b in zip(self.counts, earlier.counts))
        filled = [index for index, count in enumerate(counts) if count]
        minimum = maximum = None
        if filled:
            bounds, first, last = self.bounds, filled[0], filled[-1]
            minimum = self.minimum if first == 0 else max(bounds[first - 1], self.minimum)
            maximum = self.maximum if last == len(bounds) else min(bounds[last], self.maximum)
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=counts,
            total=self.total - earlier.total,
            sum=self.sum - earlier.sum,
            minimum=minimum,
            maximum=maximum,
        )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        extremes = [v for v in (self.minimum, other.minimum) if v is not None]
        peaks = [v for v in (self.maximum, other.maximum) if v is not None]
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            sum=self.sum + other.sum,
            minimum=min(extremes) if extremes else None,
            maximum=max(peaks) if peaks else None,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.total,
            "sum": self.sum,
            "mean": (self.sum / self.total) if self.total else 0.0,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(50.0),
            "p99": self.quantile(99.0),
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, backend-uniform view of every registered instrument.

    ``scalars`` holds counter totals and sampled gauge values keyed by
    metric name; ``histograms`` holds :class:`HistogramSnapshot`
    objects.  Snapshots compose: ``later.diff(earlier)`` yields the
    window between two moments of one run (how scenarios attribute
    traffic to phases), ``a.merge(b)`` adds independent runs together
    (fleet aggregation).
    """

    scalars: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """The window between ``earlier`` and this snapshot of one run."""
        scalars = {
            name: value - earlier.scalars.get(name, 0)
            for name, value in self.scalars.items()
        }
        histograms = {}
        for name, snap in self.histograms.items():
            before = earlier.histograms.get(name)
            histograms[name] = snap.diff(before) if before else snap
        return MetricsSnapshot(scalars=scalars, histograms=histograms)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Elementwise sum of two independent snapshots."""
        scalars = dict(self.scalars)
        for name, value in other.scalars.items():
            scalars[name] = scalars.get(name, 0) + value
        histograms = dict(self.histograms)
        for name, snap in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = mine.merge(snap) if mine else snap
        return MetricsSnapshot(scalars=scalars, histograms=histograms)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly nested dict (stable key order via sorting)."""
        return {
            "scalars": {k: self.scalars[k] for k in sorted(self.scalars)},
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }

    def format(self, limit: Optional[int] = None) -> str:
        """An aligned text table, largest scalars first (CLI output)."""
        rows = sorted(
            self.scalars.items(), key=lambda kv: (-abs(kv[1]), kv[0])
        )
        if limit is not None:
            rows = rows[:limit]
        lines = []
        width = max((len(name) for name, _ in rows), default=0)
        for name, value in rows:
            rendered = f"{value:.6f}".rstrip("0").rstrip(".") \
                if isinstance(value, float) and value != int(value) \
                else f"{int(value)}"
            lines.append(f"{name:<{width}}  {rendered}")
        for name in sorted(self.histograms):
            snap = self.histograms[name]
            if snap.total == 0:
                continue
            summary = snap.as_dict()
            lines.append(
                f"{name}: n={summary['count']} "
                f"mean={summary['mean'] * 1e6:.1f}us "
                f"p50={summary['p50'] * 1e6:.1f}us "
                f"p99={summary['p99'] * 1e6:.1f}us "
                f"max={summary['max'] * 1e6:.1f}us"
            )
        return "\n".join(lines)


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Merge independent snapshots into one, insensitive to order.

    Pairwise :meth:`MetricsSnapshot.merge` is associative over counter
    values but accumulates float rounding in fold order; this helper
    sums every scalar and histogram ``sum`` with :func:`math.fsum`
    (exact accumulation, rounded once), so **any** permutation of the
    same snapshots produces the bit-identical merged snapshot.  That is
    the contract fleet aggregation relies on: per-run results land in
    completion order, which varies run to run, and the merged report
    must not.
    """
    snapshots = list(snapshots)
    scalar_parts: Dict[str, List[float]] = {}
    hist_parts: Dict[str, List[HistogramSnapshot]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.scalars.items():
            scalar_parts.setdefault(name, []).append(value)
        for name, hist in snapshot.histograms.items():
            hist_parts.setdefault(name, []).append(hist)
    histograms: Dict[str, HistogramSnapshot] = {}
    for name, parts in hist_parts.items():
        bounds = parts[0].bounds
        if any(part.bounds != bounds for part in parts[1:]):
            raise ValueError(
                f"cannot merge histogram {name!r}: bucket bounds differ"
            )
        extremes = [p.minimum for p in parts if p.minimum is not None]
        peaks = [p.maximum for p in parts if p.maximum is not None]
        histograms[name] = HistogramSnapshot(
            bounds=bounds,
            counts=tuple(
                sum(part.counts[i] for part in parts)
                for i in range(len(bounds) + 1)
            ),
            total=sum(part.total for part in parts),
            sum=fsum(part.sum for part in parts),
            minimum=min(extremes) if extremes else None,
            maximum=max(peaks) if peaks else None,
        )
    return MetricsSnapshot(
        scalars={
            name: fsum(parts) for name, parts in scalar_parts.items()
        },
        histograms=histograms,
    )


class MetricsRegistry:
    """The name -> instrument directory behind ``Cluster.metrics()``.

    Instruments are created on first request and returned verbatim on
    repeats, so wiring code can resolve handles idempotently.  A name
    identifies exactly one instrument kind; re-requesting it as a
    different kind is a :class:`ValueError` (catches wiring typos).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        handle = self._counters.get(name)
        if handle is None:
            self._check_free(name, "counter")
            handle = self._counters[name] = Counter(name)
        return handle

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        handle = self._gauges.get(name)
        if handle is None:
            self._check_free(name, "gauge")
            handle = self._gauges[name] = Gauge(name, fn=fn)
        elif fn is not None:
            handle.fn = fn
        return handle

    def histogram(self, name: str,
                  bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        handle = self._histograms.get(name)
        if handle is None:
            self._check_free(name, "histogram")
            handle = self._histograms[name] = Histogram(name, bounds=bounds)
        return handle

    def names(self) -> List[str]:
        return sorted(
            list(self._counters)
            + list(self._gauges)
            + list(self._histograms)
        )

    def snapshot(self) -> MetricsSnapshot:
        """Freeze every instrument (pull gauges are sampled here)."""
        scalars: Dict[str, float] = {}
        for name, counter in self._counters.items():
            scalars[name] = counter.value
        for name, gauge in self._gauges.items():
            scalars[name] = gauge.sample()
        return MetricsSnapshot(
            scalars=scalars,
            histograms={
                name: histogram.snapshot()
                for name, histogram in self._histograms.items()
            },
        )
