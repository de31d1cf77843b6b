"""``repro.obs``: low-overhead telemetry for every backend.

Four pieces, one discipline (resolve handles once, never pay a dict
lookup or a feature branch on the hot path):

* :mod:`repro.obs.metrics` -- the counters / gauges / fixed-bucket
  histogram registry behind ``Cluster.metrics()``, frozen into
  diffable, mergeable :class:`~repro.obs.metrics.MetricsSnapshot`\\ s.
* :mod:`repro.obs.ring` -- the always-on binary flight recorder the
  sim trace and the live transports feed; decodes to ``TraceEvent``
  streams, JSONL and Chrome ``trace_event`` JSON on demand.
* :mod:`repro.obs.tracing` -- the event-kind vocabulary and the
  :class:`~repro.obs.tracing.Trace` sink the engine, the process host
  and the live runtime emit into.
* :mod:`repro.obs.summary` -- the single exact percentile /
  ``LatencyStats`` implementation.

None of it consumes kernel events or randomness: seeded runs are
byte-identical with telemetry on or off (the determinism goldens
assert exactly that).  See ``docs/observability.md``.
"""

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
from repro.obs.ring import DEFAULT_CAPACITY, RingEvent, RingTrace
from repro.obs.summary import LatencyStats, percentile

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LatencyStats",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RingEvent",
    "RingTrace",
    "merge_snapshots",
    "percentile",
]
