"""Shared summary statistics: the single percentile implementation.

Home of the exact (sample-sorting) percentile math and the latency
summary the experiment harnesses report, kept beside the telemetry
layer's bucketed histograms (:mod:`repro.obs.metrics`) so both are one
family with one quantile convention instead of two drifting copies.

* :func:`percentile` -- exact ``q``-th percentile with linear
  interpolation, small-sample friendly.
* :class:`LatencyStats` -- simulated-time latency summary in the units
  the paper's graphs use.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Small-sample friendly: ``p99`` of five samples interpolates toward
    the maximum instead of requiring a hundred runs.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * (q / 100.0)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


@dataclass
class LatencyStats:
    """Summary statistics of a latency sample, in seconds."""

    count: int = 0
    mean: float = 0.0
    median: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    stdev: float = 0.0

    @classmethod
    def from_samples(cls, samples: List[float]) -> "LatencyStats":
        if not samples:
            return cls()
        return cls(
            count=len(samples),
            mean=statistics.fmean(samples),
            median=statistics.median(samples),
            minimum=min(samples),
            maximum=max(samples),
            stdev=statistics.pstdev(samples) if len(samples) > 1 else 0.0,
        )

    @property
    def mean_us(self) -> float:
        """Mean in microseconds, the unit of the paper's graphs."""
        return self.mean * 1e6
