"""Experiment harnesses regenerating the paper's figures and claims.

One module per table/figure (``docs/protocols.md`` maps each algorithm
to its paper section; ``docs/benchmarks.md`` covers the non-paper
``bench`` harness):

* :mod:`repro.experiments.figure1` -- the persistent vs. transient runs
  of Figure 1 (overlapping-write semantics);
* :mod:`repro.experiments.figure6` -- both graphs of Figure 6 (write
  latency vs. cluster size; write latency vs. payload size);
* :mod:`repro.experiments.lower_bounds` -- the adversarial runs behind
  Theorems 1 and 2 (Figures 2 and 3): two schedules,
  ``confused_values`` (Theorem 1) and ``reader_across_write``
  (Theorem 2), over four shared moves that every scripted run here is
  built from;
* :mod:`repro.experiments.log_complexity` -- measured causal logs per
  operation vs. the paper's bounds;
* :mod:`repro.experiments.complexity` -- messages and communication
  steps per operation;
* :mod:`repro.experiments.ablations` -- one anomaly per removed design
  ingredient (forgotten/confused/orphan values, new/old inversion);
* :mod:`repro.experiments.weaker_memory` -- Section VI: the costs of
  regular vs. atomic emulations and the new/old inversion only the
  regular one allows.

Each harness returns plain data and offers a ``format_*`` helper that
prints the same rows/series the paper reports.
"""

from repro.experiments.figure6 import (
    Figure6Point,
    figure6_bottom,
    figure6_top,
    format_figure6_bottom,
    format_figure6_top,
)
from repro.experiments.log_complexity import (
    LogComplexityRow,
    format_log_complexity,
    measure_log_complexity,
)

__all__ = [
    "Figure6Point",
    "LogComplexityRow",
    "figure6_bottom",
    "figure6_top",
    "format_figure6_bottom",
    "format_figure6_top",
    "format_log_complexity",
    "measure_log_complexity",
]
