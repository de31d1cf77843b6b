"""Figure 6 (top): average write time vs. number of workstations.

Regenerates the paper's first experiment -- 50 writes of a 4-byte
integer on N = 3, 5, 7, 9 workstations for the crash-stop, transient
and persistent algorithms -- and asserts the paper's shape:

* at every N: crash-stop < transient < persistent;
* the gaps are one and two log latencies (lambda ~ 200 us);
* latency is nearly flat in N.

The paper's absolute numbers at N = 5 are ~500/700/900 us; the
simulator, calibrated to the same delta/lambda, lands within a few
percent of the same ratios.
"""

import pytest

from repro.common.config import PAPER_LAMBDA
from repro.experiments.figure6 import (
    FIGURE6_ALGORITHMS,
    FIGURE6_SIZES,
    figure6_top,
    format_figure6_top,
)


@pytest.mark.parametrize("algorithm", FIGURE6_ALGORITHMS)
@pytest.mark.parametrize("num_processes", FIGURE6_SIZES)
def test_write_latency_point(algorithm, num_processes):
    """One point of the graph: 50 sequential 4-byte writes."""
    figure6_top(sizes=(num_processes,), algorithms=(algorithm,), repeats=50)


def test_full_figure(write_result):
    """The whole graph, with the paper's qualitative claims asserted."""
    series = figure6_top(repeats=50)
    table = format_figure6_top(series)
    write_result("figure6_top", table)

    lam_us = PAPER_LAMBDA * 1e6
    for idx in range(len(FIGURE6_SIZES)):
        crash_stop = series["crash-stop"][idx].mean_us
        transient = series["transient"][idx].mean_us
        persistent = series["persistent"][idx].mean_us
        assert crash_stop < transient < persistent
        assert transient - crash_stop == pytest.approx(lam_us, rel=0.2)
        assert persistent - crash_stop == pytest.approx(2 * lam_us, rel=0.2)
    # At N=5 the paper reports 500/700/900us; check the ratios.
    n5 = {name: series[name][1].mean_us for name in series}
    assert n5["transient"] / n5["crash-stop"] == pytest.approx(1.4, rel=0.1)
    assert n5["persistent"] / n5["crash-stop"] == pytest.approx(1.8, rel=0.1)
