"""Figure 6 (bottom): average write time vs. payload size at N = 5.

Regenerates the paper's second experiment -- writes of increasing size
up to the 64 KB UDP limit on five workstations -- and asserts its
claim: "for relatively small data sizes, the time it takes to log and
the time it takes to send a message over the network increases
linearly".
"""

import pytest

from repro.experiments.figure6 import (
    FIGURE6_ALGORITHMS,
    FIGURE6_PAYLOADS,
    figure6_bottom,
    format_figure6_bottom,
    linearity_of,
)


@pytest.mark.parametrize("algorithm", FIGURE6_ALGORITHMS)
def test_payload_sweep(algorithm):
    """One curve of the graph: the full payload sweep for one algorithm."""
    points = figure6_bottom(algorithms=(algorithm,), repeats=10)[algorithm]
    _, _, r_squared = linearity_of(points)
    assert r_squared > 0.999  # the paper's linearity claim


def test_full_figure(write_result):
    series = figure6_bottom(repeats=10)
    table = format_figure6_bottom(series)
    lines = [table, ""]
    for algorithm, points in series.items():
        slope, intercept, r2 = linearity_of(points)
        lines.append(
            f"{algorithm}: latency_us = {slope:.6f} * bytes + {intercept:.1f}"
            f"   (R^2 = {r2:.6f})"
        )
    write_result("figure6_bottom", "\n".join(lines))

    # Hierarchy preserved at every size, and slopes ordered: each log
    # pass adds per-byte disk cost.
    slopes = {name: linearity_of(points)[0] for name, points in series.items()}
    assert slopes["crash-stop"] < slopes["transient"] < slopes["persistent"]
    for idx in range(len(FIGURE6_PAYLOADS)):
        assert (
            series["crash-stop"][idx].mean_us
            < series["transient"][idx].mean_us
            < series["persistent"][idx].mean_us
        )
