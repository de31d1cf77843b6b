"""Section VI bench: safe/regular vs. atomic emulations.

Regenerates the concluding remarks' argument as a table: the regular
emulation matches the transient one on every logging cost and only
saves a message round trip on reads -- while giving up atomicity
(the new/old inversion run).
"""

import pytest

from repro.experiments.weaker_memory import (
    COMPARED,
    format_costs,
    format_inversions,
    measure_costs,
    new_old_inversion_run,
)


@pytest.mark.parametrize("algorithm", COMPARED)
def test_cost_point(algorithm):
    measure_costs((algorithm,), 5, 20)


def test_full_table(write_result):
    rows = measure_costs(repeats=20)
    inversions = [new_old_inversion_run(a) for a in COMPARED]
    text = format_costs(rows) + "\n\n" + format_inversions(inversions)
    write_result("weaker_memory", text)

    by_name = {row.algorithm: row for row in rows}
    # Section VI's claims, asserted:
    assert by_name["regular"].write_causal_logs == 1  # writes always log
    assert by_name["regular"].read_causal_logs == 0  # reads never do
    assert by_name["transient"].read_causal_logs == 0  # ...but neither
    # do crash-free atomic reads, so the only saving is delta, not lambda.
    inversion = {run.algorithm: run for run in inversions}
    assert not inversion["regular"].atomic
    assert inversion["regular"].regular
    assert inversion["transient"].atomic
