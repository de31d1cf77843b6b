"""Ablation benches: each removed ingredient costs its anomaly.

docs/protocols.md calls out four design choices of the algorithms;
each bench runs the weakened protocol under its adversarial schedule
(anomaly must appear) and the correct protocol under the same schedule
(anomaly must not).
"""

import pytest

from repro.experiments.ablations import (
    ablate_majority_quorum,
    ablate_read_writeback,
    ablate_recovery_counter,
    ablate_writer_prelog,
    format_ablations,
    run_all_ablations,
)

ABLATIONS = {
    "writer-prelog": ablate_writer_prelog,
    "read-writeback": ablate_read_writeback,
    "recovery-counter": ablate_recovery_counter,
    "majority-quorum": ablate_majority_quorum,
}


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablation(name):
    result = ABLATIONS[name]()
    assert result.demonstrated, (
        f"{name}: broken={result.broken_verdict.ok} "
        f"control={result.control_verdict.ok}"
    )


def test_full_table(write_result):
    results = run_all_ablations()
    write_result("ablations", format_ablations(results))
