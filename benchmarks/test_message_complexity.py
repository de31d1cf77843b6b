"""Message/time complexity bench (Sections I-D and IV-B).

Regenerates the claim that the crash-recovery algorithms cost the same
4 communication steps and the same message count per operation as the
crash-stop baseline -- log-optimality is free in messages and rounds.
"""

import pytest

from repro.experiments.complexity import (
    COMPLEXITY_ALGORITHMS,
    EXPECTED_STEPS,
    format_complexity,
    measure_complexity,
)


@pytest.mark.parametrize("algorithm", COMPLEXITY_ALGORITHMS)
def test_algorithm_complexity(algorithm):
    result = measure_complexity((algorithm,), 5, 5)[0]
    for kind in ("read", "write"):
        assert result.steps_of(kind) == EXPECTED_STEPS[algorithm][kind]


def test_full_table(write_result):
    results = measure_complexity()
    write_result("message_complexity", format_complexity(results))
    by_name = {result.algorithm: result for result in results}
    # The paper's headline claim, asserted:
    for kind in ("read", "write"):
        assert (
            by_name["crash-stop"].messages_of(kind)
            == by_name["transient"].messages_of(kind)
            == by_name["persistent"].messages_of(kind)
        )
        assert (
            by_name["crash-stop"].steps_of(kind)
            == by_name["transient"].steps_of(kind)
            == by_name["persistent"].steps_of(kind)
            == 4
        )
