"""Log-complexity table: measured causal logs per operation.

The paper's central cost claims (Section IV), regenerated as
measurements: the persistent algorithm's writes use 2 causal logs, the
transient algorithm's 1, reads at most 1 (0 crash-free), the crash-stop
baseline 0, and the naive strawman 4/3 -- under sequential, concurrent
and crashy workloads.
"""

import pytest

from repro.api import open_cluster
from repro.experiments.log_complexity import (
    EXPECTED_SEQUENTIAL_WRITE,
    format_log_complexity,
    measure_log_complexity,
)


@pytest.mark.parametrize(
    "algorithm,expected", sorted(EXPECTED_SEQUENTIAL_WRITE.items())
)
def test_sequential_write_logs(algorithm, expected):
    """Causal logs of one crash-free write, per algorithm."""
    cluster = open_cluster("sim", protocol=algorithm, num_processes=5).start()
    assert cluster.session(0).write_sync(b"1234").causal_logs == expected


def test_full_table(write_result):
    rows = measure_log_complexity(operations=30, seed=0)
    table = format_log_complexity(rows)
    write_result("log_complexity", table)
    assert all(row.within_bound for row in rows), table
