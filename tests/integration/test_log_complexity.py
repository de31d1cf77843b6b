"""Integration: measured causal-log complexity matches the paper's claims."""

import pytest

from repro.api import open_cluster
from repro.experiments.log_complexity import (
    EXPECTED_BOUNDS,
    EXPECTED_SEQUENTIAL_WRITE,
    format_log_complexity,
    measure_log_complexity,
)


class TestSequentialCounts:
    """Crash-free sequential workloads measure the exact log counts."""

    @pytest.mark.parametrize(
        "protocol,expected", sorted(EXPECTED_SEQUENTIAL_WRITE.items())
    )
    def test_write_log_count(self, protocol, expected):
        cluster = open_cluster("sim", protocol=protocol, num_processes=5)
        cluster.start()
        for i in range(5):
            handle = cluster.session(0).write_sync(f"v{i}")
            assert handle.causal_logs == expected, (
                f"{protocol} write measured {handle.causal_logs} causal "
                f"logs, the paper says {expected}"
            )

    @pytest.mark.parametrize("protocol", ["crash-stop", "transient", "persistent"])
    def test_crash_free_reads_log_nothing(self, protocol):
        cluster = open_cluster("sim", protocol=protocol, num_processes=5)
        cluster.start()
        cluster.session(0).write_sync("x")
        for pid in range(5):
            handle = cluster.wait(cluster.session(pid).read())
            assert handle.causal_logs == 0


class TestBoundsUnderAdversity:
    def test_full_measurement_table_within_bounds(self):
        rows = measure_log_complexity(operations=20, seed=1)
        assert rows, "measurement produced no rows"
        offenders = [row for row in rows if not row.within_bound]
        assert not offenders, format_log_complexity(offenders)

    def test_table_covers_all_algorithms_and_workloads(self):
        rows = measure_log_complexity(operations=20, seed=1)
        algorithms = {row.algorithm for row in rows}
        workloads = {row.workload for row in rows}
        assert algorithms == {"crash-stop", "transient", "persistent", "naive"}
        assert workloads == {"sequential", "concurrent", "crashy"}

    def test_format_produces_a_readable_table(self):
        rows = measure_log_complexity(
            algorithms=("transient",), operations=8, seed=0
        )
        text = format_log_complexity(rows)
        assert "transient" in text
        assert "bound" in text


class TestLogComplexityHierarchy:
    def test_persistent_write_uses_exactly_one_more_log_than_transient(self):
        transient = open_cluster("sim", protocol="transient", num_processes=5)
        transient.start()
        persistent = open_cluster("sim", protocol="persistent", num_processes=5)
        persistent.start()
        t = transient.session(0).write_sync("x").causal_logs
        p = persistent.session(0).write_sync("x").causal_logs
        assert (t, p) == (1, 2)

    def test_stores_happen_even_when_causal_depth_is_low(self):
        # Transient write: a majority logs, but the logs are parallel --
        # 1 causal log, >= majority total stores.
        cluster = open_cluster("sim", protocol="transient", num_processes=5)
        cluster.start()
        before = sum(node.storage.stores_completed for node in cluster.nodes)
        cluster.session(0).write_sync("x")
        after = sum(node.storage.stores_completed for node in cluster.nodes)
        assert after - before >= cluster.config.majority
