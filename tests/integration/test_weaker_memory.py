"""Integration: the Section VI extension (safe/regular emulations)."""

import pytest

from repro.api import open_cluster
from repro.common.errors import ProtocolError
from repro.experiments.weaker_memory import (
    format_costs,
    format_inversions,
    measure_costs,
    new_old_inversion_run,
)
from repro.history.regular_checker import check_regularity, check_safety


def started(protocol="regular", n=3, **kwargs):
    cluster = open_cluster("sim", protocol=protocol, num_processes=n, **kwargs)
    cluster.start()
    return cluster


class TestRegularRegisterBasics:
    def test_write_then_read(self):
        cluster = started()
        cluster.session(0).write_sync("r-value")
        assert cluster.session(1).read_sync() == "r-value"

    def test_single_writer_enforced(self):
        cluster = started()
        with pytest.raises(ProtocolError):
            cluster.session(1).write("not-allowed")

    def test_any_process_may_read(self):
        cluster = started(n=5)
        cluster.session(0).write_sync("x")
        for pid in range(5):
            assert cluster.session(pid).read_sync() == "x"

    def test_value_survives_crash_recovery(self):
        cluster = started()
        cluster.session(0).write_sync("durable")
        cluster.crash(1)
        cluster.recover(1)
        assert cluster.session(1).read_sync() == "durable"

    def test_writer_crash_recovery_keeps_writing(self):
        cluster = started()
        cluster.session(0).write_sync("before")
        cluster.crash(0)
        cluster.recover(0)
        cluster.session(0).write_sync("after")
        assert cluster.session(2).read_sync() == "after"

    def test_histories_satisfy_regularity(self):
        cluster = started(seed=3)
        for i in range(5):
            cluster.session(0).write_sync(f"v{i}")
            cluster.session(1).read_sync()
        assert check_regularity(cluster.history).ok
        assert check_safety(cluster.history).ok


class TestCosts:
    def test_regular_read_is_one_round_trip(self):
        regular = started("regular", n=5)
        transient = started("transient", n=5)
        regular.session(0).write_sync("x")
        transient.session(0).write_sync("x")
        r = regular.wait(regular.session(1).read()).latency
        t = transient.wait(transient.session(1).read()).latency
        # 2 communication steps vs 4.
        assert r == pytest.approx(t / 2, rel=0.15)

    def test_regular_write_still_logs_once(self):
        cluster = started("regular", n=5)
        handle = cluster.session(0).write_sync("x")
        assert handle.causal_logs == 1

    def test_regular_reads_never_log(self):
        cluster = started("regular", n=5)
        cluster.session(0).write_sync("x")
        for pid in range(5):
            assert cluster.wait(cluster.session(pid).read()).causal_logs == 0

    def test_cost_table(self):
        rows = measure_costs(repeats=5)
        table = format_costs(rows)
        by_name = {row.algorithm: row for row in rows}
        assert by_name["regular"].write_causal_logs == 1
        assert by_name["transient"].write_causal_logs == 1
        assert by_name["persistent"].write_causal_logs == 2
        # Section VI: the regular emulation saves a round trip on
        # reads but nothing on write latency vs transient.
        assert by_name["regular"].read_latency.mean < (
            by_name["transient"].read_latency.mean * 0.6
        )
        assert by_name["regular"].write_latency.mean == pytest.approx(
            by_name["transient"].write_latency.mean, rel=0.01
        )
        assert "regular" in table


class TestInversion:
    def test_regular_emulation_exhibits_new_old_inversion(self):
        run = new_old_inversion_run("regular")
        assert run.read_results == ["new", "old"]
        assert not run.atomic
        assert run.regular
        assert run.safe

    @pytest.mark.parametrize("algorithm", ["transient", "persistent"])
    def test_atomic_emulations_resist_the_same_schedule(self, algorithm):
        run = new_old_inversion_run(algorithm)
        assert run.read_results == ["new", "new"]
        assert run.atomic

    def test_format(self):
        runs = [new_old_inversion_run(a) for a in ("regular", "transient")]
        text = format_inversions(runs)
        assert "regular" in text and "transient" in text
