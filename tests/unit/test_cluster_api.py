"""Unit tests for the SimCluster facade."""

import pytest

from repro.cluster import SimCluster
from repro.common.config import ClusterConfig, NetworkConfig
from repro.common.errors import ConfigurationError, OperationAborted, ReproError


class TestConstruction:
    def test_num_processes_overrides_config(self):
        cluster = SimCluster(num_processes=7)
        assert cluster.config.num_processes == 7
        assert len(cluster.nodes) == 7

    def test_seed_override_keeps_other_config(self):
        config = ClusterConfig(
            num_processes=3, network=NetworkConfig(drop_probability=0.1)
        )
        cluster = SimCluster(config=config, seed=99)
        assert cluster.config.seed == 99
        assert cluster.config.network.drop_probability == 0.1

    def test_num_processes_and_seed_together(self):
        cluster = SimCluster(num_processes=5, seed=4)
        assert cluster.config.num_processes == 5
        assert cluster.config.seed == 4

    def test_majority_property(self):
        assert SimCluster(num_processes=5).majority == 3

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            SimCluster(protocol="viewstamped")

    def test_broken_protocols_need_opt_in(self):
        with pytest.raises(ConfigurationError):
            SimCluster(protocol="broken-no-prelog")
        SimCluster(protocol="broken-no-prelog", include_broken=True)


class TestLifecycleGuards:
    def test_double_start_rejected(self):
        cluster = SimCluster(num_processes=3)
        cluster.start()
        with pytest.raises(ReproError):
            cluster.start()

    def test_node_out_of_range(self):
        cluster = SimCluster(num_processes=3)
        with pytest.raises(ConfigurationError):
            cluster.node(5)

    def test_wait_timeout_raises(self):
        cluster = SimCluster(num_processes=3)
        cluster.start()
        cluster.crash(1)
        cluster.crash(2)
        handle = cluster.write(0, "stuck")
        with pytest.raises(ReproError):
            cluster.wait(handle, timeout=0.01)

    def test_sync_ops_surface_aborts(self):
        from repro.obs import tracing

        cluster = SimCluster(num_processes=3)
        cluster.start()
        cluster.injector.crash_when(
            lambda e: e.kind == tracing.SEND and e.pid == 0, pid=0
        )
        with pytest.raises(OperationAborted):
            cluster.write_sync(0, "doomed")


class TestClock:
    def test_run_advances_virtual_time(self):
        cluster = SimCluster(num_processes=3)
        cluster.start()
        before = cluster.now
        cluster.run(duration=0.5)
        assert cluster.now == pytest.approx(before + 0.5)

    def test_run_until_predicate(self):
        cluster = SimCluster(num_processes=3)
        cluster.start()
        handle = cluster.write(0, "x")
        assert cluster.run_until(lambda: handle.settled, timeout=1.0)


class TestCheckAtomicityDefaults:
    def test_transient_cluster_checks_transient(self):
        cluster = SimCluster(protocol="transient", num_processes=3)
        cluster.start()
        cluster.write_sync(0, "x")
        assert cluster.check_atomicity().criterion == "transient"

    def test_persistent_cluster_checks_persistent(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        cluster.write_sync(0, "x")
        assert cluster.check_atomicity().criterion == "persistent"

    def test_explicit_criterion_wins(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        verdict = cluster.check_atomicity(criterion="transient")
        assert verdict.criterion == "transient"

    def test_causal_log_counts_shape(self):
        cluster = SimCluster(protocol="persistent", num_processes=3)
        cluster.start()
        cluster.write_sync(0, "x")
        cluster.wait(cluster.read(1))
        counts = cluster.causal_log_counts()
        assert counts["write"] == [2]
        assert counts["read"] == [0]
