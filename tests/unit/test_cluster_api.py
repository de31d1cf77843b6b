"""Unit tests for the simulator the sim backend owns."""

import pytest

from repro.api import open_cluster
from repro.common.config import ClusterConfig, NetworkConfig
from repro.common.errors import ConfigurationError, OperationAborted, ReproError


class TestConstruction:
    def test_num_processes_overrides_config(self):
        cluster = open_cluster("sim", num_processes=7)
        assert cluster.config.num_processes == 7
        assert len(cluster.nodes) == 7

    def test_seed_override_keeps_other_config(self):
        config = ClusterConfig(
            num_processes=3, network=NetworkConfig(drop_probability=0.1)
        )
        cluster = open_cluster("sim", config=config, seed=99)
        assert cluster.config.seed == 99
        assert cluster.config.network.drop_probability == 0.1

    def test_num_processes_and_seed_together(self):
        cluster = open_cluster("sim", num_processes=5, seed=4)
        assert cluster.config.num_processes == 5
        assert cluster.config.seed == 4

    def test_majority_property(self):
        assert open_cluster("sim", num_processes=5).config.majority == 3

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            open_cluster("sim", protocol="viewstamped")

    @pytest.mark.parametrize("backend", ["sim", "kv"])
    @pytest.mark.parametrize("option", ["batch_window", "checkpoint_interval"])
    def test_a_nan_interval_is_refused_like_a_negative_one(self, backend, option):
        # Before anything runs: a NaN checkpoint interval used to fail
        # on the first wait, deep in the kernel's live branch.
        with pytest.raises(ReproError) as negative:
            open_cluster(backend, **{option: -1.0})
        with pytest.raises(ReproError) as nan:
            open_cluster(backend, **{option: float("nan")})
        assert (type(nan.value), str(nan.value)) == (
            type(negative.value), str(negative.value)
        )

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
    def test_a_live_op_timeout_must_be_a_positive_time(self, timeout):
        # Refused up front: the first submit used to invoke the write
        # and then fail to arm the expiry, after which none expired.
        with pytest.raises(ConfigurationError, match="op_timeout must be > 0"):
            open_cluster("live", op_timeout=timeout)

    def test_broken_protocols_need_opt_in(self):
        with pytest.raises(ConfigurationError):
            open_cluster("sim", protocol="broken-no-prelog")
        open_cluster("sim", protocol="broken-no-prelog", include_broken=True)


class TestLifecycleGuards:
    def test_double_start_rejected(self):
        cluster = open_cluster("sim", num_processes=3).start()
        with pytest.raises(ReproError):
            cluster.start()

    def test_node_out_of_range(self):
        cluster = open_cluster("sim", num_processes=3)
        with pytest.raises(ConfigurationError):
            cluster.node(5)

    def test_wait_timeout_raises(self):
        cluster = open_cluster("sim", num_processes=3).start()
        cluster.crash(1)
        cluster.crash(2)
        handle = cluster.session(0).write("stuck")
        with pytest.raises(ReproError):
            cluster.wait(handle, timeout=0.01)

    def test_sync_ops_surface_aborts(self):
        from repro.obs import tracing

        cluster = open_cluster("sim", num_processes=3).start()
        cluster.on_event(tracing.SEND, 0, 1, cluster.crash, 0)
        with pytest.raises(OperationAborted):
            cluster.session(0).write_sync("doomed")


class TestClock:
    def test_run_advances_virtual_time(self):
        cluster = open_cluster("sim", num_processes=3).start()
        before = cluster.now
        cluster.run(duration=0.5)
        assert cluster.now == pytest.approx(before + 0.5)

    def test_run_until_predicate(self):
        cluster = open_cluster("sim", num_processes=3).start()
        handle = cluster.session(0).write("x")
        assert cluster.run_until(lambda: handle.settled, timeout=1.0)


class TestCheckAtomicityDefaults:
    def test_transient_cluster_checks_transient(self):
        cluster = open_cluster("sim", protocol="transient", num_processes=3).start()
        cluster.session(0).write_sync("x")
        assert cluster.check().consistency == "transient"

    def test_persistent_cluster_checks_persistent(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3).start()
        cluster.session(0).write_sync("x")
        assert cluster.check().consistency == "persistent"

    def test_explicit_criterion_wins(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3).start()
        verdict = cluster.check(criterion="transient")
        assert verdict.consistency == "transient"
