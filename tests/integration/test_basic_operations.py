"""Integration: basic read/write behaviour of every algorithm."""

import pytest

from repro.api import open_cluster

ALL_PROTOCOLS = ["abd", "crash-stop", "transient", "persistent", "naive"]
CRASH_RECOVERY = ["transient", "persistent", "naive"]


def started(protocol, n=3, **kwargs):
    cluster = open_cluster("sim", protocol=protocol, num_processes=n, **kwargs)
    cluster.start()
    return cluster


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestEveryProtocol:
    def test_initial_read_returns_bottom(self, protocol):
        cluster = started(protocol)
        assert cluster.session(1).read_sync() is None

    def test_read_your_own_write(self, protocol):
        cluster = started(protocol)
        cluster.session(0).write_sync("mine")
        assert cluster.session(0).read_sync() == "mine"

    def test_read_someone_elses_write(self, protocol):
        cluster = started(protocol)
        cluster.session(0).write_sync("shared")
        assert cluster.session(2).read_sync() == "shared"

    def test_last_write_wins_sequentially(self, protocol):
        cluster = started(protocol)
        for i in range(5):
            cluster.session(0).write_sync(f"v{i}")
        assert cluster.session(1).read_sync() == "v4"

    def test_sequential_history_is_atomic(self, protocol):
        cluster = started(protocol)
        cluster.session(0).write_sync("a")
        cluster.session(1).read_sync()
        cluster.session(0).write_sync("b")
        cluster.session(2).read_sync()
        assert cluster.check().ok

    def test_various_value_types(self, protocol):
        cluster = started(protocol)
        for value in [b"bytes", "text", 42, 3.14, ("tu", "ple")]:
            cluster.session(0).write_sync(value)
            assert cluster.session(1).read_sync() == value

    def test_larger_clusters(self, protocol):
        cluster = started(protocol, n=7)
        cluster.session(0).write_sync("seven")
        assert cluster.session(6).read_sync() == "seven"


@pytest.mark.parametrize("protocol", ["crash-stop", "transient", "persistent"])
class TestMultiWriter:
    def test_every_process_may_write(self, protocol):
        cluster = started(protocol, n=5)
        for pid in range(5):
            cluster.session(pid).write_sync(f"from-{pid}")
        assert cluster.session(0).read_sync() == "from-4"

    def test_writers_alternating_with_readers(self, protocol):
        cluster = started(protocol, n=5)
        for round_no in range(3):
            for writer in (1, 3):
                cluster.session(writer).write_sync(f"r{round_no}-w{writer}")
                value = cluster.session((writer + 1) % 5).read_sync()
                assert value == f"r{round_no}-w{writer}"
        assert cluster.check().ok


class TestLatencyShape:
    """The cost hierarchy of Figure 6 holds operation by operation."""

    def test_write_cost_ordering(self):
        latencies = {}
        for protocol in ("crash-stop", "transient", "persistent", "naive"):
            cluster = started(protocol, n=5)
            latencies[protocol] = cluster.session(0).write_sync(b"1234").latency
        assert (
            latencies["crash-stop"]
            < latencies["transient"]
            < latencies["persistent"]
            < latencies["naive"]
        )

    def test_transient_write_saves_one_log_latency(self):
        lam = open_cluster("sim").config.storage.base_latency
        transient = started("transient", n=5).session(0).write_sync(b"x").latency
        persistent = started("persistent", n=5).session(0).write_sync(b"x").latency
        assert persistent - transient == pytest.approx(lam, rel=0.2)

    def test_crash_free_reads_cost_the_same_everywhere(self):
        # "the execution times would be the same for each algorithm"
        samples = {}
        for protocol in ("crash-stop", "transient", "persistent"):
            cluster = started(protocol, n=5)
            cluster.session(0).write_sync("x")
            samples[protocol] = cluster.wait(cluster.session(1).read()).latency
        assert len({round(s, 9) for s in samples.values()}) == 1

    def test_abd_single_writer_write_is_one_round_trip(self):
        abd = started("abd", n=5).session(0).write_sync(b"x").latency
        mwmr = started("crash-stop", n=5).session(0).write_sync(b"x").latency
        assert abd < mwmr * 0.6  # one round trip vs two


class TestDeterminism:
    def test_identical_seeds_produce_identical_runs(self):
        def run(seed):
            cluster = started("persistent", seed=seed)
            handles = [cluster.session(0).write_sync(f"v{i}") for i in range(3)]
            return [h.latency for h in handles] + [cluster.now]

        assert run(1234) == run(1234)

    def test_different_seeds_differ_with_jitter(self):
        from repro.common.config import ClusterConfig, NetworkConfig

        def run(seed):
            config = ClusterConfig(
                num_processes=3,
                network=NetworkConfig(max_jitter=5e-5),
                seed=seed,
            )
            cluster = open_cluster("sim", protocol="persistent", config=config)
            cluster.start()
            return cluster.session(0).write_sync("x").latency

        assert run(1) != run(2)
