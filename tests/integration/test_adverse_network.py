"""Integration: lossy, duplicating and partitioned networks."""

import pytest

from repro.common.config import ClusterConfig, NetworkConfig
from repro.api import open_cluster

PROTOCOLS = ["crash-stop", "transient", "persistent"]


def lossy_cluster(protocol, drop=0.2, dup=0.0, n=3, seed=0):
    config = ClusterConfig(
        num_processes=n,
        network=NetworkConfig(drop_probability=drop, duplicate_probability=dup),
        # Aggressive retransmission keeps lossy tests fast.
        retransmit_interval=1e-3,
        seed=seed,
    )
    cluster = open_cluster("sim", protocol=protocol, config=config)
    cluster.start()
    return cluster


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestMessageLoss:
    def test_operations_terminate_despite_loss(self, protocol):
        cluster = lossy_cluster(protocol, drop=0.3)
        cluster.session(0).write_sync("through-the-storm", timeout=30.0)
        assert cluster.session(1).read_sync(timeout=30.0) == "through-the-storm"

    def test_heavy_loss_still_terminates(self, protocol):
        cluster = lossy_cluster(protocol, drop=0.6, seed=5)
        cluster.session(0).write_sync("x", timeout=60.0)
        assert cluster.session(2).read_sync(timeout=60.0) == "x"

    def test_atomicity_preserved_under_loss(self, protocol):
        cluster = lossy_cluster(protocol, drop=0.25, seed=9)
        for i in range(4):
            cluster.session(i % 3).write_sync(f"v{i}", timeout=30.0)
            cluster.session((i + 1) % 3).read_sync(timeout=30.0)
        assert cluster.check().ok

    def test_duplication_is_harmless(self, protocol):
        cluster = lossy_cluster(protocol, drop=0.0, dup=0.5, seed=2)
        cluster.session(0).write_sync("once")
        cluster.session(0).write_sync("twice")
        assert cluster.session(1).read_sync() == "twice"
        assert cluster.check().ok

    def test_loss_and_duplication_together(self, protocol):
        cluster = lossy_cluster(protocol, drop=0.2, dup=0.3, seed=4)
        cluster.session(0).write_sync("chaos", timeout=30.0)
        assert cluster.session(2).read_sync(timeout=30.0) == "chaos"


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestPartitions:
    def test_majority_side_makes_progress(self, protocol):
        cluster = open_cluster("sim", protocol=protocol, num_processes=5)
        cluster.start()
        cluster.network.partition({0, 1, 2}, {3, 4})
        cluster.session(0).write_sync("majority-side")
        assert cluster.session(1).read_sync() == "majority-side"

    def test_minority_side_blocks_until_heal(self, protocol):
        cluster = open_cluster("sim", protocol=protocol, num_processes=5)
        cluster.start()
        cluster.network.partition({0, 1, 2}, {3, 4})
        handle = cluster.session(3).write("minority-side")
        cluster.run(duration=0.05)
        assert not handle.settled
        cluster.network.heal_all()
        cluster.wait(handle, timeout=1.0)
        assert handle.done

    def test_values_flow_across_healed_partition(self, protocol):
        cluster = open_cluster("sim", protocol=protocol, num_processes=5)
        cluster.start()
        cluster.network.partition({0, 1, 2}, {3, 4})
        cluster.session(0).write_sync("while-split")
        cluster.network.heal_all()
        assert cluster.session(4).read_sync() == "while-split"
        assert cluster.check().ok


class TestCrashDuringLoss:
    def test_crash_recovery_on_lossy_network(self):
        cluster = lossy_cluster("persistent", drop=0.2, seed=31)
        cluster.session(0).write_sync("durable", timeout=30.0)
        cluster.crash(1)
        cluster.recover(1)
        assert cluster.session(1).read_sync(timeout=30.0) == "durable"
        assert cluster.check().ok

    def test_messages_to_crashed_processes_are_lost(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3)
        cluster.start()
        cluster.crash(2)
        # Operations succeed with the remaining majority; the crashed
        # process receives nothing.
        cluster.session(0).write_sync("x")
        assert cluster.node(2).protocol.tag.sn == 0
