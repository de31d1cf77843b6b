"""Integration tests of the sharded KV store over the register protocols."""

import pytest

from repro.api import open_cluster
from repro.common.errors import ConfigurationError
from repro.workloads.kv import ZipfianKeys, run_kv_closed_loop


def make_kv(**kwargs):
    kwargs.setdefault("protocol", "persistent")
    kwargs.setdefault("num_processes", 3)
    kwargs.setdefault("num_shards", 4)
    return open_cluster(backend="kv", **kwargs).start()


class TestBasicOperations:
    def test_write_then_read_any_replica(self):
        kv = make_kv()
        kv.session().write_sync("v1", "alpha")
        for pid in range(3):
            assert kv.session(pid).read_sync("alpha") == "v1"

    def test_keys_are_independent_registers(self):
        client = make_kv().session()
        client.write_sync(1, "a")
        client.write_sync(2, "b")
        client.write_sync(3, "a")
        assert client.read_sync("a") == 3
        assert client.read_sync("b") == 2

    def test_unwritten_key_reads_initial_value(self):
        assert make_kv().session().read_sync("never-written") is None

    def test_rejects_bad_keys_and_pids(self):
        kv = make_kv()
        with pytest.raises(ConfigurationError):
            kv.session().write("v", "")
        with pytest.raises(ConfigurationError):
            kv.session(99).read("k")

    def test_round_robin_spreads_coordinators(self):
        kv = make_kv()
        client = kv.session()
        handles = [client.write(i, f"k{i}") for i in range(6)]
        kv.wait_all(handles, timeout=30.0)
        assert {h.pid for h in handles} == {0, 1, 2}


class TestConcurrencyAndBatching:
    def test_cross_shard_operations_overlap(self):
        kv = make_kv(num_shards=8, num_processes=5)
        kv.preload([f"k{i}" for i in range(8)])
        client = kv.session(0)
        handles = [client.write(f"v{i}", f"k{i}") for i in range(8)]
        kv.wait_all(handles, timeout=30.0)
        # All issued by one process; cross-shard pipelines overlap, so
        # the span is far below 8 serial latencies.
        starts = [h.invoked_at for h in handles]
        assert len({h.shard for h in handles}) > 1
        assert max(starts) - min(starts) < 1e-3

    def test_batching_reduces_datagrams(self):
        def run(window):
            kv = make_kv(
                num_shards=1, num_processes=5, batch_window=window, seed=3
            )
            report = run_kv_closed_loop(
                kv,
                num_clients=8,
                operations_per_client=5,
                read_fraction=0.5,
                num_keys=16,
                seed=5,
            )
            assert report.completed == 40
            assert kv.check().ok
            return kv.network.messages_sent

        unbatched = run(0.0)
        batched = run(5e-5)
        assert batched < unbatched * 0.8

    def test_same_key_operations_serialize(self):
        kv = make_kv(batch_window=5e-5)
        client = kv.session(0)
        first = client.write("v1", "hot")
        second = client.write("v2", "hot")
        kv.wait_all([first, second], timeout=30.0)
        assert second.invoked_at >= first.completed_at
        assert kv.session().read_sync("hot") == "v2"


class TestFailures:
    def test_value_survives_coordinator_crash(self):
        kv = make_kv()
        kv.session(0).write_sync("v", "k")
        kv.crash(0)
        assert kv.session(1).read_sync("k") == "v"
        kv.recover(0)
        assert kv.session(0).read_sync("k") == "v"

    def test_queued_operations_wait_for_recovery(self):
        kv = make_kv()
        kv.session(1).write_sync("v1", "k")
        kv.crash(0)
        handle = kv.session(0).write("v2", "k")  # queued on the dead replica
        kv.run(0.05)
        assert not handle.settled
        kv.recover(0)
        kv.wait(handle, timeout=30.0)
        assert handle.done
        assert kv.session(2).read_sync("k") == "v2"

    def test_provision_while_crashed_boots_on_recovery(self):
        kv = make_kv()
        kv.crash(2)
        kv.session(0).write_sync("v", "fresh")
        kv.recover(2)
        assert kv.session(2).read_sync("fresh") == "v"

    def test_total_outage_preserves_all_keys(self):
        kv = make_kv(num_processes=3)
        client = kv.session()
        for i in range(5):
            client.write_sync(f"v{i}", f"k{i}")
        for pid in range(3):
            kv.crash(pid)
        for pid in range(3):
            kv.recover(pid, wait=False)
        kv.run_until(lambda: all(node.ready for node in kv.nodes), timeout=5.0)
        for i in range(5):
            assert client.read_sync(f"k{i}") == f"v{i}"
        assert kv.check().ok

    def test_aborted_operations_are_counted(self):
        kv = make_kv(batch_window=0.0)
        kv.preload(["k"])
        handle = kv.session(0).write("v", "k")
        kv.run(1e-4)  # op issued, in flight
        assert handle.invoked_at is not None and not handle.settled
        kv.crash(0)
        assert handle.aborted
        assert kv.stats().extra["kv_aborted"] == 1
        kv.recover(0)
        assert kv.check().ok


class TestVerification:
    def test_zipfian_workload_is_per_key_atomic(self):
        kv = make_kv(num_shards=4, num_processes=5, batch_window=2e-5, seed=9)
        report = run_kv_closed_loop(
            kv,
            num_clients=10,
            operations_per_client=10,
            read_fraction=0.6,
            num_keys=12,
            seed=13,
        )
        assert report.completed == 100
        assert report.throughput > 0
        verdict = kv.check()
        assert verdict.ok, verdict.failures
        # Both checkers were exercised: hot zipfian keys overflow the
        # exhaustive limit, cold keys stay under it.
        checkers = {child.method for child in verdict.per_key.values()}
        assert checkers == {"black-box", "white-box"}

    def test_per_key_histories_are_well_formed(self):
        kv = make_kv()
        kv.session().write_sync(1, "a")
        kv.session().write_sync(2, "b")
        kv.crash(0)
        kv.recover(0)
        histories = kv.per_register_histories()
        assert set(histories) == {"a", "b"}
        for history in histories.values():
            history.assert_well_formed()

    def test_transient_store_checks_transient_criterion(self):
        kv = make_kv(protocol="transient")
        kv.session().write_sync("v", "k")
        verdict = kv.check()
        assert verdict.consistency == "transient"
        assert verdict.ok


class TestZipfianKeys:
    def test_hot_key_dominates(self):
        import random

        keys = ZipfianKeys(num_keys=32, s=1.1, seed=1)
        rng = random.Random(2)
        draws = [keys.draw(rng) for _ in range(4000)]
        from collections import Counter

        top, top_count = Counter(draws).most_common(1)[0]
        assert top in keys.keys
        assert top_count / len(draws) > 0.15

    def test_uniform_when_s_zero(self):
        import random

        keys = ZipfianKeys(num_keys=4, s=0.0, seed=1)
        rng = random.Random(2)
        from collections import Counter

        counts = Counter(keys.draw(rng) for _ in range(4000))
        assert len(counts) == 4
        assert min(counts.values()) > 700
