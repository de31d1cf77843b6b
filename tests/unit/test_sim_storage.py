"""Unit tests for simulated stable storage."""

import pytest

from repro.common.config import StorageConfig
from repro.sim.kernel import Kernel
from repro.sim.storage import SimStableStorage
from repro.obs.tracing import Trace


def make_storage(**config_kwargs):
    kernel = Kernel(seed=0)
    storage = SimStableStorage(kernel, 0, StorageConfig(**config_kwargs), Trace())
    return kernel, storage


class TestDurability:
    def test_store_completes_after_latency(self):
        kernel, storage = make_storage(base_latency=2e-4, bandwidth=1e12)
        done = []
        storage.store("k", ("v",), size=10, on_durable=lambda: done.append(kernel.now))
        assert storage.retrieve("k") is None  # not durable yet
        kernel.run()
        assert storage.retrieve("k") == ("v",)
        assert done == [pytest.approx(2e-4)]

    def test_latest_record_wins(self):
        kernel, storage = make_storage()
        storage.store("k", ("old",), size=1, on_durable=lambda: None)
        storage.store("k", ("new",), size=1, on_durable=lambda: None)
        kernel.run()
        assert storage.retrieve("k") == ("new",)

    def test_records_survive_crash(self):
        kernel, storage = make_storage()
        storage.store("k", ("v",), size=1, on_durable=lambda: None)
        kernel.run()
        storage.crash()
        assert storage.retrieve("k") == ("v",)

    def test_keys_are_independent(self):
        kernel, storage = make_storage()
        storage.store("a", (1,), size=1, on_durable=lambda: None)
        storage.store("b", (2,), size=1, on_durable=lambda: None)
        kernel.run()
        assert storage.retrieve("a") == (1,)
        assert storage.retrieve("b") == (2,)

    def test_retrieve_missing_key_returns_none(self):
        _, storage = make_storage()
        assert storage.retrieve("missing") is None


class TestCrashSemantics:
    def test_in_flight_store_is_voided_by_crash(self):
        kernel, storage = make_storage(base_latency=1e-3)
        done = []
        storage.store("k", ("v",), size=1, on_durable=lambda: done.append(1))
        storage.crash()
        kernel.run()
        assert storage.retrieve("k") is None
        assert done == []
        assert storage.stores_lost_to_crash == 1

    def test_completed_stores_not_counted_as_lost(self):
        kernel, storage = make_storage()
        storage.store("k", ("v",), size=1, on_durable=lambda: None)
        kernel.run()
        storage.crash()
        assert storage.stores_lost_to_crash == 0

    def test_storage_usable_after_crash(self):
        kernel, storage = make_storage()
        storage.crash()
        done = []
        storage.store("k", ("v",), size=1, on_durable=lambda: done.append(1))
        kernel.run()
        assert storage.retrieve("k") == ("v",)
        assert done == [1]

    def test_store_issued_before_crash_does_not_resurrect(self):
        # A store voided by a crash must not become durable even though
        # its kernel event still fires.
        kernel, storage = make_storage(base_latency=1e-3)
        storage.store("k", ("ghost",), size=1, on_durable=lambda: None)
        storage.crash()
        storage.store("k", ("real",), size=1, on_durable=lambda: None)
        kernel.run()
        assert storage.retrieve("k") == ("real",)


class TestSequentialDevice:
    def test_concurrent_stores_queue_behind_each_other(self):
        kernel, storage = make_storage(base_latency=1e-3, bandwidth=1e12)
        times = []
        storage.store("a", (1,), size=1, on_durable=lambda: times.append(kernel.now))
        storage.store("b", (2,), size=1, on_durable=lambda: times.append(kernel.now))
        kernel.run()
        assert times[0] == pytest.approx(1e-3)
        assert times[1] == pytest.approx(2e-3)

    def test_device_frees_up_between_stores(self):
        kernel, storage = make_storage(base_latency=1e-3, bandwidth=1e12)
        done = []
        storage.store("a", (1,), size=1, on_durable=lambda: done.append(kernel.now))
        kernel.run()
        storage.store("b", (2,), size=1, on_durable=lambda: done.append(kernel.now))
        kernel.run()
        assert done[1] - done[0] == pytest.approx(1e-3)

    def test_byte_and_count_statistics(self):
        kernel, storage = make_storage()
        storage.store("a", (1,), size=100, on_durable=lambda: None)
        storage.store("b", (2,), size=50, on_durable=lambda: None)
        kernel.run()
        assert storage.stores_completed == 2
        assert storage.bytes_logged == 150

    def test_larger_logs_take_longer(self):
        kernel, storage = make_storage(base_latency=0.0, bandwidth=1e6)
        times = []
        storage.store("a", (1,), size=1000, on_durable=lambda: times.append(kernel.now))
        kernel.run()
        assert times[0] == pytest.approx(1e-3)


class TestLogAccounting:
    def test_log_grows_per_completed_store(self):
        kernel, storage = make_storage()
        storage.store("k", ("a",), size=10, on_durable=lambda: None)
        storage.store("k", ("b",), size=20, on_durable=lambda: None)
        kernel.run()
        # Append-only model: overwrites still grow the un-compacted log.
        assert storage.log_records == 2
        assert storage.log_bytes == 30

    def test_compact_resets_to_live_records(self):
        kernel, storage = make_storage()
        storage.store("k", ("a",), size=10, on_durable=lambda: None)
        storage.store("k", ("b",), size=20, on_durable=lambda: None)
        kernel.run()
        storage.compact()
        assert storage.compactions == 1
        assert storage.log_records == 1
        assert storage.log_bytes == 20  # only the live record's size

    def test_delete_shrinks_footprint_only_after_compaction(self):
        kernel, storage = make_storage()
        storage.store("k", ("v",), size=10, on_durable=lambda: None)
        kernel.run()
        storage.delete("k")
        assert storage.retrieve("k") is None
        assert storage.log_records == 1  # still on the device
        storage.compact()
        assert storage.log_records == 0
        assert storage.log_bytes == 0

    def test_recovery_scan_latency_is_linear_in_the_log(self):
        kernel, storage = make_storage(
            base_latency=1e-4, bandwidth=1e6, max_jitter=0.0
        )
        assert storage.recovery_scan_latency() == 0.0
        storage.store("a", (1,), size=1000, on_durable=lambda: None)
        storage.store("b", (2,), size=1000, on_durable=lambda: None)
        kernel.run()
        # 2 records * base_latency + 2000 bytes / bandwidth, no jitter.
        assert storage.recovery_scan_latency() == pytest.approx(2e-4 + 2e-3)

    def test_record_size(self):
        kernel, storage = make_storage()
        storage.store("k", ("v",), size=123, on_durable=lambda: None)
        kernel.run()
        assert storage.record_size("k") == 123
        assert storage.record_size("missing") == 0


class TestFaultInjection:
    def test_corrupt_drops_the_record(self):
        kernel, storage = make_storage()
        storage.store("k", ("v",), size=1, on_durable=lambda: None)
        kernel.run()
        assert storage.corrupt("k") is True
        assert storage.retrieve("k") is None
        assert storage.records_corrupted == 1
        assert storage.corrupt("missing") is False

    def test_lost_store_acknowledges_but_never_lands(self):
        kernel, storage = make_storage()
        done = []
        storage.lose_next_stores(1)
        storage.store("k", ("v",), size=1, on_durable=lambda: done.append(1))
        kernel.run()
        assert done == [1]  # the lying fsync still acknowledges
        assert storage.retrieve("k") is None
        assert storage.stores_lost == 1
        # The loss budget is consumed: the next store is durable.
        storage.store("k", ("v2",), size=1, on_durable=lambda: None)
        kernel.run()
        assert storage.retrieve("k") == ("v2",)

    def test_slow_window_adds_latency(self):
        kernel, storage = make_storage(
            base_latency=1e-4, bandwidth=1e12, max_jitter=0.0
        )
        times = []
        storage.set_slow(5e-4)
        storage.store("a", (1,), size=1, on_durable=lambda: times.append(kernel.now))
        kernel.run()
        storage.clear_slow()
        storage.store("b", (2,), size=1, on_durable=lambda: times.append(kernel.now))
        kernel.run()
        assert times[0] == pytest.approx(6e-4)
        assert times[1] - times[0] == pytest.approx(1e-4)
