"""Integration: the asyncio/UDP runtime on localhost.

These tests exercise real sockets, real files and real fsync, so they
are slower than the simulator tests but prove the protocol code runs
outside the simulator.
"""

import asyncio
import gc
import threading
import time

import pytest

from repro.common.errors import ReproError, StorageError
from repro.history.checker import (
    check_persistent_atomicity,
    check_transient_atomicity,
)
from repro.runtime import LiveCluster
from repro.runtime.storage import FileStableStorage
from repro.storage import checkpoint as ckpt


def wait_for(condition, timeout=10.0):
    """Poll ``condition`` from the test thread (reads only)."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


def logged_value(node):
    """The value in ``node``'s live ``written`` record, if any."""
    record = node.storage.retrieve("written")
    return None if record is None else record[1]


def hold_write_file(monkeypatch, node, key):
    """Hold ``node``'s next file write of ``key`` on its storage thread.

    Returns ``(held, release)``: ``held`` is set once the write is
    parked, and it proceeds when the test sets ``release``.
    """
    held, release = threading.Event(), threading.Event()
    write_file = FileStableStorage.write_file

    def gated(storage, stored_key, record):
        if storage is node.storage and stored_key == key:
            held.set()
            assert release.wait(timeout=10.0)
        write_file(storage, stored_key, record)

    monkeypatch.setattr(FileStableStorage, "write_file", gated)
    return held, release


def drain_disk(cluster, node):
    """Return once every file operation ``node`` queued so far ran."""

    async def barrier():
        await asyncio.get_running_loop().run_in_executor(node._disk, int)

    cluster._call(barrier())


class TestFileStableStorage:
    def test_round_trip(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("written", ((3, 1, 0), "value"), size=10)
        assert storage.retrieve("written") == ((3, 1, 0), "value")

    def test_survives_reload(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("written", ((3, 1, 0), b"bytes"), size=10)
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("written") == ((3, 1, 0), b"bytes")

    def test_latest_record_wins_across_reload(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("k", ("old",), size=1)
        storage.store("k", ("new",), size=1)
        storage.reload_from_disk()
        assert storage.retrieve("k") == ("new",)

    def test_keys_are_sanitized_to_filenames(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("weird/key name", ("v",), size=1)
        assert storage.retrieve("weird/key name") == ("v",)

    def test_statistics(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("a", (1,), size=100)
        assert storage.stores_completed == 1
        assert storage.bytes_logged == 100

    def test_leftover_tmp_files_are_removed_on_load(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("k", ("v",), size=1)
        # A crash between write and rename leaves a partial .tmp file.
        (tmp_path / "n0" / "torn.12345678.tmp").write_bytes(b"partial")
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("k") == ("v",)
        assert not list((tmp_path / "n0").glob("*.tmp"))

    def test_corrupt_record_is_quarantined_not_fatal(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("good", ("kept",), size=1)
        storage.store("bad", ("mangled",), size=1)
        bad_path = storage._path("bad")
        bad_path.write_bytes(b"\x00garbage not pickle")
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("good") == ("kept",)
        assert fresh.retrieve("bad") is None
        assert fresh.records_quarantined == 1
        quarantined = list((tmp_path / "n0").glob("*.corrupt"))
        assert len(quarantined) == 1
        # Quarantined files no longer match the record glob: the next
        # reload does not re-quarantine.
        again = FileStableStorage(tmp_path / "n0")
        assert again.records_quarantined == 0

    def test_delete_is_durable(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("k", ("v",), size=1)
        storage.delete("k")
        assert storage.retrieve("k") is None
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("k") is None
        storage.delete("missing")  # no-op, no raise


@pytest.fixture(scope="module")
def live_cluster():
    cluster = LiveCluster(protocol="persistent", num_processes=3, op_timeout=15.0)
    cluster.start()
    yield cluster
    cluster.close()


class TestLiveCluster:
    def test_write_then_read(self, live_cluster):
        live_cluster.write(0, "over-udp")
        assert live_cluster.read(1) == "over-udp"

    def test_several_writers(self, live_cluster):
        live_cluster.write(1, "from-1")
        live_cluster.write(2, "from-2")
        assert live_cluster.read(0) == "from-2"

    def test_crash_recovery_through_the_filesystem(self, live_cluster):
        live_cluster.write(0, "durable-on-disk")
        live_cluster.crash_node(1)
        live_cluster.recover_node(1)
        assert live_cluster.read(1) == "durable-on-disk"

    def test_crashed_node_rejects_operations(self, live_cluster):
        live_cluster.crash_node(2)
        try:
            with pytest.raises(Exception):
                live_cluster.read(2)
        finally:
            live_cluster.recover_node(2)

    def test_history_is_atomic(self, live_cluster):
        live_cluster.write(0, "final-check")
        live_cluster.read(1)
        history = live_cluster.recorder.history
        assert check_persistent_atomicity(history).ok


class TestLiveTransient:
    def test_transient_cluster_round_trip(self, tmp_path):
        with LiveCluster(
            protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.write(0, "t1")
            cluster.crash_node(0)
            cluster.recover_node(0)
            cluster.write(0, "t2")
            assert cluster.read(1) == "t2"
            assert check_transient_atomicity(cluster.recorder.history).ok

    def test_recovery_counter_persisted_to_disk(self, tmp_path):
        with LiveCluster(
            protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.crash_node(1)
            cluster.recover_node(1)
            cluster.crash_node(1)
            cluster.recover_node(1)
            record = cluster.nodes[1].storage.retrieve("recovered")
            assert record == (2,)


class TestLiveCheckpoint:
    def test_checkpoint_truncates_and_recovery_restores(self, tmp_path):
        with LiveCluster(
            protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.write(0, "snapshot-me")
            node = cluster.nodes[1]
            # The write returned on a majority of 2 of 3; node 1 is
            # quiescent only once its own round-2 log landed.
            wait_for(lambda: logged_value(node) == "snapshot-me")
            assert cluster.checkpoint(1) is True
            storage = node.storage
            # Truncated into the snapshot, durable on disk, no stray
            # tentative record left behind.
            assert storage.retrieve("written") is None
            assert storage.retrieve(ckpt.PERMANENT_KEY) is not None
            assert storage.retrieve(ckpt.TENTATIVE_KEY) is None
            assert node.checkpoints_committed == 1
            # Unchanged state: a second call is a no-op.
            assert cluster.checkpoint(1) is False
            cluster.crash_node(1)
            cluster.recover_node(1)
            assert cluster.read(1) == "snapshot-me"
            assert check_persistent_atomicity(cluster.recorder.history).ok

    def test_store_landing_after_capture_survives_truncation(
        self, tmp_path, monkeypatch
    ):
        """The straggler that made the old synchronous checkpoint flaky.

        Node 1's round-2 ``written`` store is held on its storage
        thread while a checkpoint captures the *previous* record; the
        store then lands, and must survive the truncation.
        """
        with LiveCluster(
            protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.write(0, "early")
            node = cluster.nodes[1]
            wait_for(lambda: logged_value(node) == "early")
            held, release = hold_write_file(monkeypatch, node, "written")
            try:
                cluster.write(0, "late")  # nodes 0 and 2 are a majority
                assert held.wait(timeout=10.0)
                pending = cluster.submit(cluster.acheckpoint(1))
                wait_for(lambda: node.checkpoint_in_progress)
                assert logged_value(node) == "early"  # what was captured
            finally:
                release.set()
            assert pending.result(timeout=10.0) is True
            assert logged_value(node) == "late"
            assert node.storage.retrieve(ckpt.TENTATIVE_KEY) is None
            cluster.crash_node(1)
            cluster.recover_node(1)
            assert cluster.read(1) == "late"
            assert check_persistent_atomicity(cluster.recorder.history).ok

    def test_store_issued_during_the_permanent_phase_survives_truncation(
        self, tmp_path, monkeypatch
    ):
        """A store in flight at commit time must not be unlinked.

        The checkpoint captured ``early``; while its PERMANENT record
        is on the storage thread node 1 issues the store of ``late``.
        At commit the in-memory record is still the captured one, but
        truncating it would queue the unlink *behind* the new file.
        """
        with LiveCluster(
            protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.write(0, "early")
            node = cluster.nodes[1]
            wait_for(lambda: logged_value(node) == "early")
            issued, store = [], node._store
            monkeypatch.setattr(
                node, "_store", lambda key, *rest: (issued.append(key), store(key, *rest))
            )
            held, release = hold_write_file(monkeypatch, node, ckpt.PERMANENT_KEY)
            try:
                pending = cluster.submit(cluster.acheckpoint(1))
                assert held.wait(timeout=10.0)
                cluster.write(0, "late")  # nodes 0 and 2 are a majority
                wait_for(lambda: "written" in issued)
                assert logged_value(node) == "early"  # still the captured one
            finally:
                release.set()
            assert pending.result(timeout=10.0) is True
            wait_for(lambda: logged_value(node) == "late")
            drain_disk(cluster, node)
            on_disk = FileStableStorage(tmp_path / "node-1")
            assert on_disk.retrieve("written") == node.storage.retrieve("written")
            assert on_disk.retrieve(ckpt.TENTATIVE_KEY) is None
            cluster.crash_node(1)
            cluster.recover_node(1)
            assert logged_value(node) == "late"  # read back from the files
            assert cluster.read(1) == "late"
            assert check_persistent_atomicity(cluster.recorder.history).ok


class TestLiveThreading:
    def test_stores_of_one_key_land_in_issue_order(self, tmp_path):
        with LiveCluster(num_processes=1, storage_root=tmp_path) as cluster:
            node = cluster.nodes[0]

            async def run():
                loop = asyncio.get_running_loop()
                errors, order = [], []
                loop.set_exception_handler(
                    lambda _loop, context: errors.append(context)
                )
                last = loop.create_future()
                for i in range(25):
                    node._store("k", (i,), 1, lambda i=i: order.append(i), None)
                node._store("k", ("last",), 1, lambda: last.set_result(None), None)
                await asyncio.wait_for(last, timeout=10.0)
                return errors, order

            errors, order = cluster._call(run())
            assert errors == []
            assert order == list(range(25))
            assert node.storage.retrieve("k") == ("last",)
            assert node.storage.stores_completed >= 26
        on_disk = FileStableStorage(tmp_path / "node-0")
        assert on_disk.retrieve("k") == ("last",)
        assert not list((tmp_path / "node-0").glob("*.tmp"))

    def test_failed_store_is_reported_and_never_acknowledged(
        self, tmp_path, monkeypatch
    ):
        def failing(storage, key, record):
            raise StorageError(f"store of {key!r} failed: disk full")

        with LiveCluster(num_processes=1, storage_root=tmp_path) as cluster:
            node = cluster.nodes[0]
            monkeypatch.setattr(FileStableStorage, "write_file", failing)

            async def run():
                loop = asyncio.get_running_loop()
                errors, acknowledged = [], []
                loop.set_exception_handler(
                    lambda _loop, context: errors.append(context)
                )
                node._store("k", (1,), 1, lambda: acknowledged.append("k"), None)
                for _ in range(500):
                    if errors:
                        break
                    await asyncio.sleep(0.01)
                    gc.collect()  # asyncio reports when the task is collected
                return errors, acknowledged

            errors, acknowledged = cluster._call(run())
            # The wording bench/run.py counts as ``runtime.task_errors``.
            assert [e["message"] for e in errors] == [
                "Task exception was never retrieved"
            ]
            assert isinstance(errors[0]["exception"], StorageError)
            assert acknowledged == []
            assert node.storage.retrieve("k") is None

    def test_mutators_refuse_other_threads(self, live_cluster):
        node = live_cluster.nodes[0]
        for mutate in (
            node.boot,
            node.crash,
            node.recover,
            node.begin_checkpoint,
            lambda: node.provision_register("elsewhere"),
            node.invoke_read,
            lambda: node.invoke_write("x"),
        ):
            with pytest.raises(ReproError, match="event-loop thread"):
                mutate()
        assert not node.crashed and not node.has_register("elsewhere")
        live_cluster.write(0, "still-fine")
        assert live_cluster.read(1) == "still-fine"


class TestLiveCausalLogs:
    def test_write_log_counts_match_the_paper_over_real_io(self, tmp_path):
        with LiveCluster(
            protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            async def run():
                node = cluster.nodes[0]
                handle = await node.settled(node.invoke_write("x"))
                return handle.causal_logs

            assert cluster._call(run()) == 2

    def test_transient_write_costs_one_log_over_real_io(self, tmp_path):
        with LiveCluster(
            protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            async def run():
                node = cluster.nodes[0]
                handle = await node.settled(node.invoke_write("x"))
                return handle.causal_logs

            assert cluster._call(run()) == 1
