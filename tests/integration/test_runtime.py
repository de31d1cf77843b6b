"""Integration: the UDP runtime, on its caller-driven selector loop, on localhost.

These tests exercise real sockets, real files and real fsync, so they
are slower than the simulator tests but prove the protocol code runs
outside the simulator.
"""

import errno
import fcntl
import gc
import logging
import os
import pickle
import threading
import time
import warnings

import pytest

from repro.api import live, open_cluster
from repro.common.errors import ProtocolError, ReproError, StorageError, TransportError
from repro.history.checker import (
    check_persistent_atomicity,
    check_transient_atomicity,
)
from repro.runtime.node import RuntimeNode
from repro.runtime.storage import _SEGMENT, FileStableStorage, encode_frame
from repro.storage import checkpoint as ckpt


def wait_for(cluster, condition, timeout=10.0):
    """Run ``cluster``'s loop until ``condition`` holds."""
    assert cluster.run_until(condition, timeout=timeout), "condition not reached in time"


def logged_value(node):
    """The value in ``node``'s live ``written`` record, if any."""
    record = node.storage.retrieve("written")
    return None if record is None else record[1]


def hold_store(monkeypatch, cluster, node, key):
    """Park ``node``'s storage jobs from its store of ``key`` on.

    From the job that writes ``key`` (the first job when ``key`` is
    ``None``), every job ``node`` queues is set aside instead of
    reaching its event loop, so the rest of the cluster runs on.
    Returns ``(held, release)``: ``held`` is set once a job is parked;
    ``release()`` replays the parked jobs in issue order and lets later
    ones through.
    """
    held, parked, on_disk = threading.Event(), [], node._on_disk

    def diverted(done, job, *args):
        starts = key is None or (job == node.storage.write_file and args[0] == key)
        if parked is not None and (held.is_set() or starts):
            held.set()
            parked.append((done, job, args))
        else:
            on_disk(done, job, *args)

    def release():
        nonlocal parked
        jobs, parked = parked, None
        for done, job, args in jobs:
            on_disk(done, job, *args)

    monkeypatch.setattr(node, "_on_disk", diverted)
    return held, release


def drain_disk(cluster, node):
    """Return once every file operation ``node`` queued so far ran."""
    landed = []
    node._on_disk(landed.append, int)
    wait_for(cluster, lambda: landed)


def frame_offsets(log):
    """Start offset of every frame in ``log``, then the end of the last."""
    data, offsets, pos = log.read_bytes(), [], 0
    while pos < len(data) and (length := int.from_bytes(data[pos:pos + 4], "little")):
        offsets.append(pos)
        pos += 8 + length
    return offsets + [pos]


def assert_segmented(log, storage):
    """``log`` is ``storage``'s frames, then zeros to a segment boundary."""
    data, offsets = log.read_bytes(), frame_offsets(log)
    assert len(data) >= _SEGMENT and len(data) % _SEGMENT == 0
    assert (offsets[-1], len(offsets) - 1) == (storage.log_bytes, storage.log_records)
    assert data[storage.log_bytes:] == bytes(len(data) - storage.log_bytes)


def logged_records(log):
    """The record of every frame in ``log``, in file order."""
    data, offsets = log.read_bytes(), frame_offsets(log)
    return [
        pickle.loads(data[start + 8:end])[1]
        for start, end in zip(offsets, offsets[1:])
    ]


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
        # No key reaches a file name any more: whatever the key, it
        # round-trips, and near-identical keys stay apart.
        records = {
            "a/written": ("slash",),
            "a_written": ("underscore",),
            "weird/key name": ("v",),
            "cl\u00e9/\u2603": ("unicode",),
            "k" * 1024: ("long",),
            "": ("empty",),
        }
        storage = FileStableStorage(tmp_path / "n0")
        for key, record in records.items():
            storage.store(key, record, size=1)
        assert storage.records == records
        assert FileStableStorage(tmp_path / "n0").records == records
        assert sorted(p.name for p in (tmp_path / "n0").iterdir()) == ["wal.log"]

    def test_statistics(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("a", (1,), size=100)
        assert storage.stores_completed == 1
        assert storage.bytes_logged == 100
        assert storage.log_records == 1
        assert storage.log_bytes == len(encode_frame("a", (1,)))
        assert_segmented(tmp_path / "n0" / "wal.log", storage)

    def test_leftover_tmp_files_are_removed_on_load(self, tmp_path):
        """A torn last frame, cut or zero-filled anywhere, never happened."""
        root, log = tmp_path / "n0", tmp_path / "n0" / "wal.log"
        storage = FileStableStorage(root)
        storage.store("k", ("v",), size=1)
        storage.store("other", ("kept",), size=1)
        storage.store("k", ("torn",), size=1)
        storage.close()
        data, (*_, last, end) = log.read_bytes(), frame_offsets(log)
        tears = [data[:at] for at in range(last, end)]
        tears += [data[:at] + bytes(len(data) - at) for at in range(last, end)]
        for i, torn in enumerate(tears):
            log.write_bytes(torn)
            fresh = FileStableStorage(root)
            assert fresh.records == {"k": ("v",), "other": ("kept",)}
            assert fresh.records_quarantined == 0
            assert fresh.log_bytes == last
            assert_segmented(log, fresh)
            # Written where the torn frame began, not behind it.
            fresh.store("after", (i,), size=1)
            assert frame_offsets(log)[-2] == last
            fresh.close()
            again = FileStableStorage(root)
            assert again.records == {"k": ("v",), "other": ("kept",), "after": (i,)}
            again.close()
        # Each torn frame's bytes were copied aside before they were zeroed.
        assert len(list(root.glob("wal.*.corrupt"))) == 2 * (end - last - 1)

    def test_zero_filled_tail_is_a_torn_store(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("k", ("v",), size=1)
        storage.close()
        with open(tmp_path / "n0" / "wal.log", "ab") as log:
            log.write(bytes(64))
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.records == {"k": ("v",)}
        assert fresh.records_quarantined == 0
        assert fresh.log_records == 1

    def test_corrupt_record_is_quarantined_not_fatal(self, tmp_path):
        root, log = tmp_path / "n0", tmp_path / "n0" / "wal.log"
        storage = FileStableStorage(root)
        storage.store("good", ("kept",), size=1)
        storage.store("bad", ("mangled",), size=1)
        storage.store("later", ("kept too",), size=1)
        storage.close()
        data = bytearray(log.read_bytes())
        data[frame_offsets(log)[1] + 8 + 5] ^= 0xFF  # a payload byte of "bad"
        log.write_bytes(data)
        fresh = FileStableStorage(root)
        assert fresh.records == {"good": ("kept",), "later": ("kept too",)}
        assert fresh.records_quarantined == 1
        assert len(list(root.glob("wal.*.corrupt"))) == 1
        # The log was rewritten without the bad frame: the next reload
        # does not re-quarantine.
        again = FileStableStorage(root)
        assert again.records == fresh.records
        assert again.records_quarantined == 0

    def test_delete_is_durable(self, tmp_path):
        storage = FileStableStorage(tmp_path / "n0")
        storage.store("k", ("v",), size=1)
        storage.delete("k")
        assert storage.retrieve("k") is None
        fresh = FileStableStorage(tmp_path / "n0")
        assert fresh.retrieve("k") is None
        storage.delete("missing")  # no-op, no raise

    def test_leftover_wal_new_is_removed_on_load(self, tmp_path):
        root = tmp_path / "n0"
        storage = FileStableStorage(root)
        storage.store("k", ("v",), size=1)
        # A compaction that crashed before its rename.
        (root / "wal.new").write_bytes(b"half a log")
        fresh = FileStableStorage(root)
        assert fresh.records == {"k": ("v",)}
        assert not (root / "wal.new").exists()

    def test_compaction_keeps_exactly_the_live_view_and_shrinks_the_file(
        self, tmp_path
    ):
        root, log = tmp_path / "n0", tmp_path / "n0" / "wal.log"
        storage = FileStableStorage(root)
        for i in range(20):
            storage.store("k", (i,), size=1)
            storage.store(f"gone-{i}", (i,), size=1)
            storage.delete(f"gone-{i}")
        storage.store("other", ("kept",), size=1)
        live = {"k": (19,), "other": ("kept",)}
        before = storage.log_bytes
        assert storage.log_records == 61
        storage.compact_file()
        assert storage.records == live
        assert storage.log_records == 2
        assert storage.log_bytes < before
        assert_segmented(log, storage)
        # The descriptor followed the rename: later stores reach the new log.
        storage.store("post", ("compaction",), size=1)
        live["post"] = ("compaction",)
        assert FileStableStorage(root).records == live
        assert not (root / "wal.new").exists()

    def test_log_compacts_itself_when_dead_frames_outnumber_live(
        self, tmp_path, monkeypatch
    ):
        root, value = tmp_path / "n0", bytes(1000)
        storage = FileStableStorage(root)
        compactions, replace = [], os.replace
        monkeypatch.setattr(
            os, "replace", lambda *args: (compactions.append(args), replace(*args))
        )
        for i in range(500):
            storage.store("k", (i, value), size=1)
        # Each compaction leaves at most half of a full segment live, so
        # half a segment of frames is stored between two of them.
        frame = len(encode_frame("k", (0, value)))
        assert 1 <= len(compactions) <= 500 * frame // (_SEGMENT // 2)
        assert (root / "wal.log").stat().st_size == _SEGMENT
        assert FileStableStorage(root).records == {"k": (499, value)}

    @pytest.mark.parametrize(
        "program, compacts",
        [
            (["a", "b"], False),  # two live frames
            (["a", "a"], False),  # one live, one dead: a tie grows the log
            (["a", "-a", "b"], True),  # one live, two dead
        ],
    )
    def test_a_frame_that_does_not_fit_grows_or_compacts_the_log(
        self, tmp_path, program, compacts
    ):
        root, log = tmp_path / "n0", tmp_path / "n0" / "wal.log"
        storage = FileStableStorage(root)
        half = (bytes(_SEGMENT // 2 - 100),)
        for step in program:
            if step.startswith("-"):
                storage.delete(step[1:])
            else:
                storage.store(step, half, size=1)
        inode, frames, live = log.stat().st_ino, storage.log_records, dict(storage.records)
        storage.store("c", half, size=1)  # does not fit
        live["c"] = half
        assert storage.records == live
        if compacts:
            assert log.stat().st_ino != inode
            assert storage.log_records == len(live)
            assert log.stat().st_size == _SEGMENT
        else:
            assert log.stat().st_ino == inode
            assert storage.log_records == frames + 1
            assert log.stat().st_size == 2 * _SEGMENT
        assert_segmented(log, storage)
        assert FileStableStorage(root).records == live

    @pytest.mark.parametrize("step", ["pwrite", "replace"])
    def test_interrupted_compaction_leaves_the_old_log(
        self, tmp_path, monkeypatch, step
    ):
        root = tmp_path / "n0"
        storage = FileStableStorage(root)
        storage.store("k", ("old",), size=1)
        storage.store("k", ("new",), size=1)

        def crash(*args):
            raise OSError("crashed here")

        with monkeypatch.context() as patch:
            patch.setattr(os, step, crash)
            with pytest.raises(StorageError, match="compaction"):
                storage.compact_file()
        # Still appending to the old, complete log.
        storage.store("after", ("failure",), size=1)
        fresh = FileStableStorage(root)
        assert fresh.records == {"k": ("new",), "after": ("failure",)}
        assert not (root / "wal.new").exists()

    def test_failed_append_leaves_no_partial_frame(self, tmp_path, monkeypatch):
        root = tmp_path / "n0"
        storage = FileStableStorage(root)
        storage.store("k", ("v",), size=1)
        pwrite, failed = os.pwrite, []

        def failing(fd, data, at):
            # The whole frame reaches the file, and the write reports EIO.
            written = pwrite(fd, data, at)
            if not failed:
                failed.append(at)
                raise OSError(errno.EIO, "I/O error after the write")
            return written

        with monkeypatch.context() as patch:
            patch.setattr(os, "pwrite", failing)
            with pytest.raises(StorageError, match="store of 'lost' failed"):
                storage.store("lost", ("never acknowledged " * 4,), size=1)
        assert storage.retrieve("lost") is None
        assert storage.log_bytes == failed[0]
        # Shorter than the lost frame: nothing of it may remain behind them.
        storage.store("next", ("reachable",), size=1)
        storage.store("later", ("too",), size=1)
        fresh = FileStableStorage(root)
        assert fresh.records == {
            "k": ("v",), "next": ("reachable",), "later": ("too",)
        }
        assert fresh.records_quarantined == 0
        assert list(root.glob("wal.*.corrupt")) == []

    def test_a_store_with_room_is_one_pwrite_and_no_sync(
        self, tmp_path, monkeypatch
    ):
        """The descriptor is ``O_DSYNC``: its write is the store's sync."""
        storage = FileStableStorage(tmp_path / "n0")
        assert fcntl.fcntl(storage._fd, fcntl.F_GETFL) & os.O_DSYNC
        calls = []
        for name in ("pwrite", "write", "fsync", "fdatasync"):
            real = getattr(os, name)
            monkeypatch.setattr(
                os, name,
                lambda *args, name=name, real=real: (calls.append(name), real(*args))[1],
            )
        storage.store("k", ("v",), size=1)
        assert calls == ["pwrite"]


@pytest.fixture(scope="module")
def live_cluster():
    cluster = open_cluster(
        backend="live", protocol="persistent", num_processes=3, op_timeout=15.0
    ).start()
    yield cluster
    cluster.close()


class TestLiveCluster:
    def test_write_then_read(self, live_cluster):
        live_cluster.session(0).write_sync("over-udp")
        assert live_cluster.session(1).read_sync() == "over-udp"

    def test_several_writers(self, live_cluster):
        live_cluster.session(1).write_sync("from-1")
        live_cluster.session(2).write_sync("from-2")
        assert live_cluster.session(0).read_sync() == "from-2"

    def test_crash_recovery_through_the_filesystem(self, live_cluster):
        live_cluster.session(0).write_sync("durable-on-disk")
        live_cluster.crash(1)
        live_cluster.recover(1)
        assert live_cluster.session(1).read_sync() == "durable-on-disk"

    def test_crashed_node_rejects_operations(self, live_cluster):
        live_cluster.crash(2)
        try:
            with pytest.raises(Exception):
                live_cluster.session(2).read_sync()
        finally:
            live_cluster.recover(2)

    def test_value_the_wire_cannot_carry_is_refused_at_the_caller(self, live_cluster):
        """Not dropped as malformed by every peer until ``op_timeout``."""

        class Handle:
            pass

        nodes = live_cluster.nodes

        def datagrams():
            return sum(node.transport.messages_sent for node in nodes)

        def quiet():  # every message delivered, every store acknowledged
            delivered = sum(node.transport.messages_received for node in nodes)
            return datagrams() == delivered and not any(
                count for node in nodes for count in node._storing.values()
            )

        live_cluster.session(0).write_sync("plain")
        wait_for(live_cluster, quiet)
        live_cluster.run(0.05)  # a handler caught between its two counters finishes
        wait_for(live_cluster, quiet)
        before, invoked = datagrams(), len(live_cluster.recorder.history)
        # Unpicklable, unpicklable, and picklable but naming a global.
        for value in (Handle(), threading.Lock(), range(3)):
            with pytest.raises(TransportError, match=type(value).__qualname__):
                live_cluster.session(0).write_sync(value)
        assert (datagrams(), len(live_cluster.recorder.history)) == (before, invoked)
        assert all(node.transport.malformed == 0 for node in nodes)
        assert live_cluster.session(1).read_sync() == "plain"

    def test_history_is_atomic(self, live_cluster):
        live_cluster.session(0).write_sync("final-check")
        live_cluster.session(1).read_sync()
        history = live_cluster.recorder.history
        assert check_persistent_atomicity(history).ok


class TestLiveTransient:
    def test_transient_cluster_round_trip(self, tmp_path):
        with open_cluster(
            backend="live", protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.session(0).write_sync("t1")
            cluster.crash(0)
            cluster.recover(0)
            cluster.session(0).write_sync("t2")
            assert cluster.session(1).read_sync() == "t2"
            assert check_transient_atomicity(cluster.recorder.history).ok

    def test_recovery_counter_persisted_to_disk(self, tmp_path):
        with open_cluster(
            backend="live", protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.crash(1)
            cluster.recover(1)
            cluster.crash(1)
            cluster.recover(1)
            record = cluster.nodes[1].storage.retrieve("recovered")
            assert record == (2,)


class TestLiveCheckpoint:
    def test_checkpoint_truncates_and_recovery_restores(self, tmp_path):
        with open_cluster(
            backend="live", protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            for i in range(5):
                cluster.session(0).write_sync(f"superseded-{i}")
            cluster.session(0).write_sync("snapshot-me")
            node = cluster.nodes[1]
            # The write returned on a majority of 2 of 3; node 1 is
            # quiescent only once its own round-2 log landed.
            wait_for(cluster, lambda: logged_value(node) == "snapshot-me")
            storage = node.storage
            before = storage.log_bytes
            assert cluster.checkpoint(1) is True
            # The truncation is real: the log was rewritten as the
            # snapshot plus what it does not cover.
            drain_disk(cluster, node)
            assert storage.log_bytes < before
            assert storage.log_records == len(storage.records)
            assert_segmented(tmp_path / "node-1" / "wal.log", storage)
            # Truncated into the snapshot, durable on disk, no stray
            # tentative record left behind.
            assert storage.retrieve("written") is None
            assert storage.retrieve(ckpt.PERMANENT_KEY) is not None
            assert storage.retrieve(ckpt.TENTATIVE_KEY) is None
            assert node.checkpoints_committed == 1
            # Unchanged state: a second call is a no-op.
            assert cluster.checkpoint(1) is False
            cluster.crash(1)
            cluster.recover(1)
            assert cluster.session(1).read_sync() == "snapshot-me"
            assert check_persistent_atomicity(cluster.recorder.history).ok

    def test_store_landing_after_capture_survives_truncation(
        self, tmp_path, monkeypatch
    ):
        """The straggler that made the old synchronous checkpoint flaky.

        Node 1's round-2 ``written`` store is held in its job list
        while a checkpoint captures the *previous* record; the store
        then lands, and must survive the truncation.
        """
        with open_cluster(
            backend="live", protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.session(0).write_sync("early")
            node = cluster.nodes[1]
            wait_for(cluster, lambda: logged_value(node) == "early")
            held, release = hold_store(monkeypatch, cluster, node, "written")
            try:
                cluster.session(0).write_sync("late")  # nodes 0 and 2 are a majority
                assert cluster.run_until(held.is_set, timeout=10.0)
                committed = node.checkpoints_committed
                assert node.begin_checkpoint()
                wait_for(cluster, lambda: node.checkpoint_in_progress)
                assert logged_value(node) == "early"  # what was captured
            finally:
                release()
            wait_for(cluster, lambda: not node.checkpoint_in_progress)
            assert node.checkpoints_committed == committed + 1
            assert logged_value(node) == "late"
            assert node.storage.retrieve(ckpt.TENTATIVE_KEY) is None
            cluster.crash(1)
            cluster.recover(1)
            assert cluster.session(1).read_sync() == "late"
            assert check_persistent_atomicity(cluster.recorder.history).ok

    def test_store_issued_during_the_permanent_phase_survives_truncation(
        self, tmp_path, monkeypatch
    ):
        """A store in flight at commit time must not be unlinked.

        The checkpoint captured ``early``; while its PERMANENT record
        is queued node 1 issues the store of ``late``.
        At commit the in-memory record is still the captured one, but
        truncating it would queue the unlink *behind* the new file.
        """
        with open_cluster(
            backend="live", protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            cluster.session(0).write_sync("early")
            node = cluster.nodes[1]
            wait_for(cluster, lambda: logged_value(node) == "early")
            issued, store = [], node._store
            monkeypatch.setattr(
                node, "_store", lambda key, *rest: (issued.append(key), store(key, *rest))
            )
            held, release = hold_store(monkeypatch, cluster, node, ckpt.PERMANENT_KEY)
            try:
                committed = node.checkpoints_committed
                assert node.begin_checkpoint()
                assert cluster.run_until(held.is_set, timeout=10.0)
                cluster.session(0).write_sync("late")  # nodes 0 and 2 are a majority
                wait_for(cluster, lambda: "written" in issued)
                assert logged_value(node) == "early"  # still the captured one
            finally:
                release()
            wait_for(cluster, lambda: not node.checkpoint_in_progress)
            assert node.checkpoints_committed == committed + 1
            wait_for(cluster, lambda: logged_value(node) == "late")
            drain_disk(cluster, node)
            on_disk = FileStableStorage(tmp_path / "node-1")
            assert on_disk.retrieve("written") == node.storage.retrieve("written")
            assert on_disk.retrieve(ckpt.TENTATIVE_KEY) is None
            cluster.crash(1)
            cluster.recover(1)
            assert logged_value(node) == "late"  # read back from the files
            assert cluster.session(1).read_sync() == "late"
            assert check_persistent_atomicity(cluster.recorder.history).ok


class TestLiveThreading:
    def test_stores_of_one_key_land_in_issue_order(self, tmp_path):
        """Completions run on the loop in issue order, not only on the thread."""
        with open_cluster(backend="live", num_processes=1, storage_root=tmp_path) as cluster:
            node = cluster.nodes[0]
            errors, order, views = [], [], []
            cluster.kernel.on_error = errors.append

            def acknowledged(i):
                order.append(i)
                views.append(node.storage.retrieve("k"))

            for i in [*range(25), "last"]:
                node._store("k", (i,), 1, lambda i=i: acknowledged(i), None)
            wait_for(cluster, lambda: "last" in order)
            assert errors == []
            assert order == [*range(25), "last"]
            assert node.storage.retrieve("k") == ("last",)
            assert node.storage.stores_completed >= 26
        # After every callback the memory view was the log, frame by frame.
        written = logged_records(tmp_path / "node-0" / "wal.log")
        assert views == written[-26:] == [(i,) for i in order]
        on_disk = FileStableStorage(tmp_path / "node-0")
        assert on_disk.retrieve("k") == ("last",)
        assert [p.name for p in (tmp_path / "node-0").iterdir()] == ["wal.log"]

    def test_stores_land_in_issue_order_on_a_slow_loop(self, tmp_path, monkeypatch):
        """A per-store task failed this about one run in two.

        On a slow loop a store already durable when its task first ran
        was acknowledged ahead of the earlier ones, whose wake-ups were
        still queued.  Every drain of the job list sleeps 1 ms here.
        """
        drain = RuntimeNode._drain

        def slow_drain(node):
            time.sleep(0.001)
            drain(node)

        monkeypatch.setattr(RuntimeNode, "_drain", slow_drain)
        self.test_stores_of_one_key_land_in_issue_order(tmp_path)

    def test_store_is_acknowledged_only_after_its_fdatasync(
        self, tmp_path, monkeypatch
    ):
        """A store's sync is its ``pwrite`` on the log's ``O_DSYNC`` descriptor."""
        events, pwrite = [], os.pwrite

        def recording(fd, data, at):
            written = pwrite(fd, data, at)
            events.append("synced")
            return written

        monkeypatch.setattr(os, "pwrite", recording)
        with open_cluster(backend="live", num_processes=1, storage_root=tmp_path) as cluster:
            node, last = cluster.nodes[0], []
            del events[:]
            for i in range(10):
                node._store(
                    f"k{i}", (i,), 1, lambda: events.append("acknowledged"), None
                )
            node._store("k", ("last",), 1, lambda: last.append(None), None)
            wait_for(cluster, lambda: last)
        assert events.count("acknowledged") == 10
        synced = acknowledged = 0
        for event in events:
            synced += event == "synced"
            acknowledged += event == "acknowledged"
            assert acknowledged <= synced

    def test_log_stays_bounded_without_checkpoints(self, tmp_path):
        """Overwritten frames are compacted away behind the stores."""
        with open_cluster(backend="live", num_processes=1, storage_root=tmp_path) as cluster:
            node = cluster.nodes[0]
            for i in range(100):  # two stores each, of about 1 KiB
                cluster.session(0).write_sync(f"v{i}" + "." * 1000)
            drain_disk(cluster, node)
            assert node.storage.stores_completed >= 200
            # Three segments of frames were written into one.
            assert node.storage.log_records < 64
            assert (tmp_path / "node-0" / "wal.log").stat().st_size == _SEGMENT
            live = dict(node.storage.records)
        assert FileStableStorage(tmp_path / "node-0").records == live

    def test_failed_store_is_reported_and_never_acknowledged(
        self, tmp_path, monkeypatch
    ):
        def failing(storage, key, record):
            raise StorageError(f"store of {key!r} failed: disk full")

        with open_cluster(backend="live", num_processes=1, storage_root=tmp_path) as cluster:
            node = cluster.nodes[0]
            monkeypatch.setattr(FileStableStorage, "write_file", failing)
            errors, acknowledged = [], []
            cluster.kernel.on_error = errors.append
            node._store("k", (1,), 1, lambda: acknowledged.append("k"), None)
            wait_for(cluster, lambda: errors)
            # The wording bench/run.py counts as ``runtime.task_errors``.
            assert [e["message"] for e in errors] == [
                "Task exception was never retrieved"
            ]
            assert isinstance(errors[0]["exception"], StorageError)
            assert acknowledged == []
            assert node.storage.retrieve("k") is None

    def test_failed_completion_is_reported_and_later_jobs_still_run(self, tmp_path):
        def failing():
            raise RuntimeError("completion failed")

        with open_cluster(backend="live", num_processes=1, storage_root=tmp_path) as cluster:
            node, errors, landed = cluster.nodes[0], [], []
            cluster.kernel.on_error = errors.append
            node._store("a", (1,), 1, failing, None)
            node._store("b", (2,), 1, lambda: landed.append(None), None)
            wait_for(cluster, lambda: landed)
            assert [e["message"] for e in errors] == [
                "Task exception was never retrieved"
            ]
            assert isinstance(errors[0]["exception"], RuntimeError)
            assert node.storage.retrieve("a") == (1,)
            assert node.storage.retrieve("b") == (2,)

    def test_parked_storage_does_not_stall_its_peers(self, tmp_path, monkeypatch):
        with open_cluster(backend="live", storage_root=tmp_path) as cluster:
            node = cluster.nodes[2]
            held, release = hold_store(monkeypatch, cluster, node, None)
            try:
                cluster.session(0).write_sync("v")  # lands on {0, 1}
                assert cluster.run_until(held.is_set, timeout=10.0)
                assert cluster.session(1).read_sync() == "v"
                assert logged_value(node) != "v"
            finally:
                release()
            wait_for(cluster, lambda: logged_value(node) == "v")
            drain_disk(cluster, node)
            assert FileStableStorage(tmp_path / "node-2").retrieve("written")[1] == "v"

    def test_close_lands_what_is_queued(self, tmp_path):
        with open_cluster(backend="live", num_processes=1, storage_root=tmp_path) as cluster:
            node = cluster.nodes[0]
            frame = encode_frame("k", ("queued",))
            node._on_disk(lambda _result: None, node.storage.write_file, "k", frame)
            node.close()
        assert FileStableStorage(tmp_path / "node-0").retrieve("k") == ("queued",)

    def test_failed_start_leaves_nothing_running(self, tmp_path):
        """Node 0 is up -- socket bound -- when node 1 fails."""
        (tmp_path / "node-1").write_text("a file where the directory goes")
        before = set(threading.enumerate())
        cluster = open_cluster(backend="live", num_processes=3, storage_root=tmp_path)
        with pytest.raises(StorageError, match="cannot create storage dir"):
            cluster.start()
        assert cluster._kernel is None
        assert cluster.nodes[0].transport._sock is None
        assert [t.name for t in set(threading.enumerate()) - before] == []

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
            raised = []

            def elsewhere():
                try:
                    mutate()
                except Exception as error:
                    raised.append(error)

            thread = threading.Thread(target=elsewhere)
            thread.start()
            thread.join()
            with pytest.raises(ReproError, match="event-loop thread"):
                raise raised[0]
        assert not node.crashed and not node.has_register("elsewhere")
        live_cluster.session(0).write_sync("still-fine")
        assert live_cluster.session(1).read_sync() == "still-fine"


class TestLiveBackendVerbs:
    def test_close_leaves_nothing_running(self):
        """The clean-exit twin of ``test_failed_start_leaves_nothing_running``."""
        before = set(threading.enumerate())
        with open_cluster(backend="live") as cluster:
            cluster.session(0).write_sync("x")
            root, nodes = cluster.storage_root, cluster.nodes
            assert (root / "node-0" / "wal.log").exists()
        assert [t.name for t in set(threading.enumerate()) - before] == []
        assert all(node.transport._sock is None for node in nodes)
        assert not root.exists()

    def test_runs_no_thread_but_its_loop(self):
        """N nodes and their loop run on the caller's thread: none is added."""
        before = set(threading.enumerate())
        with open_cluster(backend="live", num_processes=5) as cluster:
            cluster.session(0).write_sync("x")
            assert cluster.session(4).read_sync() == "x"
            assert [t.name for t in set(threading.enumerate()) - before] == []

    def test_close_with_a_recovery_pending_destroys_nothing(self, caplog):
        """A recovery the caller never ran is left, not destroyed mid-flight."""
        loop_logger = RuntimeNode.__module__  # where the loop logs what raised
        with caplog.at_level(logging.WARNING, logger=loop_logger):
            with open_cluster(backend="live") as cluster:
                cluster.crash(1)
                cluster.recover(1, wait=False)
            gc.collect()
        assert [r.getMessage() for r in caplog.records if r.name == loop_logger] == []

    def test_close_before_start_removes_the_temporary_root(self):
        cluster = open_cluster(backend="live")
        root = cluster.storage_root
        assert root.exists()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cluster.close()
            assert not root.exists()
            del cluster
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_latency_includes_the_submission(self, tmp_path, monkeypatch):
        check_value = live.check_value

        def slow_check(value, key):
            time.sleep(0.05)
            check_value(value, key)

        monkeypatch.setattr(live, "check_value", slow_check)
        with open_cluster(backend="live", storage_root=tmp_path) as cluster:
            handle = cluster.wait(cluster.session(0).write("x"), expect_done=True)
            assert handle.latency >= 0.05

    def test_session_is_not_ready_while_its_node_recovers(self, tmp_path, monkeypatch):
        with open_cluster(backend="live", storage_root=tmp_path) as cluster:
            node, session = cluster.nodes[1], cluster.session(1)
            cluster.crash(1)
            held, release = hold_store(monkeypatch, cluster, node, None)
            try:
                # Recovery's read-back is the first job parked.
                cluster.recover(1, wait=False)
                wait_for(cluster, lambda: not node.crashed)
                cluster.run(0.05)
                assert not session.ready
            finally:
                release()
            wait_for(cluster, lambda: session.ready)
            assert cluster.stats().recoveries == 1

    def test_ensure_key_honours_its_timeout(self, tmp_path, monkeypatch):
        with open_cluster(backend="live", storage_root=tmp_path) as cluster:
            held, release = hold_store(monkeypatch, cluster, cluster.nodes[0], "k/writing")
            started = time.monotonic()
            try:
                with pytest.raises(ProtocolError, match="make register 'k' ready"):
                    cluster.ensure_key("k", timeout=0.2)
                assert time.monotonic() - started < 2.0
                assert held.is_set()
            finally:
                release()


def causal_logs_of_write(cluster):
    """``causal_logs`` of one write invoked on node 0 itself."""
    operation = cluster.nodes[0].invoke_write("x")
    wait_for(cluster, lambda: operation.settled)
    return operation.causal_logs


class TestLiveCausalLogs:
    def test_write_log_counts_match_the_paper_over_real_io(self, tmp_path):
        with open_cluster(
            backend="live", protocol="persistent", num_processes=3, storage_root=tmp_path
        ) as cluster:
            assert causal_logs_of_write(cluster) == 2

    def test_transient_write_costs_one_log_over_real_io(self, tmp_path):
        with open_cluster(
            backend="live", protocol="transient", num_processes=3, storage_root=tmp_path
        ) as cluster:
            assert causal_logs_of_write(cluster) == 1
