"""Unit tests for the checkpoint/compaction layer.

Covers the pure helpers of :mod:`repro.storage.checkpoint`, the
snapshot-aware :class:`~repro.protocol.base.StableView`, the node's
two-phase checkpoint sequence (commit, truncation, the recovery fast
path -- the same cases under the simulated and the live driver; torn
crash and scan-delayed recovery, which only the simulator can stage),
and the storage fault verbs the scenarios arm.  The crash points the
real drivers cannot stage are in ``tests/unit/test_node_core.py``.
"""

import pytest

from repro.api import open_cluster
from repro.protocol.base import Checkpoint, StableView
from repro.scenarios.faults import TornStore
from repro.obs import tracing
from repro.storage import checkpoint as ckpt


def started_cluster(n=3, **kwargs):
    cluster = open_cluster("sim", protocol="persistent", num_processes=n, **kwargs)
    cluster.start()
    return cluster


def run_intervals(cluster, interval, count):
    """Drive the kernel ``count`` checkpoint intervals past now."""
    cluster.kernel.run(until=cluster.kernel.now + count * interval)


INTERVAL = 1e-3


# -- helpers -----------------------------------------------------------------


class TestCheckpointHelpers:
    def test_snapshot_record_round_trip(self):
        record = ckpt.build_snapshot_record(
            3, {"b": (2,), "a": (1,)}, {"a": 10, "b": 20}
        )
        seq, records, sizes = ckpt.load_snapshot(record)
        assert seq == 3
        assert records == {"a": (1,), "b": (2,)}
        assert sizes == {"a": 10, "b": 20}
        # Entries are sorted so equal snapshots serialize identically.
        assert record[1][0][0] == "a"

    def test_load_missing_snapshot(self):
        assert ckpt.load_snapshot(None) == (0, {}, {})

    def test_snapshot_store_size_accounts_entries(self):
        empty = ckpt.snapshot_store_size([])
        assert empty == ckpt.SNAPSHOT_OVERHEAD
        two = ckpt.snapshot_store_size([10, 20])
        assert two == ckpt.SNAPSHOT_OVERHEAD + 30 + 2 * ckpt.ENTRY_OVERHEAD

    def test_capturable_keys_filters_by_idle_prefix(self):
        keys = [
            "writing", "written", "reg/writing", "reg/written",
            ckpt.TENTATIVE_KEY, ckpt.PERMANENT_KEY,
        ]
        # Only the default (unprefixed) slot is idle.
        assert ckpt.capturable_keys(keys, [""]) == ["writing", "written"]
        # Only the named slot is idle.
        assert ckpt.capturable_keys(keys, ["reg/"]) == [
            "reg/writing", "reg/written",
        ]
        # Checkpoint bookkeeping keys are never captured.
        assert ckpt.capturable_keys(keys, ["", "reg/"]) == [
            "writing", "written", "reg/writing", "reg/written",
        ]

    def test_is_checkpoint_key(self):
        assert ckpt.is_checkpoint_key(ckpt.TENTATIVE_KEY)
        assert ckpt.is_checkpoint_key(ckpt.PERMANENT_KEY)
        assert not ckpt.is_checkpoint_key("writing")


class TestStableViewSnapshot:
    def test_retrieve_falls_back_to_snapshot(self):
        view = StableView({"live": (1,)}, {"snap": (2,), "live": (9,)})
        assert view.retrieve("live") == (1,)  # live record wins
        assert view.retrieve("snap") == (2,)
        assert view.retrieve("missing") is None

    def test_checkpointed_means_snapshot_only(self):
        view = StableView({"live": (1,)}, {"snap": (2,), "live": (9,)})
        assert view.checkpointed("snap")
        assert not view.checkpointed("live")  # re-logged since capture
        assert not view.checkpointed("missing")

    def test_contains_and_keys_merge(self):
        view = StableView({"a": (1,)}, {"b": (2,)})
        assert "a" in view and "b" in view
        assert set(view.keys()) == {"a", "b"}

    def test_scoped_view_keeps_the_snapshot(self):
        view = StableView(
            {"reg/writing": (1,)}, {"reg/written": (2,)}
        ).scoped("reg/")
        assert view.retrieve("writing") == (1,)
        assert view.retrieve("written") == (2,)
        assert view.checkpointed("written")
        assert not view.checkpointed("writing")


# -- the node's two-phase sequence, under both drivers -----------------------


class SimWorld:
    """A simulated cluster that checkpoints on its interval timer."""

    def __init__(self):
        self.cluster = started_cluster(checkpoint_interval=INTERVAL)
        self.node = self.cluster.node
        self.crash = self.cluster.crash

    def write(self, pid, value):
        self.cluster.session(pid).write_sync(value)

    def read(self, pid):
        return self.cluster.session(pid).read_sync()

    def checkpoint(self):
        run_intervals(self.cluster, INTERVAL, 3)

    def recover(self, pid):
        self.cluster.recover(pid)


class LiveWorld:
    """A live cluster checkpointed on demand, node by node."""

    def __init__(self, storage_root):
        self.cluster = open_cluster(
            backend="live", protocol="persistent", num_processes=3,
            storage_root=storage_root,
        ).start()
        self.node = self.cluster.nodes.__getitem__
        self.crash = self.cluster.crash
        self.recover = self.cluster.recover
        self._last = None

    def write(self, pid, value):
        self.cluster.session(pid).write_sync(value)
        self._last = value

    def read(self, pid):
        return self.cluster.session(pid).read_sync()

    def checkpoint(self):
        for node in self.cluster.nodes:
            # A write returns on a majority; a node is quiescent, and
            # its slot's records capturable, once its own log landed
            # (in the live log or, already truncated, in the snapshot).
            assert self.cluster.run_until(
                lambda: node._stable_view.retrieve("written")[1] == self._last,
                timeout=10.0,
            )
            self.cluster.checkpoint(node.pid)


class CheckpointCases:
    """What a committed checkpoint means, whatever drives the node."""

    def test_checkpoint_commits_and_truncates(self, world):
        world.write(0, "durable")
        world.checkpoint()
        node = world.node(0)
        assert node.checkpoints_committed >= 1
        storage = node.storage
        # The captured log records were truncated into the snapshot...
        assert "written" not in storage.records
        assert "writing" not in storage.records
        assert storage.retrieve(ckpt.PERMANENT_KEY) is not None
        assert storage.retrieve(ckpt.TENTATIVE_KEY) is None
        # ...but the protocol still sees them through its StableView.
        view = node._stable_view
        assert view.retrieve("written") is not None
        assert view.checkpointed("written")

    def test_unchanged_state_needs_no_new_checkpoint(self, world):
        world.write(0, "once")
        world.checkpoint()
        node = world.node(0)
        committed = node.checkpoints_committed
        assert committed >= 1
        world.checkpoint()
        assert node.checkpoints_committed == committed

    def test_recovery_restores_from_snapshot(self, world):
        world.write(0, "pre-crash")
        world.checkpoint()
        assert world.node(1).checkpoints_committed >= 1
        world.crash(1)
        world.recover(1)
        node = world.node(1)
        assert node.recovery_times  # duration recorded
        assert world.read(1) == "pre-crash"

    def test_post_snapshot_write_defeats_the_fast_path(self, world):
        world.write(0, "old")
        world.checkpoint()
        world.write(0, "new")  # re-logs writing past the snapshot
        world.crash(1)
        world.recover(1)
        assert world.read(1) == "new"


class TestLiveNodeCheckpoint(CheckpointCases):
    @pytest.fixture
    def world(self, tmp_path):
        world = LiveWorld(tmp_path)
        yield world
        world.cluster.close()


class TestSimNodeCheckpoint(CheckpointCases):
    @pytest.fixture
    def world(self):
        return SimWorld()

    def test_compaction_resets_the_log_footprint(self, world):
        world.write(0, "durable")
        world.checkpoint()
        storage = world.node(0).storage
        assert storage.compactions >= 1
        assert storage.log_records == len(storage.records)

    def test_torn_checkpoint_recovers_from_previous_snapshot(self):
        cluster = started_cluster(checkpoint_interval=INTERVAL)
        TornStore(pid=1).arm(cluster)
        cluster.session(0).write_sync("torn")
        run_intervals(cluster, INTERVAL, 3)
        node = cluster.node(1)
        assert node.crashed
        storage = node.storage
        # The crash landed between the phases: tentative durable,
        # permanent absent, nothing truncated.
        assert storage.retrieve(ckpt.TENTATIVE_KEY) is not None
        assert storage.retrieve(ckpt.PERMANENT_KEY) is None
        assert storage.retrieve("written") is not None
        cluster.recover(1)
        # The stray tentative was ignored: no snapshot, log intact.
        assert node._ckpt_seq == 0
        assert cluster.session(1).read_sync() == "torn"
        # The next committed checkpoint supersedes the stray record.
        run_intervals(cluster, INTERVAL, 3)
        assert node.checkpoints_committed >= 1
        assert storage.retrieve(ckpt.TENTATIVE_KEY) is None

    def test_checkpoint_effect_triggers_one(self):
        cluster = started_cluster(checkpoint_interval=INTERVAL)
        cluster.session(0).write_sync("scripted")
        node = cluster.node(0)
        node._execute([Checkpoint()], depth=0, op=None, slot=node._slots[None])
        assert node.checkpoint_in_progress
        cluster.kernel.run(until=cluster.kernel.now + 5e-4)
        assert node.checkpoints_committed == 1

    def test_interval_must_be_positive(self):
        with pytest.raises(Exception):
            open_cluster(
                "sim",
                protocol="persistent", num_processes=3, checkpoint_interval=0.0
            )

    def test_checkpoint_trace_kinds_are_appended(self):
        # KIND_IDS are positional in the flight-recorder ring encoding;
        # the checkpoint kinds must extend, never reorder, the list.
        assert tracing.ALL_KINDS[-3:] == (
            tracing.CKPT_BEGIN, tracing.CKPT_TENTATIVE, tracing.CKPT_COMMIT,
        )


class TestScanDelayedRecovery:
    def test_recovery_scan_bills_the_log(self):
        plain = started_cluster(seed=9)
        scanned = started_cluster(seed=9, recovery_scan=True)
        for cluster in (plain, scanned):
            cluster.session(0).write_sync("x")
            cluster.crash(1)
            cluster.recover(1)
        assert scanned.node(1).recovery_times[-1] > plain.node(1).recovery_times[-1]

    def test_checkpointing_bounds_the_scan(self):
        def recovery_time(**kwargs):
            cluster = started_cluster(seed=4, recovery_scan=True, **kwargs)
            for i in range(20):
                cluster.session(0).write_sync(f"v{i}")
            run_intervals(cluster, INTERVAL, 3)
            cluster.crash(1)
            cluster.recover(1)
            return cluster.node(1).recovery_times[-1]

        compacted = recovery_time(checkpoint_interval=INTERVAL)
        unbounded = recovery_time()
        assert compacted < unbounded

    #: (ops, checkpointing) -> (log records, log bytes, recovery ms) left
    #: on p0 at seed 0: exact per seed, virtual time and record counts.
    FLAT_VS_LINEAR = {
        (100, True): (1, 124, 0.20496),
        (200, True): (1, 126, 0.20504),
        (100, False): (64, 1385, 13.081),
        (200, False): (106, 2316, 21.51832),
    }

    @staticmethod
    def recovery_point(ops, checkpointing):
        """Closed loop, idle, then crash and recover p0 (5 processes).

        Idling ten checkpoint intervals lets the checkpointer (which
        only captures idle slots) catch up, so the footprint measured
        is the steady-state one.
        """
        from repro.api import open_cluster
        from repro.workloads.generators import run_closed_loop

        with open_cluster(
            backend="sim",
            protocol="persistent",
            num_processes=5,
            seed=0,
            checkpoint_interval=INTERVAL if checkpointing else None,
            recovery_scan=True,
        ) as cluster:
            run_closed_loop(
                cluster,
                operations_per_client=ops // 5,
                read_fraction=0.5,
                seed=0,
                poll_every=32,
            )
            cluster.run(10 * INTERVAL)
            node = cluster.nodes[0]
            log = (node.storage.log_records, node.storage.log_bytes)
            cluster.crash(0)
            cluster.recover(0)
            assert (node.checkpoints_committed > 0) is checkpointing
            return log + (round(node.recovery_times[-1] * 1e3, 5),)

    def test_recovery_stays_flat_with_checkpointing(self):
        # Checkpointing bounds recovery by the checkpoint interval, not
        # the run's length; without it the scan replays a log that
        # grows with every operation ever logged.
        points = {
            key: self.recovery_point(*key) for key in self.FLAT_VS_LINEAR
        }
        assert points == self.FLAT_VS_LINEAR

        def growth(checkpointing):
            return points[200, checkpointing][2] / points[100, checkpointing][2]

        assert round(growth(True), 2) == 1.00
        assert growth(False) > 1.25
