"""Property-based tests for the checkpoint/compaction layer.

The safety claim the two-phase checkpoint discipline must uphold: a
crash landed at *any* point of the checkpoint lifecycle -- before the
tentative store, between the tentative and permanent phases, after the
commit, or anywhere else in a random schedule -- never costs the
cluster atomicity.  Either the previous permanent snapshot plus the
intact log suffix restores the process, or the new snapshot does; a
torn checkpoint is indistinguishable from no checkpoint.
"""

from hypothesis import given, settings, strategies as st

from repro.api import Cluster, open_cluster
from repro.common.config import ClusterConfig, NetworkConfig
from repro.history.register_checker import check_tagged_history
from repro.obs import tracing
from repro.scenarios.faults import CrashOnTrace, RandomCrashPlan
from repro.workloads.generators import run_closed_loop

CHECKPOINT_INTERVAL = 8e-4

#: Every observable point of the two-phase lifecycle a crash can land
#: on (the crash lands synchronously on the trace event).
CRASH_POINTS = (
    tracing.CKPT_BEGIN,
    tracing.CKPT_TENTATIVE,
    tracing.CKPT_COMMIT,
)


def checkpointing_cluster(seed: int) -> Cluster:
    config = ClusterConfig(
        num_processes=3,
        network=NetworkConfig(drop_probability=0.05),
        retransmit_interval=1e-3,
        seed=seed,
    )
    cluster = open_cluster(
        "sim",
        protocol="persistent",
        config=config,
        capture_trace=False,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        recovery_scan=True,
    )
    cluster.start()
    return cluster


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    point=st.sampled_from(CRASH_POINTS),
    victim=st.integers(0, 2),
    count=st.integers(1, 3),
)
def test_crash_at_any_checkpoint_phase_keeps_history_atomic(
    seed, point, victim, count
):
    cluster = checkpointing_cluster(seed)
    CrashOnTrace(
        kind=point, pid=victim, source_pid=victim, count=count,
        recover_after=4e-3,
    ).arm(cluster)
    run_closed_loop(
        cluster,
        operations_per_client=6,
        read_fraction=0.5,
        seed=seed,
        timeout=120.0,
    )
    white = check_tagged_history(cluster.history, cluster.recorder, "persistent")
    assert white.ok, cluster.history.format()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_crash_schedules_with_checkpointing_stay_atomic(seed):
    # Crash points chosen by a seeded random plan instead of trace
    # triggers: crashes land mid-scan, mid-replay, between checkpoint
    # ticks -- anywhere in real schedules.
    cluster = checkpointing_cluster(seed)
    RandomCrashPlan(
        horizon=0.25,
        seed=seed + 1,
        crash_rate=0.5,
        mean_downtime=0.02,
    ).arm(cluster)
    run_closed_loop(
        cluster,
        operations_per_client=4,
        read_fraction=0.5,
        seed=seed,
        timeout=120.0,
    )
    white = check_tagged_history(cluster.history, cluster.recorder, "persistent")
    assert white.ok, cluster.history.format()
