"""Property-based end-to-end tests: random workloads and schedules.

The heavyweight guarantee of the whole library: for *any* seeded random
workload, crash schedule and lossy network within the model's
assumptions, the algorithms' histories satisfy their promised criterion
and the measured causal-log counts respect the paper's bounds.
"""

from hypothesis import given, settings, strategies as st

from repro.api import open_cluster
from repro.common.config import ClusterConfig, NetworkConfig
from repro.history.register_checker import check_tagged_history
from repro.scenarios.faults import RandomCrashPlan
from repro.workloads.generators import run_closed_loop

BOUNDS = {
    "crash-stop": (0, 0),
    "transient": (1, 1),
    "persistent": (2, 1),
    "persistent-fastread": (2, 1),
}


def run_random_cluster(
    protocol,
    seed,
    num_processes=3,
    crashes=False,
    drop=0.0,
    ops_per_client=4,
    read_fraction=0.5,
):
    config = ClusterConfig(
        num_processes=num_processes,
        network=NetworkConfig(drop_probability=drop),
        retransmit_interval=1e-3,
        seed=seed,
    )
    cluster = open_cluster("sim", protocol=protocol, config=config, capture_trace=False)
    cluster.start()
    if crashes:
        RandomCrashPlan(
            horizon=0.25,
            seed=seed + 1,
            crash_rate=0.5,
            mean_downtime=0.02,
        ).arm(cluster)
    run_closed_loop(
        cluster,
        operations_per_client=ops_per_client,
        read_fraction=read_fraction,
        seed=seed,
        timeout=120.0,
    )
    return cluster


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(["crash-stop", "transient", "persistent"]),
    seed=st.integers(0, 10_000),
    read_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_failure_free_workloads_are_atomic(protocol, seed, read_fraction):
    cluster = run_random_cluster(protocol, seed, read_fraction=read_fraction)
    assert cluster.check().ok


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(["transient", "persistent", "persistent-fastread"]),
    seed=st.integers(0, 10_000),
)
def test_crashy_workloads_satisfy_the_promised_criterion(protocol, seed):
    cluster = run_random_cluster(protocol, seed, crashes=True)
    verdict = cluster.check()
    assert verdict.ok, cluster.history.format()


@settings(max_examples=10, deadline=None)
@given(
    protocol=st.sampled_from(["transient", "persistent"]),
    seed=st.integers(0, 10_000),
)
def test_lossy_crashy_workloads_stay_atomic(protocol, seed):
    cluster = run_random_cluster(protocol, seed, crashes=True, drop=0.1)
    assert cluster.check().ok


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(
        ["crash-stop", "transient", "persistent", "persistent-fastread"]
    ),
    seed=st.integers(0, 10_000),
)
def test_causal_log_bounds_hold_under_randomness(protocol, seed):
    cluster = run_random_cluster(
        protocol, seed, crashes=protocol != "crash-stop", drop=0.05
    )
    write_bound, read_bound = BOUNDS[protocol]
    bounds = {"write": write_bound, "read": read_bound}
    for record in cluster.history.completed_operations():
        logs = cluster.recorder.causal_logs(record.op)
        assert logs is None or logs <= bounds[record.kind]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_white_box_checker_passes_on_larger_runs(seed):
    cluster = run_random_cluster(
        "persistent", seed, num_processes=5, crashes=True, ops_per_client=8
    )
    result = check_tagged_history(cluster.history, cluster.recorder, "persistent")
    assert result.ok, result.violations


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_completed_writes_survive_all_subsequent_failures(seed):
    # Durability: after a write completes, crash ALL processes,
    # recover them, and the value (or a newer one) must be returned.
    cluster = run_random_cluster("persistent", seed, ops_per_client=2)
    handle = cluster.session(0).write_sync("durability-probe")
    for pid in range(cluster.config.num_processes):
        if not cluster.node(pid).crashed:
            cluster.crash(pid)
    for pid in range(cluster.config.num_processes):
        cluster.recover(pid, wait=False)
    cluster.run_until(lambda: all(n.ready for n in cluster.nodes), timeout=5.0)
    assert cluster.session(1).read_sync() == "durability-probe"
