"""Integration: one closed-loop runner, every client shape, every backend.

Planned register clients and zipfian key clients are two ways to draw
the next operation; :class:`~repro.workloads.generators.WorkloadRunner`
drives both with one client policy on the simulator, the sharded store
and the live UDP runtime.
"""

import pytest

from repro.api import open_cluster
from repro.history.events import READ, WRITE
from repro.workloads.generators import ClientPlan, WorkloadRunner, planned
from repro.workloads.kv import DRAIN_POLL_STRIDE, ZipfianKeys, zipf_clients


def planned_clients(cluster, per_client=4):
    plans = [
        ClientPlan(pid, [WRITE, READ] * (per_client // 2))
        for pid in range(cluster.num_processes)
    ]
    return planned(plans), per_client * cluster.num_processes


def zipfian_clients(cluster, per_client=4):
    # Twice as many clients as processes, on few keys: two clients of
    # one process meet on a key, which a single register refuses.
    keys = ZipfianKeys(num_keys=4, seed=3)
    cluster.preload(keys.keys)
    clients = zipf_clients(
        [per_client] * (2 * cluster.num_processes),
        range(cluster.num_processes),
        keys,
        seed=3,
    )
    return clients, per_client * 2 * cluster.num_processes


@pytest.mark.parametrize(
    "backend, shape",
    [
        ("sim", planned_clients),
        ("kv", planned_clients),
        ("live", planned_clients),
        ("kv", zipfian_clients),
        ("sim", zipfian_clients),
    ],
    ids=["sim-planned", "kv-planned", "live-planned", "kv-zipf", "sim-zipf"],
)
def test_one_runner_on_every_backend(backend, shape):
    with open_cluster(backend=backend, num_processes=3) as c:
        clients, budget = shape(c)
        report = WorkloadRunner(c, clients).run(timeout=30.0)
        assert (report.issued, report.completed, report.unissued) == (budget, budget, 0)
        assert report.aborted == 0
        assert len(report.latencies) == budget and report.mean_latency > 0
        assert report.duration > 0 and report.throughput > 0
        assert c.check().ok


def test_two_clients_on_one_process_each_issue_their_plan():
    c = open_cluster("sim", protocol="persistent", num_processes=3).start()
    clients = planned([ClientPlan(0, [WRITE] * 3), ClientPlan(0, [READ] * 2)])
    report = WorkloadRunner(c, clients).run()
    assert (report.issued, report.completed, report.unissued) == (5, 5, 0)
    kinds = [op.kind for op in c.history.completed_operations()]
    assert sorted(kinds) == [READ, READ, WRITE, WRITE, WRITE]
    assert c.check().ok


def test_a_returned_register_run_issues_nothing_more():
    c = open_cluster("sim", protocol="persistent", num_processes=3).start()
    c.crash(1)
    runner = WorkloadRunner(c, planned([ClientPlan(1, [WRITE] * 4)]))
    report = runner.run(timeout=0.05)
    assert (report.issued, report.unissued) == (0, 4)
    c.recover(1)
    c.run(0.5)
    assert c.history.operations() == []
    assert (report.issued, report.completed, report.unissued) == (0, 0, 4)


def test_a_returned_kv_run_issues_nothing_more():
    c = open_cluster("kv", protocol="persistent", num_processes=3).start()
    keys = ZipfianKeys(num_keys=4, seed=1)
    c.preload(keys.keys)
    c.crash(1)
    runner = WorkloadRunner(c, zipf_clients([3, 3], [1], keys, seed=1))
    report = runner.run(timeout=0.05, poll_every=DRAIN_POLL_STRIDE)
    # Each client's first operation waits in the crashed replica's queue.
    assert (report.issued, report.completed, report.unissued) == (2, 0, 4)
    c.recover(1)
    c.run(0.5)
    # Only those two reach the history; the report read at the return.
    assert len(c.history.completed_operations()) == 2
    assert (report.issued, report.completed, report.unissued) == (2, 0, 4)
    assert c.check().ok


def test_sim_keys_need_no_preload():
    """A session is ready for a key exactly when an invocation on it cannot raise.

    A register the simulator has not booted refuses an invocation, so
    a new key is not ready until it has: asking provisions it.
    """
    c = open_cluster("sim", num_processes=3, seed=1).start()
    session = c.session(0)
    assert not session.ready_for("key-7")
    assert c.run_until(lambda: session.ready_for("key-7"), timeout=1.0)
    c.wait(session.write("x", key="key-7"), timeout=1.0, expect_done=True)
    clients = zipf_clients([10] * 3, [0, 1, 2], ZipfianKeys(8), seed=1)
    report = WorkloadRunner(c, clients).run(timeout=5.0)
    assert (report.issued, report.completed, report.aborted, report.unissued) == (
        30, 30, 0, 0,
    )
    assert c.check().ok
