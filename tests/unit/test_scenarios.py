"""Unit: scenario specs, the fault-schedule primitives, the registry.

Each fault primitive gets a focused test arming it on a small cluster
and observing exactly the state change it declares -- crashes and
recoveries at their instants, links blocked then healed, bursts
dropping deterministically, slow links stretching deliveries, triggers
firing synchronously on their trace event.
"""

import json

import pytest

from repro.api import CRASH_INJECTION, TRACE, VIRTUAL_TIME, open_cluster
from repro.api.base import Cluster
from repro.common.errors import CapabilityError, ConfigurationError
from repro.scenarios import (
    SCENARIOS,
    CrashAt,
    CrashOnTrace,
    Downtime,
    LossBurst,
    PartitionWindow,
    RandomCrashPlan,
    RollingRestarts,
    Scenario,
    SlowLinks,
    WorkloadPhase,
    get_scenario,
    list_scenarios,
    run_scenario,
)
from repro.scenarios.faults import (
    CorruptRecord,
    LostStore,
    SlowDisk,
    TornStore,
    arm_steps,
    victims_of,
)
from repro.scenarios.spec import STORE_KV


def make_cluster(num_processes=3, protocol="persistent", **kwargs):
    cluster = open_cluster(
        "sim",
        protocol=protocol, num_processes=num_processes, seed=9, **kwargs
    )
    cluster.start()
    return cluster


# -- fault primitives --------------------------------------------------------


def test_downtime_crashes_then_recovers():
    cluster = make_cluster()
    Downtime(pid=1, start=1e-3, end=4e-3).arm(cluster)
    cluster.run(duration=2e-3)
    assert cluster.node(1).crashed
    cluster.run(duration=4e-3)
    assert not cluster.node(1).crashed


def test_downtime_validates_window():
    with pytest.raises(ConfigurationError):
        Downtime(pid=0, start=2.0, end=1.0)


def test_crash_at_is_permanent():
    cluster = make_cluster()
    CrashAt(pid=2, time=1e-3).arm(cluster)
    cluster.run(duration=10e-3)
    assert cluster.node(2).crashed


def test_rolling_restarts_staggers_victims():
    cluster = make_cluster()
    fault = RollingRestarts(start=1e-3, interval=4e-3, downtime=2e-3)
    fault.arm(cluster)
    crashed_during_wave = set()
    # Sample between actions: at most one process is down at a time
    # because interval > downtime.
    for _ in range(40):
        cluster.run(duration=0.5e-3)
        down = {node.pid for node in cluster.nodes if node.crashed}
        assert len(down) <= 1
        crashed_during_wave |= down
    assert crashed_during_wave == {0, 1, 2}
    assert not any(node.crashed for node in cluster.nodes)


def test_rolling_restarts_victims_sentinel():
    assert victims_of([RollingRestarts()], 3) == {0, 1, 2}
    assert victims_of([RollingRestarts(pids=(1,))], 3) == {1}
    assert victims_of([Downtime(pid=2, start=0, end=1)], 5) == {2}
    assert victims_of([PartitionWindow((0,), (1,), 0.0, 1.0)], 3) == set()


def test_permanent_victims():
    recovered = [
        Downtime(pid=1, start=0, end=1),
        RollingRestarts(),
        CrashOnTrace(kind="send", pid=2, recover_after=1e-3),
    ]
    assert victims_of(recovered, 3, permanent_only=True) == set()
    doomed = [CrashAt(pid=0, time=1e-3), CrashOnTrace(kind="send", pid=2)]
    assert victims_of(doomed, 3, permanent_only=True) == {0, 2}


def test_partition_window_blocks_then_heals():
    cluster = make_cluster()
    PartitionWindow(group_a=(2,), group_b=(0, 1), start=1e-3, end=3e-3).arm(cluster)
    cluster.run(duration=2e-3)
    assert cluster.network.is_blocked(2, 0)
    assert cluster.network.is_blocked(0, 2)
    assert not cluster.network.is_blocked(0, 1)
    cluster.run(duration=2e-3)
    assert not cluster.network.is_blocked(2, 0)
    assert not cluster.network.is_blocked(0, 2)


def test_overlapping_partition_windows_compose():
    cluster = make_cluster()
    PartitionWindow(group_a=(2,), group_b=(0, 1), start=1e-3, end=5e-3).arm(cluster)
    PartitionWindow(group_a=(2,), group_b=(0, 1), start=3e-3, end=8e-3).arm(cluster)
    cluster.run(duration=6e-3)  # first window healed, second still open
    assert cluster.network.is_blocked(2, 0)
    cluster.run(duration=3e-3)  # second window healed too
    assert not cluster.network.is_blocked(2, 0)


def test_overlapping_slow_link_windows_compose():
    cluster = make_cluster()
    SlowLinks(start=1e-3, end=5e-3, extra_delay=1e-3).arm(cluster)
    SlowLinks(start=3e-3, end=8e-3, extra_delay=2e-3).arm(cluster)
    cluster.run(duration=4e-3)  # both windows open: penalties add
    assert cluster.network.link_penalty(0, 1) == pytest.approx(3e-3)
    cluster.run(duration=2e-3)  # first restored, second still open
    assert cluster.network.link_penalty(0, 1) == pytest.approx(2e-3)
    cluster.run(duration=4e-3)
    assert cluster.network.link_penalty(0, 1) == 0.0


def test_partition_window_validates_groups():
    with pytest.raises(ConfigurationError):
        PartitionWindow(group_a=(0,), group_b=(0, 1), start=0.0, end=1.0)
    with pytest.raises(ConfigurationError):
        PartitionWindow(group_a=(), group_b=(1,), start=0.0, end=1.0)


def test_loss_burst_drops_deterministically():
    def dropped_after_burst(seed):
        cluster = make_cluster()
        LossBurst(start=0.0, end=5e-3, probability=0.5, seed=seed).arm(cluster)
        cluster.session(0).write_sync("v")
        cluster.run(duration=10e-3)
        return cluster.network.messages_dropped

    assert dropped_after_burst(3) > 0
    assert dropped_after_burst(3) == dropped_after_burst(3)


def test_loss_burst_filter_is_removed_after_window():
    cluster = make_cluster()
    LossBurst(start=0.0, end=2e-3, probability=1.0, seed=1).arm(cluster)
    handle = cluster.session(0).write("survivor")
    cluster.run(duration=1e-3)
    before = cluster.network.messages_dropped
    assert before > 0  # the write's rounds were eaten inside the window
    assert not handle.settled
    # Once the window closes the filter is removed: retransmission
    # carries the write through and nothing further drops.
    cluster.run_until(lambda: handle.settled, timeout=2.0)
    assert handle.done
    assert cluster.network.messages_dropped == before


def test_slow_links_applies_and_clears_penalty():
    cluster = make_cluster()
    SlowLinks(start=1e-3, end=4e-3, extra_delay=2e-3).arm(cluster)
    cluster.run(duration=2e-3)
    assert cluster.network.link_penalty(0, 1) == 2e-3
    assert cluster.network.link_penalty(1, 0) == 2e-3
    cluster.run(duration=3e-3)
    assert cluster.network.link_penalty(0, 1) == 0.0


def test_slow_links_stretches_write_latency():
    def write_latency(arm):
        cluster = make_cluster()
        if arm:
            SlowLinks(start=0.0, end=1.0, extra_delay=1e-3).arm(cluster)
            cluster.run(duration=1e-4)  # let the window open
        handle = cluster.session(0).write_sync("v")
        return handle.latency

    assert write_latency(True) > write_latency(False) + 1e-3


def test_network_slow_link_validation():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        cluster.network.slow_link(0, 1, -1.0)
    cluster.network.slow_link(0, 1, 5e-4)
    assert cluster.network.link_penalty(0, 1) == 5e-4
    cluster.network.reset_link_speeds()
    assert cluster.network.link_penalty(0, 1) == 0.0


@pytest.mark.parametrize("verb", ["slow_link", "unslow_link"])
def test_network_slow_link_refuses_a_nan_delay(verb):
    # A NaN penalty would reach the kernel's heap with every later send.
    cluster = make_cluster()
    with pytest.raises(ValueError, match="extra_delay must be >= 0, got nan"):
        getattr(cluster.network, verb)(0, 1, float("nan"))
    assert cluster.network.link_penalty(0, 1) == 0.0


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda t: Downtime(pid=0, start=t, end=1e-3),
        lambda t: Downtime(pid=0, start=0.0, end=t),
        lambda t: CrashAt(pid=0, time=t),
        lambda t: RollingRestarts(start=t),
        lambda t: RollingRestarts(interval=t),
        lambda t: RollingRestarts(downtime=t),
        lambda t: SlowLinks(start=0.0, end=1e-3, extra_delay=t),
        lambda t: CrashOnTrace(kind="store_begin", pid=0, recover_after=t),
        lambda t: TornStore(pid=0, recover_after=t),
        lambda t: CorruptRecord(pid=0, key="written", time=t),
        lambda t: SlowDisk(pid=0, start=0.0, end=1e-3, extra_latency=t),
        lambda t: LostStore(pid=0, time=t),
        lambda t: RandomCrashPlan(horizon=t),
    ],
    ids=[
        "downtime-start", "downtime-end", "crash-at", "rolling-start",
        "rolling-interval", "rolling-downtime", "slow-links", "crash-on-trace",
        "torn-store", "corrupt-record", "slow-disk", "lost-store", "random-crashes",
    ],
)
def test_a_nan_fault_time_is_refused_like_a_negative_one(build):
    # Refused when the fault is built, with the negative value's words;
    # a NaN time used to reach the kernel only when the step was armed.
    with pytest.raises(ConfigurationError) as negative:
        build(-1.0)
    with pytest.raises(ConfigurationError) as nan:
        build(NAN)
    assert str(nan.value) == str(negative.value)


def test_a_nan_step_time_is_refused_before_anything_is_armed():
    cluster = make_cluster()
    steps = [(1e-3, "crash", (0,)), (NAN, "crash", (1,))]
    with pytest.raises(ConfigurationError, match="crash step at nan is in the past"):
        arm_steps(cluster, steps)
    assert cluster.kernel.pending_events == 0


def test_unslow_link_leaves_no_float_residue():
    # Mixed-magnitude add/remove pairs must return the link to exactly
    # zero (float dust below a picosecond is snapped away).
    cluster = make_cluster()
    cluster.network.slow_link(0, 1, 0.1)
    cluster.network.slow_link(0, 1, 0.2)
    cluster.network.unslow_link(0, 1, 0.1)
    cluster.network.unslow_link(0, 1, 0.2)
    assert cluster.network.link_penalty(0, 1) == 0.0


def test_crash_on_trace_fires_synchronously_and_recovers():
    cluster = make_cluster()
    CrashOnTrace(
        kind="store_begin", pid=0, source_pid=0, recover_after=2e-3
    ).arm(cluster)
    # The write's first log at p0 triggers the crash, aborting the op.
    handle = cluster.session(0).write("doomed")
    cluster.run_until(lambda: handle.settled, timeout=1.0)
    assert handle.aborted
    assert cluster.node(0).crashed
    cluster.run(duration=5e-3)
    assert not cluster.node(0).crashed


def test_crash_on_trace_validates():
    with pytest.raises(ConfigurationError):
        CrashOnTrace(kind="send", pid=0, count=0)
    with pytest.raises(ConfigurationError):
        CrashOnTrace(kind="send", pid=0, recover_after=0.0)


# -- steps through the façade ------------------------------------------------


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def test_library_fault_steps_round_trip_through_json():
    faults = [
        (fault, scenario.num_processes)
        for scenario in list_scenarios()
        for phase in scenario.phases
        for fault in phase.faults
    ]
    faults.append((RandomCrashPlan(horizon=0.1, seed=3, crash_rate=1.0), 5))
    assert len(faults) >= 12
    for fault, num_processes in faults:
        steps = fault.steps(num_processes)
        assert steps
        decoded = json.loads(json.dumps(steps))
        assert [_tuples(step) for step in decoded] == steps, fault


def test_decoded_steps_arm_like_the_primitive():
    def drops(arm):
        cluster = make_cluster()
        arm(cluster)
        cluster.session(0).write_sync("v")
        cluster.run(duration=10e-3)
        return cluster.network.messages_dropped, cluster.kernel.events_processed

    burst = LossBurst(start=0.0, end=5e-3, probability=0.5, seed=3)
    decoded = json.loads(json.dumps(burst.steps(3)))
    assert drops(burst.arm) == drops(lambda c: arm_steps(c, decoded))


@pytest.mark.parametrize(
    "fault",
    [
        PartitionWindow(group_a=(7,), group_b=(0, 1), start=1e-3, end=5e-3),
        SlowLinks(start=1e-3, end=5e-3, extra_delay=1e-3, links=((0, 9),)),
        Downtime(pid=7, start=1e-3, end=5e-3),
    ],
    ids=["partition", "slow-links", "downtime"],
)
def test_out_of_range_fault_pids_are_refused_up_front(fault):
    scenario = Scenario(
        name="bad-pid",
        description="a fault naming a process the cluster lacks",
        num_processes=5,
        phases=(WorkloadPhase(name="p", faults=(fault,)),),
    )
    with pytest.raises(ConfigurationError, match="outside the 5-process"):
        run_scenario(scenario, ops=60)


def test_link_verbs_validate_pids():
    facade = make_cluster()
    with pytest.raises(ConfigurationError):
        facade.partition([7], [0, 1])
    with pytest.raises(ConfigurationError):
        facade.heal([0], [9])
    with pytest.raises(ConfigurationError):
        facade.slow_link([(0, 9)], 1e-3)


def test_heal_releases_one_block_per_link():
    cluster = make_cluster()
    facade = cluster
    facade.partition([2], [0, 1])
    facade.partition([2], [0])
    facade.heal([2], [0, 1])
    assert cluster.network.is_blocked(2, 0) and cluster.network.is_blocked(0, 2)
    assert not cluster.network.is_blocked(2, 1)
    facade.heal()
    assert not cluster.network.is_blocked(2, 0)


def test_timed_faults_refused_on_live_before_any_socket():
    cluster = open_cluster(backend="live", num_processes=3)
    try:
        with pytest.raises(CapabilityError, match="virtual_time"):
            Downtime(pid=1, start=1e-3, end=2e-3).arm(cluster)
        assert cluster.nodes == []
    finally:
        cluster.close()


class _NoLinkFaults(Cluster):
    """A façade stub that can crash processes but not touch links."""

    backend = "stub"
    capabilities = frozenset({VIRTUAL_TIME, CRASH_INJECTION, TRACE})

    def __init__(self, num_processes, **_options):
        self._num_processes = num_processes

    @property
    def num_processes(self):
        return self._num_processes

    def start(self):
        raise AssertionError("the scenario should be refused before start()")


def test_runner_refuses_missing_capabilities_before_start(monkeypatch):
    from repro.scenarios import runner

    monkeypatch.setattr(runner, "open_cluster", _NoLinkFaults)
    with pytest.raises(CapabilityError, match="link_faults"):
        run_scenario(get_scenario("partition-heal"), ops=30)


# -- spec --------------------------------------------------------------------


def test_split_ops_is_exact_and_weighted():
    scenario = Scenario(
        name="t",
        description="t",
        phases=(
            WorkloadPhase(name="a", weight=1.0),
            WorkloadPhase(name="b", weight=2.0),
            WorkloadPhase(name="c", weight=1.0),
        ),
    )
    shares = scenario.split_ops(100)
    assert sum(shares) == 100
    assert shares[1] > shares[0]
    assert all(share >= 1 for share in shares)
    # Tiny budgets still give every phase work.
    assert sum(scenario.split_ops(3)) == 3


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        Scenario(name="x", description="x", phases=())
    with pytest.raises(ConfigurationError):
        Scenario(
            name="x", description="x", store="blob",
            phases=(WorkloadPhase(name="p"),),
        )
    with pytest.raises(ConfigurationError):
        WorkloadPhase(name="p", read_fraction=1.5)
    with pytest.raises(ConfigurationError):
        WorkloadPhase(name="p", weight=0.0)


# -- registry ----------------------------------------------------------------


def test_library_has_the_advertised_scenarios():
    names = {scenario.name for scenario in list_scenarios()}
    assert len(names) >= 8
    for required in (
        "steady-state",
        "rolling-crash",
        "crash-during-write",
        "partition-heal",
        "recovery-storm",
        "crash-mid-checkpoint",
        "checkpointed-recovery-storm",
        "zipfian-contention",
        "trace-capture",
        "soak-100k",
    ):
        assert required in names
    assert get_scenario("soak-100k").default_ops == 100_000
    kv_scenarios = [s for s in list_scenarios() if s.store == STORE_KV]
    assert kv_scenarios, "the library should cover the KV store"


def test_get_scenario_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        get_scenario("does-not-exist")


def test_registry_names_match_keys():
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name


def test_scenario_list_plans_fleet_sweeps():
    # The --list table must carry enough to plan a fleet sweep without
    # reading library.py: quick budgets and per-protocol capability
    # notes for every scenario.
    from repro.cli import format_scenario_list, scenario_notes

    listing = format_scenario_list()
    assert "quick ops" in listing
    assert "notes" in listing
    assert "crash faults dropped on crash-stop" in listing
    assert "kv store (8 shards)" in listing
    assert "captures full trace" in listing
    assert "repro fleet" in listing
    for scenario in list_scenarios():
        assert str(scenario.quick_ops) in listing
    # Crash-carrying scenarios are flagged; fault-free ones are not.
    assert "crash" in scenario_notes(get_scenario("rolling-crash"))
    assert "crash" not in scenario_notes(get_scenario("steady-state"))
    assert "crash" not in scenario_notes(get_scenario("loss-burst"))
