"""Integration: scenario runs are seed-reproducible, end to end.

The scenario layer's contract is *reproducible adversity*: the same
scenario, seed, protocol and budget must yield the identical verdict,
the identical metrics, and (with trace capture) the identical event
transcript.  These tests run real scenarios at small budgets and hold
the runner to that contract, plus the CLI surface (``repro soak``) and
the verdict it prints.
"""

import pytest

from repro import cli
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.soak import quick_ops_for

#: Small budgets keep the suite quick; every scenario still exercises
#: its faults (fault times sit inside even a trimmed first phase).
SMALL_OPS = 120


@pytest.mark.parametrize(
    "name",
    [
        "steady-state",
        "rolling-crash",
        "crash-during-write",
        "partition-heal",
        "recovery-storm",
        "crash-mid-checkpoint",
        "checkpointed-recovery-storm",
        "zipfian-contention",
    ],
)
def test_same_seed_same_fingerprint(name):
    scenario = get_scenario(name)
    first = run_scenario(scenario, ops=SMALL_OPS, seed=5).fingerprint()
    second = run_scenario(scenario, ops=SMALL_OPS, seed=5).fingerprint()
    assert first == second
    assert first["verdict"] is True


def test_different_seed_different_run():
    scenario = get_scenario("steady-state")
    first = run_scenario(scenario, ops=SMALL_OPS, seed=5).fingerprint()
    second = run_scenario(scenario, ops=SMALL_OPS, seed=6).fingerprint()
    assert first != second


def test_trace_capture_transcript_is_reproducible():
    scenario = get_scenario("trace-capture")
    first = run_scenario(scenario, ops=80, seed=3)
    second = run_scenario(scenario, ops=80, seed=3)
    assert first.transcript is not None
    assert first.transcript == second.transcript
    assert len(first.transcript.splitlines()) > 100
    # The normalization renumbers the process-global operation ids.
    assert "#op0" in first.transcript


def test_per_phase_checks_are_incremental():
    result = run_scenario(get_scenario("steady-state"), ops=150, seed=1)
    assert [check.phase for check in result.checks] == [
        "balanced", "read-heavy", "write-heavy",
    ]
    counted = [check.operations for check in result.checks]
    assert counted == sorted(counted)
    assert counted[-1] == 150
    assert result.verdict


def test_faults_actually_fire():
    result = run_scenario(get_scenario("rolling-crash"), ops=SMALL_OPS, seed=2)
    assert result.crashes > 0
    assert result.recoveries > 0
    assert result.verdict
    storm = run_scenario(get_scenario("recovery-storm"), ops=SMALL_OPS, seed=2)
    assert storm.crashes >= 2
    assert storm.messages_dropped > 0
    assert storm.verdict


def test_checkpoint_scenarios_exercise_the_layer():
    torn = run_scenario(get_scenario("crash-mid-checkpoint"), seed=0)
    assert torn.verdict
    # Both the torn-checkpoint crash (trace-triggered on process 1)
    # and the post-corruption restart of process 2 fired and recovered.
    assert torn.crashes >= 2 and torn.recoveries >= 2
    assert torn.recovery_times and set(torn.recovery_times) == {1, 2}

    storm = run_scenario(get_scenario("checkpointed-recovery-storm"), seed=0)
    assert storm.verdict
    assert storm.crashes >= 2
    # Recovery-scan billing: every recovery took measurable virtual time.
    assert storm.recovery_times
    assert all(
        duration > 0
        for times in storm.recovery_times.values()
        for duration in times
    )
    assert "recovery times:" in storm.summary()


@pytest.mark.parametrize("protocol", ["crash-stop", "transient", "persistent"])
def test_scenarios_run_across_protocols(protocol):
    result = run_scenario(
        get_scenario("steady-state"), protocol=protocol, ops=90, seed=4
    )
    assert result.verdict
    assert result.completed == 90
    expected = "transient" if protocol == "transient" else "persistent"
    assert all(check.criterion == expected for check in result.checks)


def test_crash_faults_are_skipped_without_recovery_support():
    # Crash-stop processes never recover; the crash choreography is
    # dropped so the run completes instead of dying mid-callback.
    result = run_scenario(
        get_scenario("rolling-crash"), protocol="crash-stop", ops=90, seed=4
    )
    assert result.crashes == 0
    assert result.verdict


def test_kv_scenario_checks_every_key():
    result = run_scenario(get_scenario("zipfian-contention"), ops=96, seed=8)
    assert result.verdict
    assert result.store == "kv"
    assert all(check.method == "per-key" for check in result.checks)


def test_kv_scenario_consumes_exact_budget():
    # 150 ops over 16 clients does not divide evenly; the budget must
    # still be fully attempted and accounted for (no silent floor).
    result = run_scenario(get_scenario("zipfian-contention"), ops=150, seed=8)
    assert result.completed + result.aborted + result.unissued == 150
    assert sum(phase.attempted for phase in result.phases) == 150


def test_kv_fault_windows_cover_the_workload():
    # KV phases preload their key universe BEFORE faults are armed --
    # otherwise the ~25ms (virtual) preload would swallow a typical
    # phase-relative fault window and the phase would run fault-free.
    from repro.scenarios import LossBurst, Scenario, WorkloadPhase
    from repro.scenarios.spec import STORE_KV

    scenario = Scenario(
        name="kv-lossy",
        description="a loss burst over the measured KV window",
        store=STORE_KV,
        num_shards=2,
        phases=(
            WorkloadPhase(
                name="lossy",
                clients=8,
                num_keys=8,
                faults=(
                    LossBurst(start=1e-3, end=10e-3, probability=0.3, seed=2),
                ),
            ),
        ),
    )
    result = run_scenario(scenario, ops=80, seed=1)
    assert result.messages_dropped > 0  # the burst hit live traffic
    assert result.verdict


def test_multi_phase_kv_scenario_preloads_once():
    from repro.scenarios import Scenario, WorkloadPhase
    from repro.scenarios.spec import STORE_KV

    one = Scenario(
        name="kv-one", description="one phase", store=STORE_KV, num_shards=2,
        phases=(WorkloadPhase(name="a", clients=8, num_keys=16),),
    )
    two = Scenario(
        name="kv-two", description="two phases", store=STORE_KV, num_shards=2,
        phases=(
            WorkloadPhase(name="a", clients=8, num_keys=16),
            WorkloadPhase(name="b", clients=8, num_keys=16),
        ),
    )
    r1 = run_scenario(one, ops=80, seed=1)
    r2 = run_scenario(two, ops=160, seed=1)
    # The second phase reuses the provisioned universe instead of
    # paying another ~25ms preload: the two-phase run's clock grows by
    # roughly the extra workload, not by an extra preload.
    preload_and_phase = r1.final_clock
    assert r2.final_clock < 2 * preload_and_phase
    assert r1.verdict and r2.verdict
    from repro.scenarios import CrashAt, Scenario, WorkloadPhase

    scenario = Scenario(
        name="half-dead",
        description="replica 4 dies for good mid-run",
        phases=(
            WorkloadPhase(name="p", faults=(CrashAt(pid=4, time=2e-3),)),
        ),
    )
    result = run_scenario(scenario, ops=100, seed=3)
    # No client was pinned to the doomed replica, so no work stalls
    # against it: everything completes (nothing aborted or unissued).
    assert result.completed == 100
    assert result.unissued == 0 and result.aborted == 0
    assert result.crashes == 1
    assert result.verdict


# -- the soak harness and CLI ------------------------------------------------


def test_cli_soak_list():
    out = cli.run(["soak", "--list"])
    for name in (
        "steady-state", "rolling-crash", "crash-during-write",
        "partition-heal", "recovery-storm", "zipfian-contention",
        "trace-capture", "soak-100k",
    ):
        assert name in out


def test_cli_soak_runs_one_scenario():
    out = cli.run(["soak", "steady-state", "--ops", "60", "--seed", "1"])
    assert "scenario steady-state (register, persistent, seed 1): PASS" in out
    assert "operations: 60 completed, 0 aborted, 0 unissued of 60" in out
    assert "wrote" not in out  # a correctness harness writes no file


def test_cli_soak_quick_scenario_budget():
    out = cli.run(["soak", "soak-100k", "--quick"])
    quick = quick_ops_for(get_scenario("soak-100k"))
    assert quick < 100_000
    assert "scenario soak-100k (" in out and "): PASS" in out
    assert f"unissued of {quick}\n" in out
