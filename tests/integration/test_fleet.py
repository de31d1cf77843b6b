"""Integration: the process-pool fleet reproduces the serial path.

The fleet's whole value rests on one claim: a scenario run inside a
spawned pool worker is byte-identical (by
``ScenarioResult.fingerprint()``) to the same spec run serially in the
parent.  These tests hold every scenario in the library to that claim
-- register and KV store alike, plus protocol-crossed variants -- and
cover the driver's operational surface: streamed completions, merged
metrics, the built-in parity assertion, the deadline guard, and the
``repro fleet`` / ``repro soak --workers`` CLI and the verdict and
parity lines it prints.

One pool sweep is shared by the whole module (spawning interpreters is
the expensive part); the per-scenario parity tests then compare
against fresh serial runs.
"""

import pytest

from repro import cli
from repro.scenarios.fleet import (
    FleetTimeoutError,
    build_fleet_specs,
    fingerprint_bytes,
    run_fleet,
)
from repro.scenarios.library import list_scenarios
from repro.scenarios.pool import RunSpec, execute_spec, resolve_spec

#: Every library scenario, quick budgets, fixed seed -- the sweep the
#: shared pool executes once.  Protocol-crossed extras prove parity is
#: not an artifact of the default protocol.
PARITY_SEED = 11
EXTRA_SPECS = [
    RunSpec(scenario="steady-state", protocol="transient",
            seed=PARITY_SEED, quick=True),
    RunSpec(scenario="rolling-crash", protocol="crash-stop",
            seed=PARITY_SEED, quick=True),
]


def _parity_specs():
    specs = build_fleet_specs(seeds=[PARITY_SEED], quick=True)
    return specs + [resolve_spec(spec) for spec in EXTRA_SPECS]


@pytest.fixture(scope="module")
def pooled(request):
    """One 2-worker pool sweep over every parity spec, keyed by label."""
    specs = _parity_specs()
    completions = []
    report = run_fleet(
        specs,
        workers=2,
        parity="off",  # the point of this module is the explicit compare
        timeout=900,
        on_result=lambda done, total, spec, result: completions.append(
            (done, total, spec.label())
        ),
    )
    assert len(report.results) == len(specs)
    # Completions streamed as they landed, counting monotonically up.
    assert [done for done, _, _ in completions] == list(
        range(1, len(specs) + 1)
    )
    return report, {
        spec.label(): (spec, result)
        for spec, result in zip(report.specs, report.results)
    }


@pytest.mark.parametrize(
    "label",
    [spec.label() for spec in _parity_specs()],
)
def test_pool_fingerprint_matches_serial(pooled, label):
    _, by_label = pooled
    spec, pool_result = by_label[label]
    serial_result = execute_spec(spec)
    assert fingerprint_bytes(pool_result) == fingerprint_bytes(serial_result)


def test_fleet_report_merges_the_sweep(pooled):
    report, _ = pooled
    assert report.verdict is True
    assert report.completed == sum(r.completed for r in report.results)
    assert report.merged_metrics is not None
    # The merged snapshot really is the sum of the per-run snapshots.
    merged_ops = report.merged_metrics.scalars.get("ops.completed")
    if merged_ops is not None:
        assert merged_ops == sum(
            r.metrics_snapshot.scalars.get("ops.completed", 0)
            for r in report.results
        )
    # Merged histograms carry the whole fleet's samples.
    for name, hist in report.merged_metrics.histograms.items():
        assert hist.total == sum(
            r.metrics_snapshot.histograms[name].total
            for r in report.results
            if name in r.metrics_snapshot.histograms
        )
    assert report.worst_p99()  # non-empty: latency histograms exist


def test_results_stay_in_spec_order(pooled):
    report, _ = pooled
    assert [r.scenario for r in report.results] == [
        spec.scenario for spec in report.specs
    ]


def test_canary_parity_runs_inside_the_driver():
    specs = build_fleet_specs(
        scenarios=["steady-state"], seeds=[3], ops=60
    )
    report = run_fleet(specs, workers=1, parity="canary", timeout=300)
    assert report.parity_checked == 1
    assert report.verdict is True


def test_deadlocked_fleet_fails_fast():
    # A deadline far below any possible completion: the driver must
    # raise instead of hanging (CI's pool-deadlock guard).
    specs = build_fleet_specs(
        scenarios=["soak-100k"], seeds=[0], ops=20_000
    )
    with pytest.raises(FleetTimeoutError):
        run_fleet(specs, workers=1, parity="off", timeout=0.05)


def test_unguarded_main_module_gets_actionable_error(tmp_path):
    # A caller script without the __main__ guard trips spawn's
    # re-import of the main module; the driver must translate the
    # resulting BrokenProcessPool into advice, not a bootstrap trace.
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = tmp_path / "unguarded.py"
    script.write_text(
        "from repro.scenarios import build_fleet_specs, run_fleet\n"
        "specs = build_fleet_specs(scenarios=['steady-state'],"
        " seeds=[0], ops=60)\n"
        "run_fleet(specs, workers=2, timeout=120)\n"
    )
    src_root = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src_root)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert proc.returncode != 0
    assert "if __name__ == '__main__':" in proc.stderr


def _table_scenarios(out):
    """The scenario column of the soak/fleet table, top to bottom."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---"))
    rows = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        rows.append(line.split()[0])
    return rows


def test_cli_fleet_prints_verdict_and_parity():
    out = cli.run(
        [
            "fleet",
            "--scenarios", "steady-state,zipfian-contention",
            "--seeds", "0..1",
            "--quick",
            "--workers", "2",
            "--timeout", "600",
        ]
    )
    assert "Scenario fleet (4 runs;" in out
    assert "fleet: 4 runs on 2 workers (" in out
    verdict = next(line for line in out.splitlines() if line.startswith("fleet:"))
    assert verdict.endswith(": PASS")
    assert "parity: canary (1 serial re-run byte-identical)" in out
    assert "merged p99:" in out
    # Rows stay in spec order: scenario-major, then seed.
    assert _table_scenarios(out) == [
        "steady-state", "steady-state",
        "zipfian-contention", "zipfian-contention",
    ]
    assert "FAIL" not in out


def test_cli_soak_workers_shards_the_suite():
    out = cli.run(["soak", "--quick", "--workers", "2"])
    assert "2 workers" in out
    # Rows stay in library order, exactly like the serial sweep.
    assert _table_scenarios(out) == [
        scenario.name for scenario in list_scenarios()
    ]
    assert "FAIL" not in out
