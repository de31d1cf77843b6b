"""The ``repro soak`` harness: run scenarios, print their verdicts.

Wraps :func:`repro.scenarios.runner.run_scenario` for the CLI: run one
named scenario (or a budget-trimmed sweep of the whole library) and
render the outcome -- per scenario: the verdict, operation counts and
the wall-clock cost split into run and verification.  It is a
correctness harness, run by CI as a smoke check on every push; engine
speed is measured by ``bench/run.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.scenarios.faults import victims_of
from repro.scenarios.library import get_scenario, list_scenarios
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import STORE_KV, Scenario

#: Operation budget per scenario under ``--quick`` (CI smoke sizing).
QUICK_OPS = 150


def quick_ops_for(scenario: Scenario) -> int:
    """The trimmed budget ``--quick`` runs ``scenario`` with."""
    return min(scenario.default_ops, max(QUICK_OPS, len(scenario.phases)))


def run_soak(
    name: str,
    protocol: Optional[str] = None,
    seed: Optional[int] = None,
    ops: Optional[int] = None,
    quick: bool = False,
) -> ScenarioResult:
    """Run one named scenario (``quick`` trims its budget)."""
    scenario = get_scenario(name)
    if quick and ops is None:
        ops = quick_ops_for(scenario)
    return run_scenario(scenario, protocol=protocol, seed=seed, ops=ops)


def run_soak_suite(
    protocol: Optional[str] = None,
    seed: Optional[int] = None,
    quick: bool = True,
    ops: Optional[int] = None,
    workers: Optional[int] = None,
) -> List[ScenarioResult]:
    """Run every library scenario.

    An explicit ``ops`` budget applies to every scenario and overrides
    ``quick``; otherwise ``quick`` trims each scenario to its CI smoke
    size and ``quick=False`` runs the full default budgets.

    ``workers`` > 1 shards the sweep across a process pool (results
    stay in library order and fingerprints stay byte-identical to this
    serial path -- the fleet driver asserts it); the default runs
    in-process exactly as before.
    """
    if workers is not None and workers > 1:
        from repro.scenarios.fleet import build_fleet_specs, run_fleet

        specs = build_fleet_specs(
            seeds=[seed],
            protocols=[protocol] if protocol is not None else None,
            ops=ops,
            quick=quick and ops is None,
        )
        return run_fleet(specs, workers=workers).results
    return [
        run_scenario(
            scenario,
            protocol=protocol,
            seed=seed,
            ops=(
                ops
                if ops is not None
                else quick_ops_for(scenario) if quick else None
            ),
        )
        for scenario in list_scenarios()
    ]


def format_soak_results(results: Sequence[ScenarioResult]) -> str:
    """Render scenario outcomes as the table the CLI prints."""
    header = (
        f"{'scenario':<20} {'store':<8} {'protocol':<11} {'ops':>7}  "
        f"{'completed':>9}  {'aborted':>7}  {'wall':>7}  {'verify':>7}  verdict"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        lines.append(
            f"{result.scenario:<20} {result.store:<8} {result.protocol:<11} "
            f"{result.ops:>7}  {result.completed:>9}  {result.aborted:>7}  "
            f"{result.wall_s:>6.2f}s  {result.check_wall_s:>6.2f}s  "
            f"{'PASS' if result.verdict else 'FAIL'}"
        )
    return "\n".join(lines)


def scenario_notes(scenario: Scenario) -> str:
    """Capability notes for the ``--list`` table.

    Fleet sweeps cross scenarios with protocols; these notes say up
    front what each combination will actually exercise -- crash faults
    are dropped against protocols without recovery support (the
    crash-stop baseline), the KV store runs sharded, trace capture is
    heavyweight -- so a sweep can be planned from the listing alone.
    """
    notes = []
    crashy = any(
        victims_of(phase.faults, scenario.num_processes)
        for phase in scenario.phases
    )
    if crashy:
        notes.append("crash faults dropped on crash-stop")
    if scenario.store == STORE_KV:
        notes.append(f"kv store ({scenario.num_shards} shards)")
    if scenario.capture_trace:
        notes.append("captures full trace")
    return "; ".join(notes) if notes else "runs on every protocol"


def format_scenario_list() -> str:
    """The ``repro soak --list`` table."""
    header = (
        f"{'scenario':<20} {'store':<8} {'phases':>6} {'default ops':>11} "
        f"{'quick ops':>9}  {'notes':<38}  description"
    )
    lines = [header, "-" * 132]
    for scenario in list_scenarios():
        description = " ".join(scenario.description.split())
        lines.append(
            f"{scenario.name:<20} {scenario.store:<8} "
            f"{len(scenario.phases):>6} {scenario.default_ops:>11} "
            f"{quick_ops_for(scenario):>9}  "
            f"{scenario_notes(scenario):<38}  {description}"
        )
    lines.append("")
    lines.append(
        "run one with: python -m repro soak <scenario> "
        "[--seed N] [--ops N] [--protocol P]"
    )
    lines.append(
        "sweep many with: python -m repro fleet --scenarios A,B "
        "--seeds 0..9 --workers N"
    )
    return "\n".join(lines)
