"""Declarative fault/workload scenarios: the simulator as an adversary.

This package turns ad-hoc failure testing into named, seed-reproducible
programs.  A :class:`~repro.scenarios.spec.Scenario` composes three
ingredients declaratively:

* **fault schedules** (:mod:`repro.scenarios.faults`) -- timed crashes
  and recoveries, rolling restart waves, partitions that heal,
  message-loss bursts, slow-link windows, trace-triggered crashes
  with the instant precision of the paper's lower-bound adversaries,
  and storage faults (torn checkpoints, corrupted records, lying
  fsync, slow disks -- see ``docs/recovery.md``);
* **workload phases** (:class:`~repro.scenarios.spec.WorkloadPhase`) --
  closed-loop read/write mixes on the single register or zipfian key
  traffic on the sharded KV store, with per-phase operation budgets
  split from one scalable total;
* **verification policy** -- per-phase incremental white-box checks
  (cheap, thanks to the append-only :class:`~repro.history.history
  .History` contract) or one final check.

Key entry points: :func:`~repro.scenarios.runner.run_scenario` executes
any spec and returns a :class:`~repro.scenarios.runner.ScenarioResult`
whose ``fingerprint()`` is identical across same-seed runs;
:data:`~repro.scenarios.library.SCENARIOS` is the named library
(steady-state through the 100k-operation soak) behind the
``repro soak`` CLI; :mod:`repro.scenarios.soak` renders its verdict
table; and :func:`~repro.scenarios.fleet.run_fleet` (``repro fleet``)
shards a seeds x scenarios x protocols sweep across a spawn-safe pool
(:mod:`repro.scenarios.pool`), merging the runs into one
:class:`~repro.scenarios.fleet.FleetReport` whose per-run fingerprints
are asserted byte-identical to the serial path.

Quickstart::

    from repro.scenarios import get_scenario, run_scenario

    result = run_scenario(get_scenario("rolling-crash"), seed=7)
    assert result.verdict          # every incremental check passed
    print(result.summary())
"""

from repro.scenarios.faults import (
    CrashAt,
    CrashOnTrace,
    CorruptRecord,
    Downtime,
    FaultAction,
    LossBurst,
    LostStore,
    PartitionWindow,
    RollingRestarts,
    SlowDisk,
    SlowLinks,
    TornStore,
)
from repro.scenarios.fleet import (
    FleetParityError,
    FleetReport,
    FleetTimeoutError,
    build_fleet_specs,
    run_fleet,
)
from repro.scenarios.library import SCENARIOS, get_scenario, list_scenarios
from repro.scenarios.pool import RunSpec, execute_spec, resolve_spec
from repro.scenarios.runner import (
    CheckOutcome,
    PhaseOutcome,
    ScenarioResult,
    run_scenario,
)
from repro.scenarios.spec import Scenario, WorkloadPhase

__all__ = [
    "SCENARIOS",
    "CheckOutcome",
    "CorruptRecord",
    "CrashAt",
    "CrashOnTrace",
    "Downtime",
    "FaultAction",
    "FleetParityError",
    "FleetReport",
    "FleetTimeoutError",
    "LossBurst",
    "LostStore",
    "PartitionWindow",
    "PhaseOutcome",
    "RollingRestarts",
    "RunSpec",
    "Scenario",
    "ScenarioResult",
    "SlowDisk",
    "SlowLinks",
    "TornStore",
    "WorkloadPhase",
    "build_fleet_specs",
    "execute_spec",
    "get_scenario",
    "list_scenarios",
    "resolve_spec",
    "run_fleet",
    "run_scenario",
]
