"""The multi-core scenario fleet: seeds x scenarios x protocols.

One seeded scenario run is a sealed universe, so a soak sweep is
embarrassingly parallel; this module turns that observation into the
``repro fleet`` driver.  :func:`build_fleet_specs` expands a sweep
(scenario names x seed list x optional protocol list) into concrete
:class:`~repro.scenarios.pool.RunSpec` values, :func:`run_fleet`
shards them across a ``spawn``-safe process pool, streams per-run
completions as they land, and folds everything into one
:class:`FleetReport`:

* per-run :class:`~repro.scenarios.runner.ScenarioResult` rows in
  stable spec order (completion order varies; the report must not);
* one merged :class:`~repro.obs.metrics.MetricsSnapshot` via the
  order-insensitive :func:`~repro.obs.metrics.merge_snapshots` fold,
  so fleet-wide latency percentiles come from real merged bucket
  counts, not an average of averages;
* aggregate wall-clock throughput (completed operations per second of
  *fleet* wall time -- the number a multi-core box is buying);
* the fleet verdict: every run's checks passed and no work was left
  unissued.

**Determinism is asserted, not assumed.**  Every ``run_fleet``
invocation re-executes at least one spec serially in the parent (a
budget-trimmed canary by default, every spec under ``parity="full"``)
and requires the pool worker's fingerprint to be byte-identical to the
serial one; any drift raises :class:`FleetParityError` instead of
silently reporting numbers from a universe nobody can reproduce.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.obs.metrics import MetricsSnapshot, merge_snapshots
from repro.scenarios.library import get_scenario, list_scenarios
from repro.scenarios.pool import (
    RunSpec,
    execute_spec,
    fleet_pool,
    resolve_spec,
)
from repro.scenarios.runner import ScenarioResult

__all__ = [
    "FleetParityError",
    "FleetReport",
    "FleetTimeoutError",
    "PARITY_CANARY",
    "PARITY_FULL",
    "PARITY_MODES",
    "PARITY_OFF",
    "build_fleet_specs",
    "fingerprint_bytes",
    "parse_int_list",
    "run_fleet",
]

#: Parity modes: how much of the fleet is re-executed serially to
#: prove pool results byte-identical to the serial path.
PARITY_CANARY = "canary"  # one budget-trimmed run (default; cheap)
PARITY_FULL = "full"  # every spec (tests; paranoid sweeps)
PARITY_OFF = "off"  # skip (callers that compare fingerprints themselves)
PARITY_MODES = (PARITY_CANARY, PARITY_FULL, PARITY_OFF)

#: Progress callback: (finished_count, total, spec, result).
ProgressFn = Callable[[int, int, RunSpec, ScenarioResult], None]


class FleetParityError(AssertionError):
    """A pool worker's fingerprint diverged from the serial path."""


class FleetTimeoutError(RuntimeError):
    """The fleet missed its deadline (e.g. a deadlocked pool)."""


def fingerprint_bytes(result: ScenarioResult) -> bytes:
    """The canonical byte form of a fingerprint (what parity compares)."""
    return json.dumps(result.fingerprint(), sort_keys=True).encode()


def parse_int_list(text: str, what: str = "value") -> List[int]:
    """Parse ``"0..9"`` / ``"0,3,7"`` / ``"0..2,8"`` into a list.

    Ranges are inclusive on both ends.  Duplicates are kept (sweeping
    a seed twice is a legitimate, if unusual, request) so the spec
    count always matches what the user spelled out.
    """
    values: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ConfigurationError(
                    f"bad {what} range {part!r} (expected e.g. 0..9)"
                ) from None
            if hi < lo:
                raise ConfigurationError(
                    f"bad {what} range {part!r}: {hi} < {lo}"
                )
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise ConfigurationError(
                    f"bad {what} {part!r} (expected an integer)"
                ) from None
    if not values:
        raise ConfigurationError(f"no {what}s in {text!r}")
    return values


def build_fleet_specs(
    scenarios: Optional[Sequence[str]] = None,
    seeds: Sequence[Optional[int]] = (None,),
    protocols: Optional[Sequence[str]] = None,
    ops: Optional[int] = None,
    quick: bool = False,
) -> List[RunSpec]:
    """Expand a sweep into concrete, resolved run specs.

    ``scenarios=None`` sweeps the whole library.  ``protocols=None``
    keeps each scenario's default protocol; an explicit list crosses
    every scenario with every protocol.  A ``None`` seed means the
    scenario's default seed.  Resolution happens here, in the parent,
    so bad names fail before any worker spawns.
    """
    names = (
        [scenario.name for scenario in list_scenarios()]
        if scenarios is None
        else list(scenarios)
    )
    protocol_choices: Sequence[Optional[str]] = (
        [None] if protocols is None else list(protocols)
    )
    specs = [
        resolve_spec(
            RunSpec(
                scenario=name,
                protocol=protocol,
                seed=seed,
                ops=ops,
                quick=quick,
            )
        )
        for name in names
        for protocol in protocol_choices
        for seed in seeds
    ]
    if not specs:
        raise ConfigurationError("the fleet sweep expanded to zero runs")
    return specs


@dataclass
class FleetReport:
    """Everything one fleet invocation produced, merged."""

    workers: int
    parity: str
    specs: List[RunSpec] = field(default_factory=list)
    results: List[ScenarioResult] = field(default_factory=list)
    #: Fleet wall seconds (dispatch to last completion, parity
    #: included) and the sum of per-run wall seconds -- what the same
    #: work costs the serial path.  Their ratio is the speedup the
    #: pool actually bought.
    wall_s: float = 0.0
    serial_wall_s: float = 0.0
    parity_checked: int = 0
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)
    #: The order-insensitive merge of every run's final snapshot.
    merged_metrics: Optional[MetricsSnapshot] = None

    @property
    def ops(self) -> int:
        return sum(spec.ops or 0 for spec in self.specs)

    @property
    def completed(self) -> int:
        return sum(result.completed for result in self.results)

    @property
    def aborted(self) -> int:
        return sum(result.aborted for result in self.results)

    @property
    def unissued(self) -> int:
        return sum(result.unissued for result in self.results)

    @property
    def verdict(self) -> bool:
        return bool(self.results) and all(r.verdict for r in self.results)

    @property
    def ops_per_s(self) -> float:
        """Aggregate completed operations per second of fleet wall time."""
        return self.completed / self.wall_s if self.wall_s else 0.0

    @property
    def speedup(self) -> float:
        return self.serial_wall_s / self.wall_s if self.wall_s else 0.0

    def worst_p99(self) -> Dict[str, float]:
        """Fleet-wide p99 per latency histogram, from merged buckets."""
        if self.merged_metrics is None:
            return {}
        out: Dict[str, float] = {}
        for name, hist in sorted(self.merged_metrics.histograms.items()):
            p99 = hist.quantile(99.0)
            if p99 is not None:
                out[name] = p99
        return out

    def summary(self) -> str:
        """The fleet footer the CLI prints under the per-run table."""
        lines = [
            f"fleet: {len(self.results)} runs on {self.workers} workers "
            f"({self.cpu_count} cores): "
            f"{'PASS' if self.verdict else 'FAIL'}",
            f"  operations: {self.completed:,} completed, "
            f"{self.aborted:,} aborted, {self.unissued:,} unissued "
            f"of {self.ops:,}",
            f"  wall {self.wall_s:.2f}s fleet vs {self.serial_wall_s:.2f}s "
            f"serial-sum -> speedup {self.speedup:.2f}x, "
            f"aggregate {self.ops_per_s:,.0f} ops/s",
            f"  parity: {self.parity} "
            f"({self.parity_checked} serial re-run"
            f"{'s' if self.parity_checked != 1 else ''} byte-identical)",
        ]
        worst = self.worst_p99()
        if worst:
            rendered = ", ".join(
                f"{name}={value * 1e6:,.0f}us"
                for name, value in worst.items()
                if name.endswith("latency")
            ) or ", ".join(
                f"{name}={value * 1e6:,.0f}us" for name, value in worst.items()
            )
            lines.append(f"  merged p99: {rendered}")
        return "\n".join(lines)


def _canary_spec(specs: Sequence[RunSpec]) -> RunSpec:
    """A budget-trimmed twin of the sweep's smallest run.

    Trimming keeps the default parity assertion cheap even when the
    fleet is 10 x 100k operations: the canary proves the worker
    environment (import path, RNG isolation, renumbering) reproduces
    the serial path without re-paying a full soak.
    """
    smallest = min(specs, key=lambda spec: spec.ops or 0)
    quick_ops = get_scenario(smallest.scenario).quick_ops
    return replace(smallest, ops=min(smallest.ops or 0, quick_ops))


def _assert_parity(spec: RunSpec, pooled: ScenarioResult) -> None:
    """Serially re-run ``spec`` in this process; require equal bytes."""
    serial = fingerprint_bytes(execute_spec(spec))
    parallel = fingerprint_bytes(pooled)
    if serial != parallel:
        raise FleetParityError(
            f"pool run of {spec.label()!r} diverged from the serial path: "
            f"serial fingerprint {serial[:120]!r}... != "
            f"parallel {parallel[:120]!r}..."
        )


def run_fleet(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    parity: str = PARITY_CANARY,
    timeout: Optional[float] = None,
    on_result: Optional[ProgressFn] = None,
) -> FleetReport:
    """Execute ``specs`` across a process pool; merge into one report.

    ``workers`` defaults to the machine's core count.  ``timeout`` is
    a hard wall-clock deadline for the whole fleet: a deadlocked pool
    raises :class:`FleetTimeoutError` (after cancelling what it can)
    instead of hanging the caller -- CI depends on that.  ``on_result``
    streams ``(finished, total, spec, result)`` as completions land,
    in completion order; the report's rows stay in spec order.
    """
    if parity not in PARITY_MODES:
        raise ConfigurationError(
            f"unknown parity mode {parity!r} (expected one of {PARITY_MODES})"
        )
    specs = [resolve_spec(spec) for spec in specs]
    if not specs:
        raise ConfigurationError("run_fleet needs at least one spec")
    workers = workers if workers is not None else (os.cpu_count() or 1)
    report = FleetReport(workers=workers, parity=parity)
    report.specs = list(specs)
    canary = _canary_spec(specs) if parity == PARITY_CANARY else None

    started = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    results: List[Optional[ScenarioResult]] = [None] * len(specs)
    with fleet_pool(workers) as pool:
        futures = {
            pool.submit(execute_spec, spec): index
            for index, spec in enumerate(specs)
        }
        canary_future = (
            pool.submit(execute_spec, canary) if canary is not None else None
        )
        if canary_future is not None:
            futures[canary_future] = -1
        pending = set(futures)
        finished = 0
        try:
            while pending:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise FleetTimeoutError(
                        f"fleet deadline ({timeout:.0f}s) exceeded with "
                        f"{len(pending)} of {len(futures)} runs outstanding"
                    )
                done, pending = wait(
                    pending, timeout=remaining, return_when=FIRST_COMPLETED
                )
                if not done:
                    raise FleetTimeoutError(
                        f"fleet deadline ({timeout:.0f}s) exceeded with "
                        f"{len(pending)} of {len(futures)} runs outstanding"
                    )
                for future in done:
                    index = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        # The classic spawn trap: a caller script without
                        # a __main__ guard is re-executed inside every
                        # worker, which re-enters run_fleet and kills the
                        # pool.  Name the fix instead of surfacing the
                        # raw bootstrap traceback.
                        raise ConfigurationError(
                            "fleet worker pool broke during startup; if "
                            "run_fleet was called from a script's top "
                            "level, guard the call with "
                            "`if __name__ == '__main__':` (spawn workers "
                            "re-import the main module)"
                        ) from exc
                    if index < 0:
                        _assert_parity(canary, result)
                        report.parity_checked += 1
                        continue
                    results[index] = result
                    finished += 1
                    if on_result is not None:
                        on_result(finished, len(specs), specs[index], result)
        except BaseException:
            for future in pending:
                future.cancel()
            raise
    if parity == PARITY_FULL:
        for spec, result in zip(specs, results):
            _assert_parity(spec, result)
            report.parity_checked += 1
    report.results = [result for result in results if result is not None]
    report.wall_s = time.perf_counter() - started
    report.serial_wall_s = sum(r.wall_s for r in report.results)
    snapshots = [
        r.metrics_snapshot
        for r in report.results
        if r.metrics_snapshot is not None
    ]
    if snapshots:
        report.merged_metrics = merge_snapshots(snapshots)
    return report

