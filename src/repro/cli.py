"""Command-line interface: regenerate the paper's figures and tables.

Usage::

    python -m repro figure6-top
    python -m repro figure6-bottom --repeats 20
    python -m repro figure1
    python -m repro lower-bounds
    python -m repro log-complexity
    python -m repro ablations
    python -m repro weaker-memory
    python -m repro soak --list
    python -m repro soak soak-100k --seed 7
    python -m repro soak --quick --workers 2
    python -m repro fleet --scenarios soak-100k --seeds 0..9 --workers 8
    python -m repro fleet --quick --seeds 0..1 --workers 2
    python -m repro trace crash-during-write --format chrome
    python -m repro stats soak-100k --quick
    python -m repro lint [--format json] [--rule DET001] [--check-stale]
    python -m repro all

The figure/table subcommands print the same rows/series the paper
reports (see docs/protocols.md for the paper-vs-measured mapping);
``soak`` and ``fleet`` run the scenario suite and print its verdicts
(see docs/scenarios.md); ``trace``/``stats`` surface the observability
layer (see docs/observability.md); ``lint`` statically checks the
determinism and contract invariants (see docs/determinism.md) and is
the one subcommand that exits nonzero, when findings remain.  Engine
speed is measured by ``python bench/run.py`` (see docs/benchmarks.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional


class CommandFailed(Exception):
    """A subcommand produced output but the process must exit nonzero.

    ``repro lint`` raises this when findings remain: the report is in
    ``output`` (so :func:`run` callers and tests still see it), and
    :func:`main` turns it into exit status 1 for CI.
    """

    def __init__(self, output: str) -> None:
        super().__init__(output)
        self.output = output


def _seed_kw(args: argparse.Namespace) -> Dict[str, int]:
    """``{"seed": N}`` when ``--seed`` was given, else ``{}``.

    Every subcommand takes the same ``--seed`` flag (from the shared
    parent parser) with the same default: ``None``, meaning "use the
    command's documented per-run seeds".  Handlers forward an explicit
    seed to their harness with this helper, so the plumbing is uniform
    instead of ad hoc per subparser.
    """
    seed = getattr(args, "seed", None)
    return {} if seed is None else {"seed": seed}


def seed_report(args: argparse.Namespace) -> str:
    """The uniform seed line every command's output starts with."""
    seed = getattr(args, "seed", None)
    if seed is None:
        return "seed: command defaults (override with --seed)"
    return f"seed: {seed}"


def _cmd_figure6_top(args: argparse.Namespace) -> str:
    from repro.experiments.figure6 import figure6_top, format_figure6_top

    series = figure6_top(repeats=args.repeats, **_seed_kw(args))
    return (
        "Figure 6 (top): average write time vs. number of workstations\n"
        "(paper at N=5: crash-stop ~500us, transient ~700us, persistent ~900us)\n\n"
        + format_figure6_top(series)
    )


def _cmd_figure6_bottom(args: argparse.Namespace) -> str:
    from repro.experiments.figure6 import (
        figure6_bottom,
        format_figure6_bottom,
        linearity_of,
    )

    series = figure6_bottom(repeats=args.repeats, **_seed_kw(args))
    lines = [
        "Figure 6 (bottom): average write time vs. payload size, N = 5",
        "(the paper reports linear growth up to the 64 KB UDP limit)",
        "",
        format_figure6_bottom(series),
        "",
    ]
    for algorithm, points in series.items():
        slope, intercept, r2 = linearity_of(points)
        lines.append(
            f"{algorithm}: latency_us = {slope:.6f} * bytes + {intercept:.1f}"
            f"  (R^2 = {r2:.6f})"
        )
    return "\n".join(lines)


def _cmd_figure1(args: argparse.Namespace) -> str:
    from repro.experiments.figure1 import (
        format_figure1,
        run_persistent,
        run_transient,
    )

    return format_figure1(
        run_persistent(**_seed_kw(args)), run_transient(**_seed_kw(args))
    )


def _cmd_lower_bounds(args: argparse.Namespace) -> str:
    from repro.experiments.lower_bounds import (
        format_lower_bounds,
        run_rho1,
        run_rho2,
        run_rho3,
        run_rho4,
    )

    kw = _seed_kw(args)
    runs = [run_rho1(a, **kw) for a in ("persistent", "transient", "broken-no-prelog")]
    runs += [run_rho4(a, **kw) for a in ("persistent", "transient", "broken-no-writeback")]
    runs.append(run_rho2("persistent", **kw))
    runs.append(run_rho3("persistent", **kw))
    return (
        "Lower-bound runs (Theorems 1 and 2; Figures 2 and 3)\n\n"
        + format_lower_bounds(runs)
    )


def _cmd_log_complexity(args: argparse.Namespace) -> str:
    from repro.experiments.log_complexity import (
        format_log_complexity,
        measure_log_complexity,
    )

    rows = measure_log_complexity(operations=args.operations, **_seed_kw(args))
    return (
        "Measured causal logs per operation vs. the paper's bounds\n\n"
        + format_log_complexity(rows)
    )


def _cmd_ablations(args: argparse.Namespace) -> str:
    from repro.experiments.ablations import format_ablations, run_all_ablations

    return (
        "Ablations: remove one design ingredient, observe its anomaly\n\n"
        + format_ablations(run_all_ablations(**_seed_kw(args)))
    )


def _cmd_show_run(args: argparse.Namespace) -> str:
    from repro.experiments.figure1 import run_persistent, run_transient
    from repro.viz import render_history

    persistent = run_persistent(**_seed_kw(args))
    transient = run_transient(**_seed_kw(args))
    return (
        "Space-time diagrams of the Figure 1 runs (cf. the paper's figure)\n\n"
        "persistent algorithm -- recovery finishes the interrupted write:\n\n"
        + render_history(persistent.history, width=92)
        + "\n\ntransient algorithm -- the interrupted write overlaps W(v3):\n\n"
        + render_history(transient.history, width=92)
    )


def _cmd_complexity(args: argparse.Namespace) -> str:
    from repro.experiments.complexity import format_complexity, measure_complexity

    results = measure_complexity(operations=5, **_seed_kw(args))
    return (
        "Message and time complexity per operation\n"
        "(the paper: 4 communication steps for any operation; minimizing\n"
        " logs adds no messages or steps over the crash-stop baseline)\n\n"
        + format_complexity(results)
    )


def _cmd_weaker_memory(args: argparse.Namespace) -> str:
    from repro.experiments.weaker_memory import (
        COMPARED,
        format_costs,
        format_inversions,
        measure_costs,
        new_old_inversion_run,
    )

    rows = measure_costs(repeats=args.repeats, **_seed_kw(args))
    inversions = [new_old_inversion_run(a, **_seed_kw(args)) for a in COMPARED]
    return (
        "Section VI: weaker-than-atomic emulations\n\n"
        + format_costs(rows)
        + "\n\nNew/old inversion schedule:\n\n"
        + format_inversions(inversions)
    )


def _run_named_soak(args: argparse.Namespace, scenario: str):
    from repro.scenarios.soak import run_soak

    return run_soak(
        scenario,
        protocol=getattr(args, "protocol", None),
        seed=getattr(args, "seed", None),
        ops=getattr(args, "ops", None),
        quick=getattr(args, "quick", False),
    )


def _cmd_soak(args: argparse.Namespace) -> str:
    from repro.scenarios.soak import (
        format_scenario_list,
        format_soak_results,
        run_soak,
        run_soak_suite,
    )

    if getattr(args, "list", False):
        return format_scenario_list()
    scenario = getattr(args, "scenario", None)
    if scenario is None:
        # Bare ``repro soak`` (and ``repro all``) smoke the whole
        # library at quick budgets; ``--ops`` sets one explicit budget
        # for every scenario instead.  ``--workers N`` shards the
        # sweep across a process pool (same results, same order).
        ops = getattr(args, "ops", None)
        workers = getattr(args, "workers", None)
        results = run_soak_suite(
            protocol=getattr(args, "protocol", None),
            seed=getattr(args, "seed", None),
            ops=ops,
            workers=workers,
        )
        budgets = (
            f"{ops}-op budgets" if ops is not None else "quick smoke budgets"
        )
        sharding = (
            f"; {workers} workers" if workers is not None and workers > 1
            else ""
        )
        return (
            f"Scenario suite ({budgets}{sharding}; see docs/scenarios.md)\n\n"
            + format_soak_results(results)
        )
    return _run_named_soak(args, scenario).summary()


def _cmd_fleet(args: argparse.Namespace) -> str:
    import sys as _sys

    from repro.scenarios.fleet import build_fleet_specs, parse_int_list, run_fleet
    from repro.scenarios.soak import format_soak_results

    scenarios = (
        [name for name in args.scenarios.split(",") if name]
        if getattr(args, "scenarios", None)
        else None
    )
    if getattr(args, "seeds", None):
        seeds = parse_int_list(args.seeds, "seed")
    elif getattr(args, "seed", None) is not None:
        seeds = [args.seed]
    else:
        seeds = [None]
    protocols = (
        [name for name in args.protocols.split(",") if name]
        if getattr(args, "protocols", None)
        else None
    )
    specs = build_fleet_specs(
        scenarios=scenarios,
        seeds=seeds,
        protocols=protocols,
        ops=getattr(args, "ops", None),
        quick=getattr(args, "quick", False),
    )

    def stream(finished: int, total: int, spec, result) -> None:
        # Stream completions as they land (stderr: the composed report
        # still goes to stdout at the end, in stable spec order).
        print(
            f"[{finished}/{total}] {spec.label()}: "
            f"{'PASS' if result.verdict else 'FAIL'} "
            f"({result.completed} ops, {result.wall_s:.2f}s)",
            file=_sys.stderr,
            flush=True,
        )

    report = run_fleet(
        specs,
        workers=getattr(args, "workers", None),
        parity=getattr(args, "parity", "canary"),
        timeout=getattr(args, "timeout", None),
        on_result=stream,
    )
    return (
        f"Scenario fleet ({len(specs)} runs; see docs/scenarios.md)\n\n"
        + format_soak_results(report.results)
        + "\n\n"
        + report.summary()
    )


def _cmd_trace(args: argparse.Namespace) -> str:
    import json
    from pathlib import Path

    from repro.scenarios.soak import format_scenario_list

    scenario = getattr(args, "scenario", None)
    if scenario is None:
        return (
            "repro trace <scenario>: run a scenario, export its "
            "flight-recorder ring (see docs/observability.md)\n\n"
            + format_scenario_list()
        )
    result = _run_named_soak(args, scenario)
    ring = result.flight_recorder
    if ring is None:
        return result.summary() + (
            "\n\nthe run kept no flight recorder (ring disabled)"
        )
    fmt = getattr(args, "format", "chrome")
    if fmt == "text":
        payload = "\n".join(
            f"{event.time:12.6f}  {event.kind:<14} p{event.pid}"
            + (f"  {event.op}" if event.op is not None else "")
            for event in ring.events()
        )
        output = getattr(args, "output", None)
        if output is None:
            return result.summary() + "\n\n" + payload
    elif fmt == "jsonl":
        payload = ring.to_jsonl()
        output = getattr(args, "output", None) or f"TRACE_{scenario}.jsonl"
    else:
        payload = json.dumps(ring.to_chrome_trace()) + "\n"
        output = getattr(args, "output", None) or f"TRACE_{scenario}.json"
    Path(output).write_text(
        payload if payload.endswith("\n") or not payload else payload + "\n"
    )
    counts = ", ".join(
        f"{kind}={count}" for kind, count in sorted(ring.counts().items())
    )
    return (
        result.summary()
        + f"\n\nring: {len(ring):,} of {ring.total:,} events retained"
        + f" ({counts})"
        + f"\nwrote {output} ({fmt})"
    )


def _format_metrics_dict(metrics: Dict[str, object]) -> str:
    """Align a :meth:`MetricsSnapshot.as_dict` payload for the CLI."""
    scalars = dict(metrics.get("scalars", {}))
    hists = dict(metrics.get("histograms", {}))
    if not scalars and not hists:
        return "  (no metrics)"
    width = max(len(name) for name in list(scalars) + list(hists))
    lines = []
    for name, value in sorted(
        scalars.items(), key=lambda item: (-item[1], item[0])
    ):
        text = f"{value:,.0f}" if float(value).is_integer() else f"{value:,.6g}"
        lines.append(f"  {name:<{width}}  {text:>14}")
    for name, hist in sorted(hists.items()):
        lines.append(
            f"  {name:<{width}}  count={hist['count']:,} "
            f"mean={hist['mean'] * 1e6:,.0f}us p50={hist['p50'] * 1e6:,.0f}us "
            f"p99={hist['p99'] * 1e6:,.0f}us max={hist['max'] * 1e6:,.0f}us"
        )
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> str:
    from repro.scenarios.soak import format_scenario_list

    scenario = getattr(args, "scenario", None)
    if scenario is None:
        return (
            "repro stats <scenario>: run a scenario, report its metrics "
            "registry (see docs/observability.md)\n\n"
            + format_scenario_list()
        )
    result = _run_named_soak(args, scenario)
    sections = [result.summary(), "", "final metrics:",
                _format_metrics_dict(result.metrics or {})]
    for phase in result.phases:
        if phase.metrics:
            sections += ["", f"phase {phase.name} (diff):",
                         _format_metrics_dict(phase.metrics)]
    return "\n".join(sections)


def _cmd_lint(args: argparse.Namespace) -> str:
    from pathlib import Path

    from repro.lint import LintError, lint_paths, lint_tree

    rules = getattr(args, "rule", None) or None
    check_stale = getattr(args, "check_stale", False)
    paths = getattr(args, "paths", None)
    try:
        if paths:
            report = lint_paths(
                [Path(p) for p in paths],
                rule_ids=rules,
                check_stale=check_stale,
            )
        else:
            report = lint_tree(rule_ids=rules, check_stale=check_stale)
    except LintError as exc:
        raise CommandFailed(f"repro lint: error: {exc}")
    text = (
        report.format_json()
        if getattr(args, "format", "text") == "json"
        else report.format_text()
    )
    if not report.clean:
        raise CommandFailed(text)
    return text


COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "figure6-top": _cmd_figure6_top,
    "figure6-bottom": _cmd_figure6_bottom,
    "figure1": _cmd_figure1,
    "lower-bounds": _cmd_lower_bounds,
    "log-complexity": _cmd_log_complexity,
    "message-complexity": _cmd_complexity,
    "ablations": _cmd_ablations,
    "weaker-memory": _cmd_weaker_memory,
    "show-run": _cmd_show_run,
    "soak": _cmd_soak,
    "fleet": _cmd_fleet,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
}

#: Subcommands ``repro all`` skips: the flight-recorder diagnostics
#: want an explicit scenario, the fleet spawns a process pool sized to
#: the machine, and the linter is a static check with its own
#: exit-status contract, not an experiment -- run them deliberately
#: (``repro trace`` / ``repro stats`` / ``repro fleet`` / ``repro
#: lint``).
SKIPPED_BY_ALL = frozenset({"trace", "stats", "fleet", "lint"})

#: The figure subcommands whose handler reads ``--repeats`` /
#: ``--operations``; every other subcommand rejects the flag.  ``repro
#: all`` registers both itself and hands them to every handler.
READS_REPEATS = frozenset({"figure6-top", "figure6-bottom", "weaker-memory"})
READS_OPERATIONS = frozenset({"log-complexity"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation of 'Robust Emulations of Shared "
            "Memory in a Crash-Recovery Model' (Guerraoui & Levy, ICDCS 2004)"
        ),
    )
    # Every subcommand shares the same seed flag with the same default
    # (None = the command's documented per-run seeds) and the same
    # reporting (the "seed:" line run() prepends).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help="override the run's seed(s); default: each command's "
        "documented per-run seeds",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        if name == "soak":
            sub = subparsers.add_parser(
                name,
                parents=[common],
                help="run fault/workload scenarios (see repro soak --list)",
            )
            sub.add_argument(
                "scenario", nargs="?", default=None,
                help="scenario name (omit to smoke the whole library)",
            )
            sub.add_argument(
                "--list", action="store_true",
                help="list the registered scenarios and exit",
            )
            sub.add_argument(
                "--quick", action="store_true",
                help="trim the operation budget to the CI smoke size "
                "(the whole-suite run is always smoke-sized unless "
                "--ops sets an explicit budget)",
            )
            sub.add_argument(
                "--ops", type=int, default=None,
                help="override the scenario's total operation budget",
            )
            sub.add_argument(
                "--protocol", default=None,
                help="override the scenario's default register protocol",
            )
            sub.add_argument(
                "--workers", type=int, default=None,
                help="shard the whole-suite sweep across N pool workers "
                "(ignored when a single scenario is named; results and "
                "fingerprints match the serial path)",
            )
            continue
        if name == "fleet":
            sub = subparsers.add_parser(
                name,
                parents=[common],
                help="sweep seeds x scenarios x protocols across a "
                "process pool (see docs/scenarios.md)",
            )
            sub.add_argument(
                "--scenarios", default=None,
                help="comma-separated scenario names (default: the whole "
                "library; see repro soak --list)",
            )
            sub.add_argument(
                "--seeds", default=None,
                help="seed sweep, e.g. 0..9 or 0,3,7 (default: --seed, "
                "else each scenario's default seed)",
            )
            sub.add_argument(
                "--protocols", default=None,
                help="comma-separated protocols to cross with every "
                "scenario (default: each scenario's default)",
            )
            sub.add_argument(
                "--ops", type=int, default=None,
                help="operation budget per run (default: scenario "
                "defaults, or smoke budgets with --quick)",
            )
            sub.add_argument(
                "--quick", action="store_true",
                help="trim every run to its CI smoke budget",
            )
            sub.add_argument(
                "--workers", type=int, default=None,
                help="pool size (default: the machine's core count)",
            )
            sub.add_argument(
                "--parity", choices=("canary", "full", "off"),
                default="canary",
                help="serial re-execution to assert pool fingerprints "
                "byte-identical: one trimmed canary (default), every "
                "run, or off",
            )
            sub.add_argument(
                "--timeout", type=float, default=None,
                help="hard wall-clock deadline in seconds for the whole "
                "fleet (a deadlocked pool fails fast instead of hanging)",
            )
            continue
        if name in ("trace", "stats"):
            what = (
                "export its flight-recorder ring"
                if name == "trace"
                else "report its metrics registry"
            )
            sub = subparsers.add_parser(
                name, parents=[common],
                help=f"run a scenario, {what} (docs/observability.md)",
            )
            sub.add_argument(
                "scenario", nargs="?", default=None,
                help="scenario name (omit to list the library)",
            )
            sub.add_argument(
                "--quick", action="store_true",
                help="trim the operation budget to the CI smoke size",
            )
            sub.add_argument(
                "--ops", type=int, default=None,
                help="override the scenario's total operation budget",
            )
            sub.add_argument(
                "--protocol", default=None,
                help="override the scenario's default register protocol",
            )
            if name == "trace":
                sub.add_argument(
                    "--format", choices=("chrome", "jsonl", "text"),
                    default="chrome",
                    help="export format: Chrome trace_event JSON (load in "
                    "chrome://tracing or Perfetto), JSONL, or plain text "
                    "(default: chrome)",
                )
                sub.add_argument(
                    "--output", default=None,
                    help="output path (default: TRACE_<scenario>.json/.jsonl; "
                    "text prints to stdout)",
                )
            continue
        if name == "lint":
            # No ``common`` parent: the linter is static analysis and
            # takes no seed; run() skips the seed line for it too.
            sub = subparsers.add_parser(
                name,
                help="statically check determinism & contract "
                "invariants; exits nonzero on findings "
                "(docs/determinism.md)",
            )
            sub.add_argument(
                "paths", nargs="*", default=None,
                help="files to lint (default: every module under "
                "src/repro)",
            )
            sub.add_argument(
                "--format", choices=("text", "json"), default="text",
                help="report format (default: text)",
            )
            sub.add_argument(
                "--rule", action="append", default=None, metavar="ID",
                help="check only this rule id (repeatable; default: "
                "every registered rule)",
            )
            sub.add_argument(
                "--check-stale", dest="check_stale", action="store_true",
                help="also report reasoned suppressions whose rule no "
                "longer fires on that line (LINT002)",
            )
            continue
        sub = subparsers.add_parser(
            name, parents=[common], help=f"regenerate {name}"
        )
        if name in READS_REPEATS:
            sub.add_argument(
                "--repeats", type=int, default=50,
                help="operations per data point (default: 50)",
            )
        if name in READS_OPERATIONS:
            sub.add_argument(
                "--operations", type=int, default=30,
                help="operations per workload (default: 30)",
            )
    all_cmd = subparsers.add_parser(
        "all", parents=[common], help="run every experiment"
    )
    all_cmd.add_argument("--repeats", type=int, default=20)
    all_cmd.add_argument("--operations", type=int, default=20)
    return parser


def run(argv: Optional[List[str]] = None) -> str:
    """Execute the CLI and return the produced text (for tests)."""
    args = build_parser().parse_args(argv)
    if args.command == "all":
        sections = [seed_report(args)]
        for name, command in COMMANDS.items():
            if name in SKIPPED_BY_ALL:
                continue
            sections.append("=" * 72)
            sections.append(f"== {name}")
            sections.append("=" * 72)
            sections.append(command(args))
            sections.append("")
        return "\n".join(sections)
    if args.command == "lint":
        # No seed line: lint output must stay machine-parseable
        # (--format json) and seeds are meaningless to static checks.
        return COMMANDS[args.command](args)
    return seed_report(args) + "\n\n" + COMMANDS[args.command](args)


def main() -> int:
    try:
        print(run(sys.argv[1:]))
    except CommandFailed as failed:
        print(failed.output)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
