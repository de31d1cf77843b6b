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
    python -m repro all

The figure/table subcommands print the same rows/series the paper
reports (see docs/protocols.md for the paper-vs-measured mapping);
``soak`` and ``fleet`` run the scenario suite and print its verdicts
(see docs/scenarios.md); ``trace``/``stats`` surface the observability
layer (see docs/observability.md).  Engine speed is measured by
``python bench/run.py`` (see docs/benchmarks.md).

Every subcommand is one :class:`Command` row of :data:`COMMANDS`: its
name, help, handler, arguments and whether ``repro all`` runs it, and
:func:`build_parser` is one loop over that table.  There is one sweep
driver: bare ``repro soak`` is a one-seed :func:`~repro.scenarios.fleet
.run_fleet` over the library, and ``soak <scenario>``, ``trace`` and
``stats`` run one scenario whose defaults and quick budget
:func:`~repro.scenarios.pool.resolve_spec` pins.  An input error (an
unknown scenario, an empty seed range, a pool of no workers) ends in
one ``repro: error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.scenarios.runner import ScenarioResult
    from repro.scenarios.spec import Scenario


def _seed_kw(args: argparse.Namespace) -> Dict[str, int]:
    """``{"seed": N}`` when ``--seed`` was given, else ``{}``.

    Every subcommand takes the same ``--seed`` flag (from the
    shared parent parser) with the same default: ``None``, meaning "use
    the command's documented per-run seeds".  Handlers forward an
    explicit seed to their harness with this helper, so the plumbing is
    uniform instead of ad hoc per subparser.
    """
    return {} if args.seed is None else {"seed": args.seed}


def seed_report(args: argparse.Namespace) -> str:
    """The uniform seed line every command's output starts with."""
    if args.seed is None:
        return "seed: command defaults (override with --seed)"
    return f"seed: {args.seed}"


# -- the paper's figures and tables -----------------------------------------


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


# -- the scenario suite: soak, fleet, trace, stats ---------------------------


def format_soak_results(results: Sequence[ScenarioResult]) -> str:
    """Render scenario outcomes as the table ``soak``/``fleet`` print."""
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
    from repro.scenarios.faults import victims_of
    from repro.scenarios.spec import STORE_KV

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
    from repro.scenarios.library import list_scenarios

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
            f"{scenario.quick_ops:>9}  "
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


def _run_named(args: argparse.Namespace) -> ScenarioResult:
    """Run ``args.scenario`` in this process, flight recorder kept.

    :func:`~repro.scenarios.pool.resolve_spec` pins the defaults and
    the ``--quick`` budget exactly as it does for a fleet run, so one
    named run and its fleet twin are the same run.
    """
    from repro.scenarios.library import get_scenario
    from repro.scenarios.pool import RunSpec, resolve_spec
    from repro.scenarios.runner import run_scenario

    spec = resolve_spec(
        RunSpec(
            args.scenario,
            protocol=args.protocol,
            seed=args.seed,
            ops=args.ops,
            quick=args.quick,
        )
    )
    return run_scenario(
        get_scenario(spec.scenario),
        protocol=spec.protocol,
        seed=spec.seed,
        ops=spec.ops,
    )


def _cmd_soak(args: argparse.Namespace) -> str:
    from repro.scenarios.fleet import build_fleet_specs, run_fleet

    if args.list:
        return format_scenario_list()
    if args.scenario is not None:
        return _run_named(args).summary()
    # Bare ``repro soak`` (and ``repro all``) is a one-seed fleet over
    # the whole library at quick budgets; ``--ops`` sets one explicit
    # budget for every scenario instead.  ``--workers N`` sizes the
    # pool (one worker by default; same results, same order).
    specs = build_fleet_specs(
        seeds=[args.seed],
        protocols=None if args.protocol is None else [args.protocol],
        ops=args.ops,
        quick=args.ops is None,
    )
    workers = 1 if args.workers is None else args.workers
    results = run_fleet(specs, workers=workers).results
    budgets = (
        f"{args.ops}-op budgets" if args.ops is not None
        else "quick smoke budgets"
    )
    sharding = f"; {workers} workers" if workers > 1 else ""
    return (
        f"Scenario suite ({budgets}{sharding}; see docs/scenarios.md)\n\n"
        + format_soak_results(results)
    )


def _cmd_fleet(args: argparse.Namespace) -> str:
    from repro.scenarios.fleet import build_fleet_specs, parse_int_list, run_fleet

    def names(text: Optional[str]) -> Optional[List[str]]:
        return [name for name in text.split(",") if name] if text else None

    specs = build_fleet_specs(
        scenarios=names(args.scenarios),
        seeds=(
            parse_int_list(args.seeds, "seed") if args.seeds else [args.seed]
        ),
        protocols=names(args.protocols),
        ops=args.ops,
        quick=args.quick,
    )

    def stream(finished: int, total: int, spec, result) -> None:
        # Stream completions as they land (stderr: the composed report
        # still goes to stdout at the end, in stable spec order).
        print(
            f"[{finished}/{total}] {spec.label()}: "
            f"{'PASS' if result.verdict else 'FAIL'} "
            f"({result.completed} ops, {result.wall_s:.2f}s)",
            file=sys.stderr,
            flush=True,
        )

    report = run_fleet(
        specs,
        workers=args.workers,
        parity=args.parity,
        timeout=args.timeout,
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

    if args.scenario is None:
        return (
            "repro trace <scenario>: run a scenario, export its "
            "flight-recorder ring (see docs/observability.md)\n\n"
            + format_scenario_list()
        )
    result = _run_named(args)
    ring = result.flight_recorder
    if ring is None:
        return result.summary() + (
            "\n\nthe run kept no flight recorder (ring disabled)"
        )
    fmt, output = args.format, args.output
    if fmt == "text":
        payload = "\n".join(
            f"{event.time:12.6f}  {event.kind:<14} p{event.pid}"
            + (f"  {event.op}" if event.op is not None else "")
            for event in ring.events()
        )
        if output is None:
            return result.summary() + "\n\n" + payload
    elif fmt == "jsonl":
        payload = ring.to_jsonl()
        output = output or f"TRACE_{args.scenario}.jsonl"
    else:
        payload = json.dumps(ring.to_chrome_trace()) + "\n"
        output = output or f"TRACE_{args.scenario}.json"
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
    """Align a :meth:`MetricsSnapshot.as_dict` payload for the CLI.

    A histogram nothing observed (no recovery in a crash-free run) has
    no quantiles; it renders as ``count=0``.
    """
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
        if not hist["count"]:
            lines.append(f"  {name:<{width}}  count=0")
            continue
        lines.append(
            f"  {name:<{width}}  count={hist['count']:,} "
            f"mean={hist['mean'] * 1e6:,.0f}us p50={hist['p50'] * 1e6:,.0f}us "
            f"p99={hist['p99'] * 1e6:,.0f}us max={hist['max'] * 1e6:,.0f}us"
        )
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> str:
    if args.scenario is None:
        return (
            "repro stats <scenario>: run a scenario, report its metrics "
            "registry (see docs/observability.md)\n\n"
            + format_scenario_list()
        )
    result = _run_named(args)
    sections = [result.summary(), "", "final metrics:",
                _format_metrics_dict(result.metrics or {})]
    for phase in result.phases:
        if phase.metrics:
            sections += ["", f"phase {phase.name} (diff):",
                         _format_metrics_dict(phase.metrics)]
    return "\n".join(sections)


# -- the command table -------------------------------------------------------

#: One ``add_argument`` call: its flags and its keyword options.
Arg = Tuple[Tuple[str, ...], Dict[str, object]]


def _arg(*flags: str, **options: object) -> Arg:
    return flags, options


#: The two scale flags ``repro all`` hands on (with its own values) to
#: every command that declares them; every other command rejects them.
REPEATS = _arg(
    "--repeats", type=int, default=50,
    help="operations per data point (default: 50)",
)
OPERATIONS = _arg(
    "--operations", type=int, default=30,
    help="operations per workload (default: 30)",
)


def _scenario_args(omitted: str, quick: str = "") -> Tuple[Arg, ...]:
    """The flags naming one library run, shared by soak, trace and stats."""
    return (
        _arg(
            "scenario", nargs="?", default=None,
            help=f"scenario name (omit to {omitted})",
        ),
        _arg(
            "--quick", action="store_true",
            help="trim the operation budget to the CI smoke size" + quick,
        ),
        _arg(
            "--ops", type=int, default=None,
            help="override the scenario's total operation budget",
        ),
        _arg(
            "--protocol", default=None,
            help="override the scenario's default register protocol",
        ),
    )


@dataclass(frozen=True)
class Command:
    """One subcommand: how :func:`build_parser` registers it, what runs.

    ``in_all`` is false for the commands ``repro all`` skips: the
    flight-recorder diagnostics want an explicit scenario and the fleet
    spawns a process pool sized to the machine.
    """

    name: str
    help: str
    handler: Callable[[argparse.Namespace], str]
    arguments: Tuple[Arg, ...] = ()
    in_all: bool = True


COMMANDS: Dict[str, Command] = {
    command.name: command
    for command in (
        Command("figure6-top", "regenerate figure6-top", _cmd_figure6_top,
                (REPEATS,)),
        Command("figure6-bottom", "regenerate figure6-bottom",
                _cmd_figure6_bottom, (REPEATS,)),
        Command("figure1", "regenerate figure1", _cmd_figure1),
        Command("lower-bounds", "regenerate lower-bounds", _cmd_lower_bounds),
        Command("log-complexity", "regenerate log-complexity",
                _cmd_log_complexity, (OPERATIONS,)),
        Command("message-complexity", "regenerate message-complexity",
                _cmd_complexity),
        Command("ablations", "regenerate ablations", _cmd_ablations),
        Command("weaker-memory", "regenerate weaker-memory",
                _cmd_weaker_memory, (REPEATS,)),
        Command("show-run", "regenerate show-run", _cmd_show_run),
        Command(
            "soak", "run fault/workload scenarios (see repro soak --list)",
            _cmd_soak,
            _scenario_args(
                "smoke the whole library",
                quick=" (the whole-suite run is always smoke-sized unless "
                "--ops sets an explicit budget)",
            ) + (
                _arg(
                    "--list", action="store_true",
                    help="list the registered scenarios and exit",
                ),
                _arg(
                    "--workers", type=int, default=None,
                    help="pool size for the whole-suite sweep (default: "
                    "1; ignored when a single scenario is named; results "
                    "and fingerprints match the serial path)",
                ),
            ),
        ),
        Command(
            "fleet",
            "sweep seeds x scenarios x protocols across a process pool "
            "(see docs/scenarios.md)",
            _cmd_fleet,
            (
                _arg(
                    "--scenarios", default=None,
                    help="comma-separated scenario names (default: the "
                    "whole library; see repro soak --list)",
                ),
                _arg(
                    "--seeds", default=None,
                    help="seed sweep, e.g. 0..9 or 0,3,7 (default: --seed, "
                    "else each scenario's default seed)",
                ),
                _arg(
                    "--protocols", default=None,
                    help="comma-separated protocols to cross with every "
                    "scenario (default: each scenario's default)",
                ),
                _arg(
                    "--ops", type=int, default=None,
                    help="operation budget per run (default: scenario "
                    "defaults, or smoke budgets with --quick)",
                ),
                _arg(
                    "--quick", action="store_true",
                    help="trim every run to its CI smoke budget",
                ),
                _arg(
                    "--workers", type=int, default=None,
                    help="pool size (default: the machine's core count)",
                ),
                _arg(
                    "--parity", choices=("canary", "full", "off"),
                    default="canary",
                    help="serial re-execution to assert pool fingerprints "
                    "byte-identical: one trimmed canary (default), every "
                    "run, or off",
                ),
                _arg(
                    "--timeout", type=float, default=None,
                    help="hard wall-clock deadline in seconds for the "
                    "whole fleet (a deadlocked pool fails fast instead of "
                    "hanging)",
                ),
            ),
            in_all=False,
        ),
        Command(
            "trace",
            "run a scenario, export its flight-recorder ring "
            "(docs/observability.md)",
            _cmd_trace,
            _scenario_args("list the library") + (
                _arg(
                    "--format", choices=("chrome", "jsonl", "text"),
                    default="chrome",
                    help="export format: Chrome trace_event JSON (load in "
                    "chrome://tracing or Perfetto), JSONL, or plain text "
                    "(default: chrome)",
                ),
                _arg(
                    "--output", default=None,
                    help="output path (default: TRACE_<scenario>.json/"
                    ".jsonl; text prints to stdout)",
                ),
            ),
            in_all=False,
        ),
        Command(
            "stats",
            "run a scenario, report its metrics registry "
            "(docs/observability.md)",
            _cmd_stats,
            _scenario_args("list the library"),
            in_all=False,
        ),
    )
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation of 'Robust Emulations of Shared "
            "Memory in a Crash-Recovery Model' (Guerraoui & Levy, ICDCS 2004)"
        ),
    )
    # Every subcommand shares the same seed flag with the same
    # default (None = the command's documented per-run seeds) and the
    # same reporting (the "seed:" line run() prepends).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help="override the run's seed(s); default: each command's "
        "documented per-run seeds",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        sub = subparsers.add_parser(
            command.name, parents=[common], help=command.help
        )
        for flags, options in command.arguments:
            sub.add_argument(*flags, **options)
    all_cmd = subparsers.add_parser(
        "all", parents=[common], help="run every experiment"
    )
    all_cmd.add_argument("--repeats", type=int, default=20)
    all_cmd.add_argument("--operations", type=int, default=20)
    return parser


def _run_all(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    """``repro all``: every ``in_all`` command, each from its own argv.

    ``--seed`` goes to every command, ``--repeats``/``--operations``
    to those that declare the flag, so each handler reads exactly the
    namespace its own command line would give it.
    """
    handed_on = {"--repeats": args.repeats, "--operations": args.operations}
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    sections = [seed_report(args)]
    for command in COMMANDS.values():
        if not command.in_all:
            continue
        argv = [command.name, *seed]
        for flags, _ in command.arguments:
            if flags[0] in handed_on:
                argv += [flags[0], str(handed_on[flags[0]])]
        sections += ["=" * 72, f"== {command.name}", "=" * 72,
                     command.handler(parser.parse_args(argv)), ""]
    return "\n".join(sections)


def run(argv: Optional[List[str]] = None) -> str:
    """Execute the CLI and return the produced text (for tests)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "all":
        return _run_all(parser, args)
    return seed_report(args) + "\n\n" + COMMANDS[args.command].handler(args)


def main() -> int:
    try:
        print(run(sys.argv[1:]))
        sys.stdout.flush()  # a reader gone early shows here, not at exit
    except ConfigurationError as error:
        # An input the command cannot run is the caller's mistake, not
        # a crash: one line and argparse's usage-error status.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): it has all it wanted.
        # Point stdout at /dev/null, or the interpreter's flush of what
        # is still buffered raises again at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
