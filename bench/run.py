"""The benchmark's one command.

::

    python bench/run.py                      # all four workloads -> bench/out/result.json
    python bench/run.py --traced             # ... plus the traced pass (per-layer table)
    python bench/run.py --smoke              # one tiny round each (what bench/tests runs)
    python bench/run.py --compare A.json B.json
    python bench/run.py --probes
    python bench/run.py --workload sim-mixed --seed 3 --seconds 20 --trace 0

The last form is the one ``BENCHMARK.json`` names: one workload, and as
the last line of standard output one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).

A run is a sequence of rounds, each a fresh ``bench/driver.py``
subprocess with ``PYTHONHASHSEED=0`` executing a fixed number of
operations; rounds are started until ``--seconds`` have passed, and
every timing is the median over the rounds.  Figures that are exact per
seed (simulated latencies, counts, the fingerprint) come from round 0,
which every run executes, so they do not depend on the host's speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

if __name__ == "__main__":
    sys.path.insert(0, ROOT)

from bench.driver import REFERENCE_SPIN_S, spin_s  # noqa: E402
from bench.spec import (  # noqa: E402
    COUNT_METRICS,
    DEFAULT_SEED,
    LAYER_NAMES,
    METRICS,
    SCHEMA,
    TRACE_SUFFIXES,
    WORKLOADS,
    Workload,
    per_layer_units,
)

OUT_DIR = os.path.join(BENCH_DIR, "out")
DRIVER = os.path.join(BENCH_DIR, "driver.py")

#: A traced round runs this fraction of the workload's operations (the
#: profiler costs about 3.5x).
TRACED_FRACTION = 5

#: Hard stop for one round; the whole command must end within 180 s.
ROUND_TIMEOUT_S = 150

TASK_ERROR_MARK = "Task exception was never retrieved"


# -- rounds ------------------------------------------------------------------


def run_round(
    workload: Workload, seed: int, ops: int, traced: bool
) -> Dict[str, Any]:
    """Run one round in a fresh interpreter and return its report."""
    os.makedirs(OUT_DIR, exist_ok=True)
    request = {
        "workload": workload.name,
        "seed": seed,
        "ops": ops,
        "traced": traced,
        "scratch": OUT_DIR,
        "spawned_at": time.time(),
    }
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        child = subprocess.run(
            [sys.executable, DRIVER, json.dumps(request)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"round exceeded {ROUND_TIMEOUT_S} s",
                "attempted": ops, "traced": traced}
    if child.returncode != 0:
        return {"crashed": child.stderr.strip()[-2000:] or "no stderr",
                "attempted": ops, "traced": traced}
    report = json.loads(child.stdout.strip().splitlines()[-1])
    report["traced"] = traced
    report["counts"]["runtime.task_errors"] = child.stderr.count(TASK_ERROR_MARK)
    return report


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    """Rounds of one workload until ``seconds`` have passed, aggregated.

    Without ``trace`` every round is untimed by the profiler.  With it,
    round 0 is still untraced (it supplies the counts and the wall time
    per operation the shares are scaled by) and the rest are traced.
    """
    ops = workload.smoke_ops if smoke else workload.ops
    traced_ops = ops if smoke else ops // TRACED_FRACTION
    started = time.monotonic()
    rounds: List[Dict[str, Any]] = []
    while True:
        index = len(rounds)
        traced = trace and index > 0
        rounds.append(run_round(
            workload, seed * 1009 + index, traced_ops if traced else ops, traced
        ))
        if "crashed" in rounds[-1]:
            break
        enough = index >= (1 if trace else 0)
        if enough and (smoke or time.monotonic() - started >= seconds):
            break
    return aggregate(workload, seed, rounds)


def aggregate(
    workload: Workload, seed: int, rounds: List[Dict[str, Any]]
) -> Dict[str, Any]:
    plain = [r for r in rounds if not r["traced"] and "crashed" not in r]
    crashed = [r["crashed"] for r in rounds if "crashed" in r]
    attempted = sum(r["attempted"] for r in rounds if not r["traced"])
    correct = not crashed and all(
        r["ok"] and r["unissued"] == 0 for r in rounds
    )
    failed = sum(r["attempted"] - r["completed"] for r in plain)
    if not correct:
        failed = attempted
    result: Dict[str, Any] = {
        "why": workload.why,
        "seed": seed,
        "ops_per_round": plain[0]["attempted"] if plain else 0,
        "rounds": len(plain),
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": crashed + [
            r["reason"] for r in rounds if "crashed" not in r and not r["ok"]
        ],
        "end_to_end": {},
        "per_layer": {},
    }
    if not plain:
        return result
    first = plain[0]
    # Each round reports its host timings already calibrated, chunk by
    # chunk (bench.driver.Calibration); here the median over the rounds
    # is taken.
    for metric in METRICS:
        if metric.workloads is not None and workload.name not in metric.workloads:
            continue
        samples = sum(sum(r["samples"].values()) for r in plain)
        if metric.name == "failed_ops_frac":
            value, samples = failed / attempted, attempted
        elif metric.deterministic:
            value, samples = first.get(metric.name), sum(first["samples"].values())
        else:
            values = [r[metric.name] for r in plain if metric.name in r]
            value = statistics.median(values) if values else None
            if metric.name in ("setup_s", "peak_rss_mb"):
                samples = len(values)
        if value is not None:
            result["end_to_end"][metric.name] = {
                "value": value, "unit": metric.unit, "samples": samples,
            }
    for key in ("fingerprint", "storage_fs"):
        if key in first:
            result[key] = first[key]
    counts = dict(first["counts"])
    counts["runtime.task_errors"] = sum(
        r["counts"]["runtime.task_errors"] for r in rounds if "crashed" not in r
    )
    counts["host.speed"] = statistics.median(r["host_speed"] for r in plain)
    counts["host.raw_ops_per_s"] = statistics.median(
        r["raw_ops_per_s"] for r in plain
    )
    units = dict(COUNT_METRICS)
    result["per_layer"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in counts.items()
    }
    profiles = [r for r in rounds if r.get("profile")]
    if profiles:
        result["trace"] = fold_profiles(
            1e6 / result["end_to_end"]["ops_per_s"]["value"],
            1e6 / counts["host.raw_ops_per_s"], profiles)
        result["per_layer"].update(trace_cells(result["trace"]))
    return result


def trace_cells(trace: Dict[str, Any]) -> Dict[str, Any]:
    """The per-layer metrics a folded trace contributes."""
    cells = {
        f"{layer}.{suffix}": {"value": row[suffix], "unit": unit}
        for layer, row in trace["layers"].items()
        for suffix, unit in TRACE_SUFFIXES
    }
    cells["trace_overhead_pct"] = {
        "value": trace["trace_overhead_pct"], "unit": "%",
    }
    return cells


def scale_trace(trace: Dict[str, Any], untraced_us: float) -> None:
    """Express the layers' shares in microseconds of ``untraced_us``."""
    trace["untraced_us_per_op"] = untraced_us
    for row in trace["layers"].values():
        row["self_us_per_op"] = row["self_share"] * untraced_us


def fold_profiles(
    untraced_us: float, raw_untraced_us: float, profiles: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Pool the traced rounds' layer tables; scale by the untraced rounds.

    Shares are of pooled busy self time, so they sum to one and
    ``self_us_per_op`` sums to ``untraced_us``, the untraced (calibrated)
    host microseconds per operation.  The profiler's overhead compares
    raw with raw.
    """
    ops = sum(r["profile"]["ops"] for r in profiles)
    busy = sum(r["profile"]["busy_s"] for r in profiles)
    traced_us = 1e6 * sum(r["run_s"] + r["check_s"] for r in profiles) / ops
    layers = {}
    for name in LAYER_NAMES:
        self_s = sum(r["profile"]["layers"][name]["self_s"] for r in profiles)
        calls = sum(
            r["profile"]["layers"][name]["calls_per_op"] * r["profile"]["ops"]
            for r in profiles
        )
        share = self_s / busy if busy else 0.0
        layers[name] = {"calls_per_op": calls / ops, "self_share": share}
    edges: Dict[Any, List[float]] = {}
    for r in profiles:
        for edge in r["profile"]["edges"]:
            pooled = edges.setdefault((edge["from"], edge["to"]), [0, 0.0])
            pooled[0] += edge["calls"]
            pooled[1] += edge["inclusive_s"]
    trace = {
        "traced_rounds": len(profiles),
        "traced_ops": ops,
        "traced_us_per_op": traced_us,
        "trace_overhead_pct": (traced_us / raw_untraced_us - 1.0) * 100.0,
        "wait_s": sum(r["profile"]["wait_s"] for r in profiles),
        "threads": max(r["profile"]["threads"] for r in profiles),
        "layers": layers,
        "edges": [
            {"from": parent, "to": child, "calls_per_op": count / ops,
             "inclusive_us_per_op": seconds / ops * 1e6}
            for (parent, child), (count, seconds) in sorted(
                edges.items(), key=lambda item: -item[1][1]
            )
        ],
    }
    scale_trace(trace, untraced_us)
    return trace


# -- provenance --------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, smoke: bool) -> Dict[str, Any]:
    status = _git("status", "--porcelain")
    return {
        "git_commit": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "host_id": hashlib.sha256(platform.node().encode()).hexdigest()[:12],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "smoke": smoke,
        "ops_per_round": {
            w.name: (w.smoke_ops if smoke else w.ops) for w in WORKLOADS.values()
        },
        "unix_time": time.time(),
    }


# -- output ------------------------------------------------------------------


def print_metrics(name: str, result: Dict[str, Any]) -> None:
    print(f"== {name}: {result['rounds']} round(s) x "
          f"{result['ops_per_round']} ops, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for section in ("end_to_end", "per_layer"):
        for metric, cell in result[section].items():
            samples = f"  (n={cell['samples']})" if "samples" in cell else ""
            print(f"  {metric:42s} {cell['value']:>16.6g} {cell['unit']}{samples}")
    for key in ("fingerprint", "storage_fs"):
        if key in result:
            print(f"  {key:42s} {result[key]:>16s}")
    for error in result["errors"]:
        print(f"  ERROR: {error}")


def contract_line(result: Dict[str, Any], trace: bool) -> Optional[str]:
    """The driver's last line, or ``None`` if a metric is missing."""
    if trace:
        # Non-gated end-to-end metrics ride along; 0 = not applicable.
        cells = {**result["per_layer"], **result["end_to_end"]}
        metrics = {
            name: {"value": cells.get(name, {}).get("value", 0), "unit": unit}
            for name, unit in per_layer_units().items()
        }
    else:
        gated = [m for m in METRICS if m.gated]
        if any(m.name not in result["end_to_end"] for m in gated):
            return None
        metrics = {
            m.name: {"value": result["end_to_end"][m.name]["value"],
                     "unit": m.unit}
            for m in gated
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def write_json(path: str, payload: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- command line ------------------------------------------------------------


def default_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return float(json.load(handle)["run_seconds"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time budget per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny round per workload, no time budget")
    parser.add_argument("--out", help="result file (default bench/out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        from bench.compare import compare_files

        return compare_files(*args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro beside bench/ -- nothing to measure",
              file=sys.stderr)
        return 2
    if args.probes:
        from bench.probes import run_probes

        probes = run_probes()
        for name, value in probes.items():
            print(f"  {name:42s} {value:>16.6g} ns")
        write_json(args.out or os.path.join(OUT_DIR, "probes.json"), {
            "schema": SCHEMA,
            "provenance": dict(
                provenance(args.seed, False),
                calibration_s=min(spin_s() for _ in range(5)),
            ),
            "probes": probes,
        })
        return 0
    seconds = args.seconds if args.seconds is not None else default_seconds()

    if args.workload:
        trace = bool(args.trace)
        result = run_workload(
            WORKLOADS[args.workload], args.seed, seconds, trace, args.smoke
        )
        print_metrics(args.workload, result)
        if trace and "trace" in result:
            write_json(
                os.path.join(OUT_DIR, f"trace-{args.workload}.json"),
                result["trace"],
            )
        line = contract_line(result, trace)
        if line is None:
            return 1
        print(line)
        return 0 if result["correct"] else 1

    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "provenance": provenance(args.seed, args.smoke),
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        result = run_workload(workload, args.seed, seconds, False, args.smoke)
        if args.traced:
            traced = run_workload(workload, args.seed, seconds, True, args.smoke)
            result["correct"] = result["correct"] and traced["correct"]
            result["errors"] += traced["errors"]
            if "trace" in traced:
                # Shares from the traced pass, microseconds from this
                # workload's untraced pass (a median over all its rounds).
                scale_trace(
                    traced["trace"],
                    1e6 / result["end_to_end"]["ops_per_s"]["value"],
                )
                result["trace"] = traced["trace"]
                result["per_layer"].update(trace_cells(traced["trace"]))
                write_json(os.path.join(OUT_DIR, f"trace-{name}.json"),
                           traced["trace"])
        print_metrics(name, result)
        payload["workloads"][name] = result
    live = payload["workloads"].get("live-loopback", {})
    payload["provenance"]["storage_fs"] = live.get("storage_fs", "unknown")
    # The box's speed score while it ran: the median spin of the rounds
    # of the spin-probed workloads (steadier than one spin taken here).
    speeds = [
        result["per_layer"]["host.speed"]["value"]
        for name, result in payload["workloads"].items()
        if WORKLOADS[name].probe == "spin" and "host.speed" in result["per_layer"]
    ]
    payload["provenance"]["calibration_s"] = (
        REFERENCE_SPIN_S / statistics.median(speeds) if speeds else None
    )
    out = args.out or os.path.join(OUT_DIR, "result.json")
    write_json(out, payload)
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in payload["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
