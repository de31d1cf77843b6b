"""``python bench/run.py --compare A.json B.json``: is B worse than A?

Per workload and end-to-end metric: both values, the relative change,
the metric's bound and ``ok`` / ``worse`` / ``better``.  For simulated
workloads the fingerprints must also agree, and a metric that is exact
per seed is flagged ``changed`` as soon as it differs at all -- an
engine-only optimisation must leave those identical.  Exit status 1 on
any ``worse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from bench.spec import METRICS, SCHEMA

#: Calibration scores further apart than this are different boxes (or
#: one box under different load): timings are then not comparable.
CALIBRATION_TOLERANCE = 0.15


def judge(metric, before: float, after: float) -> Tuple[float, str]:
    """Signed change (positive = worse) and its verdict."""
    delta = after - before if metric.better == "lower" else before - after
    if metric.absolute:
        worsening = delta
    else:
        worsening = delta / abs(before) if before else (1.0 if delta else 0.0)
    if worsening > metric.bound:
        return worsening, "worse"
    if worsening < -metric.bound:
        return worsening, "better"
    return worsening, "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], int]:
    """Report lines and the number of ``worse`` verdicts."""
    lines: List[str] = []
    worse = 0
    pa, pb = a["provenance"], b["provenance"]
    if pa["seed"] != pb["seed"] or pa["ops_per_round"] != pb["ops_per_round"]:
        lines.append(
            "NOTE: seeds or op counts differ; exact-per-seed figures "
            "are expected to change"
        )
    ca, cb = pa["calibration_s"], pb["calibration_s"]
    apart = abs(cb - ca) / ca > CALIBRATION_TOLERANCE if ca and cb else True
    if pa["host_id"] != pb["host_id"] or apart:
        lines.append(
            f"WARNING: different box or load (host {pa['host_id']} vs "
            f"{pb['host_id']}, calibration {ca} s vs {cb} s): uncalibrated "
            "timings are not comparable"
        )
    header = (f"{'workload':16s} {'metric':20s} {'A':>14s} {'B':>14s} "
              f"{'change':>9s} {'bound':>7s}  verdict")
    lines.append(header)
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:16s} missing from B")
            worse += 1
            continue
        for metric in METRICS:
            cell_a = wa["end_to_end"].get(metric.name)
            cell_b = wb["end_to_end"].get(metric.name)
            if cell_a is None and cell_b is None:
                continue
            if cell_a is None or cell_b is None:
                lines.append(f"{name:16s} {metric.name:20s} present on one side only")
                worse += 1
                continue
            va, vb = cell_a["value"], cell_b["value"]
            change, verdict = judge(metric, va, vb)
            if verdict == "ok" and metric.deterministic and va != vb:
                verdict = "ok (changed)"
            worse += verdict == "worse"
            shown = f"{change:+9.4f}" if metric.absolute else f"{change:+9.2%}"
            lines.append(
                f"{name:16s} {metric.name:20s} {va:14.6g} {vb:14.6g} "
                f"{shown} {metric.bound:7.3f}  {verdict}"
            )
        if "fingerprint" in wa or "fingerprint" in wb:
            same = wa.get("fingerprint") == wb.get("fingerprint")
            lines.append(
                f"{name:16s} {'fingerprint':20s} {wa.get('fingerprint', '-'):>14s} "
                f"{wb.get('fingerprint', '-'):>14s} "
                f"{'':9s} {'':7s}  {'identical' if same else 'DIFFERENT'}"
            )
    lines.append(f"{worse} worse")
    return lines, worse


def compare_files(path_a: str, path_b: str) -> int:
    results = []
    for path in (path_a, path_b):
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("schema") != SCHEMA or "workloads" not in payload:
            print(f"{path}: not a {SCHEMA} result file")
            return 2
        results.append(payload)
    lines, worse = compare(*results)
    print("\n".join(lines))
    return 1 if worse else 0
