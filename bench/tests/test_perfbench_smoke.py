"""Smoke test of the benchmark: schema, determinism, self-comparison.

Runs ``bench/run.py --smoke`` (one round of about 300 operations per
workload) twice with the same seed and checks what later changes rely
on: the result schema, the metric-name charset, that every simulated
figure and fingerprint repeats exactly, and that ``--compare`` of a
result with itself finds nothing worse.  No timing is asserted.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import compare, run, spec, trace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SIMULATED = [w.name for w in spec.WORKLOADS.values() if w.backend != "live"]


def run_bench(*args):
    return subprocess.run(
        [sys.executable, RUN, *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    results = []
    for tag, extra in (("a", ["--traced"]), ("b", [])):
        path = str(out / f"{tag}.json")
        done = run_bench("--smoke", "--seed", "11", "--out", path, *extra)
        assert done.returncode == 0, done.stdout + done.stderr
        with open(path) as handle:
            results.append((path, json.load(handle)))
    return results


def test_result_schema(smoke_results):
    _path, result = smoke_results[0]
    assert result["schema"] == spec.SCHEMA
    provenance = result["provenance"]
    for key in ("git_commit", "git_dirty", "host_id", "cpu_count", "python",
                "storage_fs", "seed", "ops_per_round", "calibration_s"):
        assert key in provenance
    assert provenance["seed"] == 11 and provenance["smoke"] is True
    assert sorted(result["workloads"]) == sorted(spec.WORKLOADS)
    for name, workload in result["workloads"].items():
        assert workload["correct"] is True, workload["errors"]
        assert workload["failed"] == 0
        assert workload["attempted"] == spec.WORKLOADS[name].smoke_ops
        expected = {
            m.name for m in spec.METRICS
            if m.workloads is None or name in m.workloads
        }
        assert set(workload["end_to_end"]) == expected
        for cell in workload["end_to_end"].values():
            assert cell["samples"] >= 1 and isinstance(cell["value"], (int, float))
        assert set(workload["per_layer"]) == (
            set(spec.per_layer_units()) - {m.name for m in spec.METRICS})
        for metric in list(workload["end_to_end"]) + list(workload["per_layer"]):
            assert NAME.match(metric), metric
        assert ("fingerprint" in workload) == (name in SIMULATED)


def test_traced_pass_attributes_the_profile(smoke_results):
    _path, result = smoke_results[0]
    for name, workload in result["workloads"].items():
        layers = workload["trace"]["layers"]
        assert set(layers) == set(spec.LAYER_NAMES)
        assert sum(row["self_share"] for row in layers.values()) == pytest.approx(1.0)
        assert layers["unattributed"]["self_share"] <= 0.03, name
        total_us = sum(row["self_us_per_op"] for row in layers.values())
        assert total_us == pytest.approx(workload["trace"]["untraced_us_per_op"])
        assert workload["trace"]["edges"], name
    live = result["workloads"]["live-loopback"]["trace"]["layers"]
    assert live["runtime.storage"]["self_share"] > 0
    assert live["sim.kernel"]["self_share"] == 0


def test_simulated_figures_repeat_exactly(smoke_results):
    (_pa, first), (_pb, second) = smoke_results
    for name in SIMULATED:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["fingerprint"] == b["fingerprint"]
        for metric in spec.METRICS:
            if metric.deterministic and metric.name in a["end_to_end"]:
                assert (a["end_to_end"][metric.name]["value"]
                        == b["end_to_end"][metric.name]["value"]), metric.name
        exact = [n for n, _unit in spec.COUNT_METRICS
                 if not n.startswith(("history.checker", "host.", "runtime."))]
        for metric in exact:
            assert (a["per_layer"][metric]["value"]
                    == b["per_layer"][metric]["value"]), metric


def test_compare_with_itself_is_all_ok(smoke_results):
    path, result = smoke_results[0]
    lines, worse = compare.compare(result, result)
    assert worse == 0
    assert not [line for line in lines if "worse" in line and line != "0 worse"]
    assert run_bench("--compare", path, path).returncode == 0


def test_compare_flags_a_regression(smoke_results):
    _path, result = smoke_results[0]
    slower = json.loads(json.dumps(result))
    cell = slower["workloads"]["sim-mixed"]["end_to_end"]["ops_per_s"]
    cell["value"] *= 0.5
    slower["workloads"]["kv-zipf-read"]["fingerprint"] = "0" * 16
    lines, worse = compare.compare(result, slower)
    assert worse == 1
    assert any("ops_per_s" in line and "worse" in line for line in lines)
    assert any("fingerprint" in line and "DIFFERENT" in line for line in lines)


def test_contract_line_of_a_single_workload():
    done = run_bench("--workload", "kv-zipf-read", "--smoke", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m.name for m in spec.METRICS if m.gated}
    assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_a_bad_verdict_fails_every_operation():
    workload = spec.WORKLOADS["sim-mixed"]
    good = {
        "traced": False, "attempted": 300, "completed": 300, "unissued": 0,
        "ok": True, "reason": "", "samples": {"write": 150, "read": 150},
        "counts": {"runtime.task_errors": 0}, "ops_per_s": 1.0, "raw_ops_per_s": 1.0,
        "host_speed": 1.0,
    }
    for broken in ({"ok": False, "reason": "not atomic"}, {"unissued": 4}):
        merged = run.aggregate(workload, 1, [good, {**good, **broken}])
        assert merged["correct"] is False
        assert merged["failed"] == merged["attempted"] == 600
        assert merged["end_to_end"]["failed_ops_frac"]["value"] == 1.0
    crashed = run.aggregate(
        workload, 1, [{"crashed": "boom", "attempted": 300, "traced": False}])
    assert crashed["correct"] is False and crashed["failed"] == 300


def test_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared["paths"] == ["bench"]
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    gated = {m.name: m for m in spec.METRICS if m.gated}
    assert [m["name"] for m in declared["end_to_end"]] == list(gated)
    for row in declared["end_to_end"]:
        metric = gated[row["name"]]
        assert (row["unit"], row["better"], row["bound"]) == (
            metric.unit, metric.better, metric.bound)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        spec.per_layer_units())


def test_every_module_has_one_layer():
    assert trace.layer_of_module("repro.protocol.messages") == "protocol.messages"
    assert trace.layer_of_module("repro.protocol.two_round") == "protocol"
    assert trace.layer_of_module("repro.sim.tracing") == "obs"
    assert trace.layer_of_module("repro.brand_new_module") == "unattributed"
    assert trace.layer_of_module("asyncio.base_events") == "host"
    assert trace.layer_of_module("bench.driver") == "driver"
