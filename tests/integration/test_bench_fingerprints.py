"""Integration: the benchmark's three simulated fingerprints, pinned.

Round 0 of ``python bench/run.py`` (seed 7) digests completed/aborted
operations, kernel events, messages, stores and the final virtual clock
of each simulated workload.  Engine-only changes must leave the digests
and every ``sim_*`` figure where they are; ``bench/tests`` only checks
that a smoke round repeats itself, so without this a moved fingerprint
is noticed only by whoever reads ``--compare``.  A change that moves
simulated behaviour on purpose re-records the values here and says so.
"""

import pytest

from bench import spec
from bench.driver import run_round

#: ``bench/run.py`` gives round ``i`` of seed ``s`` the seed ``s * 1009 + i``.
ROUND_0_SEED = 7 * 1009

PINNED = {
    "sim-mixed": ("fe824b5b97522236", 872.7999999996183),
    "sim-write-churn": ("b5419bdc0d7255a4", 948.5200000004523),
    "kv-zipf-read": ("ab8acd4188dfc0c4", 1322.759999999923),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_full_round_fingerprint_has_not_moved(name, tmp_path):
    workload = spec.WORKLOADS[name]
    report = run_round({
        "workload": name,
        "ops": workload.ops,
        "seed": ROUND_0_SEED,
        "traced": False,
        "scratch": str(tmp_path),
    })
    assert report["ok"] and report["completed"] == workload.ops
    assert (report["fingerprint"], report["sim_write_p50_us"]) == PINNED[name]
