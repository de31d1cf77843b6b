"""Unit tests for the fleet layer: specs, parsing, report folding.

Everything here is process-free (the pool itself is integration-speed;
see ``tests/integration/test_fleet.py``): spec resolution, the sweep
expansion, the seed-list parser, and FleetReport aggregation
over fabricated results.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.scenarios.fleet import (
    FleetReport,
    build_fleet_specs,
    fingerprint_bytes,
    parse_int_list,
)
from repro.scenarios.library import get_scenario, list_scenarios
from repro.scenarios.pool import RunSpec, resolve_spec
from repro.scenarios.runner import ScenarioResult
from repro.scenarios.soak import quick_ops_for


class TestParseIntList:
    def test_plain_list(self):
        assert parse_int_list("0,3,7") == [0, 3, 7]

    def test_range_is_inclusive(self):
        assert parse_int_list("0..9") == list(range(10))

    def test_mixed(self):
        assert parse_int_list("0..2,8") == [0, 1, 2, 8]

    def test_single(self):
        assert parse_int_list("5") == [5]

    @pytest.mark.parametrize("bad", ["", "a", "1..b", "3..1", ","])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigurationError):
            parse_int_list(bad)


class TestRunSpec:
    def test_resolve_pins_scenario_defaults(self):
        spec = resolve_spec(RunSpec(scenario="soak-100k"))
        scenario = get_scenario("soak-100k")
        assert spec.protocol == scenario.default_protocol
        assert spec.seed == scenario.default_seed
        assert spec.ops == scenario.default_ops

    def test_resolve_quick_trims_budget(self):
        spec = resolve_spec(RunSpec(scenario="soak-100k", quick=True))
        assert spec.ops == quick_ops_for(get_scenario("soak-100k"))
        assert not spec.quick  # resolution consumes the flag

    def test_explicit_fields_win(self):
        spec = resolve_spec(
            RunSpec(scenario="steady-state", protocol="transient",
                    seed=9, ops=60, quick=True)
        )
        assert (spec.protocol, spec.seed, spec.ops) == ("transient", 9, 60)

    def test_resolve_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            resolve_spec(RunSpec(scenario="no-such-scenario"))

    def test_resolve_rejects_starved_budget(self):
        with pytest.raises(ConfigurationError):
            resolve_spec(RunSpec(scenario="soak-100k", ops=2))  # 5 phases

    def test_rng_seed_is_stable_and_distinct(self):
        a = RunSpec(scenario="steady-state", seed=1, ops=60)
        b = RunSpec(scenario="steady-state", seed=2, ops=60)
        assert a.rng_seed() == RunSpec(
            scenario="steady-state", seed=1, ops=60
        ).rng_seed()
        assert a.rng_seed() != b.rng_seed()

    def test_label_names_the_run(self):
        label = resolve_spec(
            RunSpec(scenario="steady-state", seed=3, ops=60)
        ).label()
        assert "steady-state" in label
        assert "seed=3" in label
        assert "ops=60" in label


class TestBuildFleetSpecs:
    def test_default_sweeps_whole_library(self):
        specs = build_fleet_specs(seeds=[0, 1], quick=True)
        assert len(specs) == 2 * len(list_scenarios())

    def test_cross_product_with_protocols(self):
        specs = build_fleet_specs(
            scenarios=["steady-state", "loss-burst"],
            seeds=[0, 1, 2],
            protocols=["persistent", "transient"],
            ops=60,
        )
        assert len(specs) == 2 * 3 * 2
        assert {spec.protocol for spec in specs} == {
            "persistent", "transient",
        }

    def test_specs_come_back_resolved(self):
        (spec,) = build_fleet_specs(scenarios=["steady-state"], seeds=[4])
        assert spec.ops == get_scenario("steady-state").default_ops
        assert spec.protocol is not None

    def test_unknown_scenario_fails_in_parent(self):
        with pytest.raises(ConfigurationError):
            build_fleet_specs(scenarios=["nope"], seeds=[0])


def _fake_result(scenario="steady-state", seed=0, completed=50,
                 aborted=0, unissued=0, ok=True, wall_s=2.0):
    from repro.scenarios.runner import CheckOutcome

    return ScenarioResult(
        scenario=scenario,
        store="register",
        protocol="persistent",
        seed=seed,
        ops=completed + aborted + unissued,
        checks=[CheckOutcome(phase="final", ok=ok, criterion="persistent",
                             method="whitebox",
                             operations=completed)],
        completed=completed,
        aborted=aborted,
        unissued=unissued,
        wall_s=wall_s,
    )


class TestFleetReport:
    def _report(self, results):
        report = FleetReport(workers=4, parity="off")
        report.specs = [
            resolve_spec(
                RunSpec(scenario=r.scenario, seed=r.seed, ops=r.ops)
            )
            for r in results
        ]
        report.results = list(results)
        report.wall_s = 5.0
        report.serial_wall_s = sum(r.wall_s for r in results)
        return report

    def test_totals_and_throughput(self):
        report = self._report(
            [_fake_result(seed=0, completed=50),
             _fake_result(seed=1, completed=70)]
        )
        assert report.completed == 120
        assert report.ops_per_s == pytest.approx(120 / 5.0)
        assert report.speedup == pytest.approx(4.0 / 5.0)
        assert report.verdict is True

    def test_one_failing_run_fails_the_fleet(self):
        report = self._report(
            [_fake_result(seed=0), _fake_result(seed=1, ok=False)]
        )
        assert report.verdict is False

    def test_unissued_work_fails_the_fleet(self):
        report = self._report(
            [_fake_result(seed=0, completed=40, unissued=10)]
        )
        assert report.verdict is False

    def test_fingerprint_bytes_canonical(self):
        a, b = _fake_result(seed=3), _fake_result(seed=3)
        assert fingerprint_bytes(a) == fingerprint_bytes(b)
        assert fingerprint_bytes(a) != fingerprint_bytes(_fake_result(seed=4))

