"""Observation must not perturb behaviour: the obs-layer contract.

The flight recorder is always on and the metrics registry can be
instantiated (and listened to) mid-run, so the determinism guarantees
have to hold *under observation*, not just without it:

* the golden transcripts of ``test_determinism`` stay byte-identical
  with the trace ring disabled (the ring-on case *is* the golden run,
  since the ring defaults on);
* a scenario's fingerprint is byte-identical with the ring on or off;
* attaching a metrics listener and snapshotting the registry mid-run
  changes nothing observable about the run itself.
"""

import json
from pathlib import Path

import pytest

from repro.api import open_cluster
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import _normalize_transcript
from repro.scenarios.runner import run_scenario as run_spec
from repro.obs.tracing import ALL_KINDS
from tests.integration.determinism_scenario import PROTOCOLS, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "determinism"


class TestGoldenUnderObservation:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_ring_off_matches_golden(self, protocol):
        # The goldens were captured with the ring on (the default);
        # switching the recorder off must not move a single event.
        golden = (GOLDEN_DIR / f"{protocol}.txt").read_text()
        assert run_scenario(protocol, flight_recorder=False) == golden


class TestScenarioFingerprints:
    def test_flight_recorder_toggle_keeps_fingerprint(self):
        spec = get_scenario("crash-during-write")
        on = run_spec(spec, flight_recorder=True)
        off = run_spec(spec, flight_recorder=False)
        assert json.dumps(on.fingerprint(), sort_keys=True) == json.dumps(
            off.fingerprint(), sort_keys=True
        )
        assert on.flight_recorder is not None
        assert on.flight_recorder.total > 0
        assert off.flight_recorder is None

    def test_kv_scenario_fingerprint_survives_toggle(self):
        spec = get_scenario("zipfian-contention")
        on = run_spec(spec, ops=150, flight_recorder=True)
        off = run_spec(spec, ops=150, flight_recorder=False)
        assert on.fingerprint() == off.fingerprint()

    def test_phase_metrics_attached_outside_fingerprint(self):
        result = run_spec(get_scenario("crash-during-write"))
        assert result.metrics is not None
        assert result.metrics["scalars"]["net.messages_sent"] > 0
        for phase in result.phases:
            assert phase.metrics is not None
            assert "metrics" not in phase.fingerprint()
        assert "metrics" not in result.fingerprint()
        assert "flight_recorder" not in result.fingerprint()


def _drive(observe: bool):
    """One fixed façade program, optionally observed mid-run."""
    with open_cluster(backend="sim", seed=31, capture_trace=True) as cluster:
        sessions = [cluster.session(pid) for pid in range(3)]
        sessions[0].write_sync("a")
        unsubscribe = None
        if observe:
            # Registry materialised mid-run, a listener feeding a
            # counter, and a snapshot taken while operations are still
            # to come: all of it must be invisible to the run.
            sends = cluster.registry.counter("test.sends")
            unsubscribe = cluster.sim.trace.subscribe(
                lambda event: sends.inc(), kinds=["send"]
            )
            cluster.metrics()
        sessions[1].write_sync("b")
        cluster.crash(0)
        cluster.recover(0)
        sessions[2].write_sync("c")
        assert sessions[1].read_sync() == "c"
        if observe:
            unsubscribe()
            assert cluster.metrics().scalars["test.sends"] > 0
        return (
            _normalize_transcript(cluster.transcript() or []),
            cluster.stats(),
        )


class TestMidRunObservation:
    def test_metrics_listener_mid_run_is_passive(self):
        plain_transcript, plain_stats = _drive(observe=False)
        observed_transcript, observed_stats = _drive(observe=True)
        assert observed_transcript == plain_transcript
        assert observed_stats == plain_stats


class TestRingAccounting:
    def test_ring_total_matches_trace_counts(self):
        with open_cluster(backend="sim", seed=5) as cluster:
            cluster.session(0).write_sync("x")
            assert cluster.session(1).read_sync() == "x"
            ring = cluster.flight_recorder
            expected = sum(cluster.sim.trace.count(kind) for kind in ALL_KINDS)
            assert ring.total == expected == len(ring)

    def test_session_latency_histograms_fill(self):
        with open_cluster(backend="sim", seed=5) as cluster:
            session = cluster.session(0)
            session.write_sync("x")
            assert session.read_sync() == "x"
            snapshot = cluster.metrics()
            for kind in ("read", "write"):
                histogram = snapshot.histograms[f"op.{kind}.latency"]
                assert histogram.total == 1
                assert histogram.minimum > 0.0

    def test_live_crash_and_recovery_fill_the_node_counters(self):
        """The live backend reads the host's counters, as the simulator does."""
        with open_cluster(backend="live", num_processes=3) as cluster:
            cluster.session(0).write_sync("x")
            cluster.metrics()  # registry created before the recovery: observed live
            cluster.crash(1)
            cluster.crash(2)
            cluster.recover(1)
            stats, snapshot = cluster.stats(), cluster.metrics()
            assert (stats.crashes, stats.recoveries) == (2, 1)
            assert snapshot.scalars["node.crashes"] == 2
            assert snapshot.scalars["node.recoveries"] == 1
            histogram = snapshot.histograms["node.recovery_time"]
            assert histogram.total == 1 and histogram.minimum > 0.0
            node = cluster.live.nodes[1]
            assert node.crash_count == 1 and len(node.recovery_times) == 1
