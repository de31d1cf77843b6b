"""Observation must not perturb behaviour: the obs-layer contract.

The flight recorder is always on and the metrics registry can be
instantiated (and listened to) mid-run, so the determinism guarantees
have to hold *under observation*, not just without it:

* attaching a metrics listener and snapshotting the registry mid-run
  changes nothing observable about the run itself;
* the flight recorder holds the same records whether or not the trace
  captures: the ring does not depend on anyone looking.
"""

from repro.api import open_cluster
from repro.common.config import ClusterConfig, NetworkConfig
from repro.obs import tracing
from repro.scenarios.faults import RandomCrashPlan
from repro.workloads.generators import run_closed_loop
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import _normalize_transcript
from repro.scenarios.runner import run_scenario as run_spec
from repro.obs.tracing import ALL_KINDS


def crashy_lossy_ring(capture):
    """A 5-process run with loss, duplicates, retransmission timers and crashes."""
    config = ClusterConfig(
        num_processes=5, network=NetworkConfig(duplicate_probability=0.05), seed=41
    )
    cluster = open_cluster("sim", config=config, capture_trace=capture).start()
    cluster.lose(0.2, seed=3)
    RandomCrashPlan(horizon=0.01, seed=42).arm(cluster)
    run_closed_loop(cluster, operations_per_client=5, read_fraction=0.5, seed=41)
    cluster.run(0.01)
    return cluster


def ring_records(cluster):
    """The decoded ring, operations numbered in order of first appearance.

    Operation ids count per interpreter, so two runs in one process
    number the same operation differently.
    """
    numbers = {}
    return [
        (e.time, e.kind, e.pid, None if e.op is None else numbers.setdefault(e.op, len(numbers)))
        for e in cluster.flight_recorder.events()
    ]


class TestFlightRecorderUnderCapture:
    def test_the_ring_is_the_same_with_capture_on_and_off(self):
        quiet, captured = crashy_lossy_ring(False), crashy_lossy_ring(True)
        for kind in (tracing.DROP, tracing.DUPLICATE, tracing.TIMER, tracing.CRASH):
            assert quiet.trace.count(kind) > 0, kind
        records = ring_records(quiet)
        assert records == ring_records(captured)
        # The kinds whose events carry no ``op`` detail keep it in the ring.
        for kind in (tracing.DROP, tracing.DUPLICATE, tracing.TIMER):
            assert any(op is not None for _, k, _, op in records if k == kind), kind


class TestScenarioFingerprints:
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
            unsubscribe = cluster.trace.subscribe(
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
            expected = sum(cluster.trace.count(kind) for kind in ALL_KINDS)
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
            node = cluster.nodes[1]
            assert node.crash_count == 1 and len(node.recovery_times) == 1
