"""Integration: message/step complexity matches the paper's claims."""

import pytest

from repro.api import open_cluster
from repro.analysis import format_summary, profile_operations, summarize_profiles
from repro.common.errors import ConfigurationError
from repro.experiments.complexity import (
    EXPECTED_STEPS,
    format_complexity,
    measure_complexity,
)


@pytest.fixture(scope="module")
def complexity():
    results = measure_complexity(operations=4)
    return {result.algorithm: result for result in results}


class TestCommunicationSteps:
    @pytest.mark.parametrize("algorithm", sorted(EXPECTED_STEPS))
    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_steps_match_expectation(self, complexity, algorithm, kind):
        assert complexity[algorithm].steps_of(kind) == EXPECTED_STEPS[algorithm][kind]

    def test_crash_recovery_costs_no_extra_steps(self, complexity):
        """The paper's headline: 4 steps, same as the crash-stop baseline."""
        for kind in ("read", "write"):
            baseline = complexity["crash-stop"].steps_of(kind)
            assert complexity["transient"].steps_of(kind) == baseline
            assert complexity["persistent"].steps_of(kind) == baseline


class TestMessageComplexity:
    def test_crash_recovery_costs_no_extra_messages(self, complexity):
        for kind in ("read", "write"):
            baseline = complexity["crash-stop"].messages_of(kind)
            assert complexity["transient"].messages_of(kind) == baseline
            assert complexity["persistent"].messages_of(kind) == baseline

    def test_two_rounds_cost_2n_messages(self, complexity):
        # Each round: n requests + n acks, n = 5.
        assert complexity["crash-stop"].messages_of("write") == 20.0

    def test_abd_write_is_half_a_mwmr_write(self, complexity):
        assert complexity["abd"].messages_of("write") == 10.0

    def test_regular_read_is_half_an_atomic_read(self, complexity):
        assert complexity["regular"].messages_of("read") == 10.0


class TestLogTotals:
    def test_total_vs_causal_logs(self):
        """A persistent write totals 1 + n logs, but only 2 chain causally."""
        cluster = open_cluster("sim", protocol="persistent", num_processes=5, capture_trace=True)
        cluster.start()
        handle = cluster.session(0).write_sync("x")
        profiles = profile_operations(cluster)
        profile = profiles[handle.op]
        assert profile.logs == 6  # writer pre-log + all five `written`
        assert handle.causal_logs == 2  # the paper's metric

    def test_transient_write_saves_exactly_the_prelog(self):
        cluster = open_cluster("sim", protocol="transient", num_processes=5, capture_trace=True)
        cluster.start()
        handle = cluster.session(0).write_sync("x")
        profile = profile_operations(cluster)[handle.op]
        assert profile.logs == 5
        assert handle.causal_logs == 1


class TestTraceRequired:
    @pytest.mark.parametrize(
        "backend, options",
        [("sim", {"capture_trace": False}), ("sim", {}), ("kv", {})],
        ids=["sim-capture-off", "sim-default", "kv-default"],
    )
    def test_profiling_an_uncaptured_run_raises(self, backend, options):
        # Without a captured trace there is nothing to profile: an
        # empty result would print a table with only its header.
        with open_cluster(backend, num_processes=3, seed=1, **options) as cluster:
            session = cluster.session(0)
            for i in range(3):
                session.write_sync(f"v{i}")
            with pytest.raises(ConfigurationError, match="capture_trace=True"):
                profile_operations(cluster)


class TestRetransmissionAccounting:
    def test_retransmissions_add_messages_but_not_rounds(self):
        from repro.common.config import ClusterConfig, NetworkConfig

        config = ClusterConfig(
            num_processes=3,
            network=NetworkConfig(drop_probability=0.5),
            retransmit_interval=1e-3,
            seed=11,
        )
        cluster = open_cluster(
            "sim", protocol="persistent", config=config, capture_trace=True
        )
        cluster.start()
        writer = cluster.session(0)
        handles = [writer.write_sync(f"x{i}", timeout=60.0) for i in range(5)]
        profiles = profile_operations(cluster)
        for handle in handles:
            profile = profiles[handle.op]
            # Loss changes message counts (a dropped request saves its
            # ack, a retransmission adds a full broadcast) but never
            # the round/step structure.
            assert profile.rounds == 2
            assert profile.communication_steps == 4
        counts = [profiles[handle.op].messages for handle in handles]
        assert max(counts) > 12  # at least one op had to retransmit


class TestFormatting:
    def test_single_table_with_one_header(self):
        results = measure_complexity(algorithms=("abd", "regular"), operations=2)
        text = format_complexity(results)
        assert text.count("algorithm") == 1
        assert "abd" in text and "regular" in text

    def test_format_summary_renders_ranges(self):
        cluster = open_cluster("sim", protocol="persistent", num_processes=3, capture_trace=True)
        cluster.start()
        cluster.session(0).write_sync("x")
        rows = summarize_profiles(profile_operations(cluster))
        assert "persistent" in format_summary("persistent", rows)
