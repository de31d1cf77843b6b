"""Unit tests for configuration objects."""

import pytest

from repro.common.config import (
    ClusterConfig,
    NetworkConfig,
    PAPER_DELTA,
    PAPER_LAMBDA,
    StorageConfig,
    UDP_MAX_PAYLOAD,
)
from repro.common.errors import ConfigurationError


class TestNetworkConfig:
    def test_defaults_match_paper_calibration(self):
        config = NetworkConfig()
        assert config.base_delay == pytest.approx(100e-6)
        assert config.max_payload == 64 * 1024

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(base_delay=-1.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(bandwidth=0)

    def test_rejects_certain_loss(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(drop_probability=1.0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(max_jitter=-0.1)

    def test_rejects_negative_send_overhead(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(send_overhead=-1e-6)

    def test_rejects_invalid_duplicate_probability(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(duplicate_probability=1.5)


class TestStorageConfig:
    def test_default_log_latency_is_twice_the_message_delay(self):
        # "logging a single byte on a local disk might take twice as long"
        assert PAPER_LAMBDA == pytest.approx(2 * PAPER_DELTA)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            StorageConfig(base_latency=-1e-6)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigurationError):
            StorageConfig(bandwidth=0)


class TestClusterConfig:
    @pytest.mark.parametrize(
        "n,majority", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (7, 4), (9, 5)]
    )
    def test_majority_is_ceil_half_plus(self, n, majority):
        assert ClusterConfig(num_processes=n).majority == majority

    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_processes=0)

    def test_rejects_non_positive_retransmit_interval(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(retransmit_interval=0.0)

    def test_configs_are_immutable(self):
        config = ClusterConfig()
        with pytest.raises(AttributeError):
            config.num_processes = 10

    def test_udp_limit_constant(self):
        assert UDP_MAX_PAYLOAD == 65536


#: Every duration and rate field, with a value its check refuses.
TIME_AND_RATE_FIELDS = [
    (NetworkConfig, "base_delay", -1.0),
    (NetworkConfig, "bandwidth", 0.0),
    (NetworkConfig, "max_jitter", -0.1),
    (NetworkConfig, "send_overhead", -1e-6),
    (StorageConfig, "base_latency", -1e-6),
    (StorageConfig, "bandwidth", 0.0),
    (StorageConfig, "max_jitter", -0.1),
    (ClusterConfig, "retransmit_interval", 0.0),
]


@pytest.mark.parametrize("cls, name, refused", TIME_AND_RATE_FIELDS)
def test_a_nan_time_or_rate_is_refused_like_an_out_of_range_one(cls, name, refused):
    # A NaN delay passes every ``x < 0`` check and then sends a virtual
    # run down the kernel's live branch, which has no clock to read.
    with pytest.raises(ConfigurationError) as out_of_range:
        cls(**{name: refused})
    with pytest.raises(ConfigurationError) as nan:
        cls(**{name: float("nan")})
    assert str(nan.value) == str(out_of_range.value)
