"""Unit tests for the network latency model."""

import random

import pytest

from repro.common.config import NetworkConfig
from repro.net.delay import DelayModel


class TestDelayModel:
    def test_small_message_costs_base_delay(self):
        model = DelayModel(NetworkConfig(base_delay=1e-4, max_jitter=0.0))
        sample = model.sample(0, random.Random(0))
        assert sample.total == pytest.approx(1e-4)

    def test_transmission_grows_linearly_with_size(self):
        model = DelayModel(NetworkConfig(bandwidth=1e6, max_jitter=0.0))
        small = model.sample(1000, random.Random(0))
        large = model.sample(2000, random.Random(0))
        assert large.transmission == pytest.approx(2 * small.transmission)
        assert small.transmission == pytest.approx(1e-3)

    def test_jitter_bounded_by_configuration(self):
        model = DelayModel(NetworkConfig(max_jitter=5e-5))
        rng = random.Random(1)
        for _ in range(100):
            assert 0.0 <= model.sample(10, rng).jitter <= 5e-5

    def test_mean_delay_accounts_for_half_jitter(self):
        config = NetworkConfig(base_delay=1e-4, max_jitter=2e-5, bandwidth=1e9)
        model = DelayModel(config)
        assert model.mean_delay(0) == pytest.approx(1e-4 + 1e-5)

    def test_rejects_negative_size(self):
        model = DelayModel(NetworkConfig())
        with pytest.raises(ValueError):
            model.sample(-1, random.Random(0))

    def test_rejects_oversized_payload(self):
        model = DelayModel(NetworkConfig(max_payload=1024))
        with pytest.raises(ValueError):
            model.sample(2048, random.Random(0))

    def test_drop_decisions_match_probability(self):
        model = DelayModel(NetworkConfig(drop_probability=0.3))
        rng = random.Random(7)
        drops = sum(model.should_drop(rng) for _ in range(10_000))
        assert 0.25 < drops / 10_000 < 0.35

    def test_no_drops_when_probability_zero(self):
        model = DelayModel(NetworkConfig(drop_probability=0.0))
        rng = random.Random(7)
        assert not any(model.should_drop(rng) for _ in range(100))

    def test_duplicates_follow_probability(self):
        model = DelayModel(NetworkConfig(duplicate_probability=0.2))
        rng = random.Random(3)
        dups = sum(model.should_duplicate(rng) for _ in range(10_000))
        assert 0.15 < dups / 10_000 < 0.25
