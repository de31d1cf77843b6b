"""Size-dependent message delay model.

The paper's testbed is a 100 Mb/s LAN where a small message transits in
about 0.1 ms, and Figure 6 (bottom) shows write latency growing linearly
with payload size up to the 64 KB UDP limit.  This module provides the
linear cost model that underlies both observations::

    delay(size) = base_delay + size / bandwidth + jitter

Instances are pure: they compute delays from a caller-provided random
stream so that simulation runs are reproducible from their seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.config import NetworkConfig


@dataclass(frozen=True)
class DelaySample:
    """One sampled delay, decomposed for tracing and experiments."""

    base: float
    transmission: float
    jitter: float

    @property
    def total(self) -> float:
        """The full one-way delay in seconds."""
        return self.base + self.transmission + self.jitter


class DelayModel:
    """Computes one-way message delays under a :class:`NetworkConfig`.

    The reference statement of the channel's arithmetic:
    :class:`repro.sim.network.SimNetwork` inlines the same formula and
    the same rng consumption on its transmit path (a seeded test holds
    the two to equal delivery times and draws) and calls only
    :meth:`check_size` here.
    """

    def __init__(self, config: NetworkConfig):
        self._config = config
        self._base_delay = config.base_delay
        self._bandwidth = config.bandwidth
        self._max_jitter = config.max_jitter
        self._max_payload = config.max_payload
        self._drop_probability = config.drop_probability
        self._duplicate_probability = config.duplicate_probability

    @property
    def config(self) -> NetworkConfig:
        return self._config

    def check_size(self, size: int) -> None:
        """Raise :class:`ValueError` unless the transport can carry ``size``.

        The paper notes a UDP packet cannot carry more than 64 KB and
        that chunking would change the algorithm, so oversized sends
        are a caller bug.
        """
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        if size > self._max_payload:
            raise ValueError(
                f"message of {size} bytes exceeds the transport maximum "
                f"of {self._max_payload} bytes"
            )

    def sample(self, size: int, rng: random.Random) -> DelaySample:
        """Sample the delay of a ``size``-byte message.

        ``size`` counts the application payload; per-packet framing is
        folded into ``base_delay``.  Raises :class:`ValueError` for
        sizes :meth:`check_size` rejects.
        """
        self.check_size(size)
        jitter = 0.0
        if self._max_jitter > 0.0:
            jitter = rng.uniform(0.0, self._max_jitter)
        return DelaySample(
            base=self._base_delay,
            transmission=size / self._bandwidth,
            jitter=jitter,
        )

    def mean_delay(self, size: int) -> float:
        """Expected delay for a ``size``-byte message (no sampling)."""
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        return (
            self._base_delay
            + size / self._bandwidth
            + self._max_jitter / 2.0
        )

    def should_drop(self, rng: random.Random) -> bool:
        """Decide whether a single transmission is lost."""
        if self._drop_probability == 0.0:
            return False
        return rng.random() < self._drop_probability

    def should_duplicate(self, rng: random.Random) -> bool:
        """Decide whether a single transmission is duplicated."""
        if self._duplicate_probability == 0.0:
            return False
        return rng.random() < self._duplicate_probability
