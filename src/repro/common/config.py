"""Declarative configuration for clusters, networks and storage.

Defaults are calibrated to the paper's testbed (Section V-A): a 100 Mb/s
local area network of Pentium IV workstations where a message transits
between workstations in about 0.1 ms and logging synchronously to a
local IDE disk takes about twice as long.  All durations are seconds.
Durations and rates are checked as ``not x >= 0``, which NaN fails too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError

#: One microsecond, for readable arithmetic on calibrated constants.
MICROSECOND = 1e-6

#: Message transit time between two workstations on the paper's LAN.
PAPER_DELTA = 100 * MICROSECOND

#: Synchronous single-log latency on the paper's IDE disks ("logging a
#: single byte on a local disk might take twice as long" as delta).
PAPER_LAMBDA = 200 * MICROSECOND

#: 100 Mb/s Ethernet in bytes per second.
PAPER_NETWORK_BANDWIDTH = 100e6 / 8

#: Sustained sequential write bandwidth of an early-2000s IDE disk.
PAPER_DISK_BANDWIDTH = 25e6

#: Largest datagram the paper's UDP transport can carry (Section V-B).
UDP_MAX_PAYLOAD = 64 * 1024


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the (fair-lossy) message-passing substrate.

    The one-way delay of a message of ``size`` bytes is::

        base_delay + size / bandwidth + jitter

    where jitter is drawn uniformly from ``[0, max_jitter]``.  Loss,
    duplication and reordering model the fair-lossy channels of the
    model section: a message sent infinitely often to a correct process
    is received infinitely often.
    """

    base_delay: float = PAPER_DELTA
    bandwidth: float = PAPER_NETWORK_BANDWIDTH
    max_jitter: float = 0.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    max_payload: int = UDP_MAX_PAYLOAD
    #: Sender-side cost per transmission (system call, NIC serialization).
    #: A broadcast to N processes occupies the sender N times this long,
    #: which is what makes latency grow gently with cluster size in the
    #: paper's top graph of Figure 6.
    send_overhead: float = 5 * MICROSECOND

    def __post_init__(self) -> None:
        if not self.base_delay >= 0:
            raise ConfigurationError("base_delay must be >= 0")
        if not self.send_overhead >= 0:
            raise ConfigurationError("send_overhead must be >= 0")
        if not self.bandwidth > 0:
            raise ConfigurationError("bandwidth must be > 0")
        if not self.max_jitter >= 0:
            raise ConfigurationError("max_jitter must be >= 0")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError("drop_probability must be in [0, 1)")
        if not 0.0 <= self.duplicate_probability < 1.0:
            raise ConfigurationError("duplicate_probability must be in [0, 1)")
        if self.max_payload <= 0:
            raise ConfigurationError("max_payload must be > 0")


@dataclass(frozen=True)
class StorageConfig:
    """Parameters of the synchronous stable-storage substrate.

    Logging ``size`` bytes costs::

        base_latency + size / bandwidth + jitter

    mirroring the linear growth the paper measures in Figure 6 (bottom).
    The storage is synchronous: the ``store`` primitive only completes
    once the data is durable, as required to preserve even transient
    atomicity (Section V-A).
    """

    base_latency: float = PAPER_LAMBDA
    bandwidth: float = PAPER_DISK_BANDWIDTH
    max_jitter: float = 0.0

    def __post_init__(self) -> None:
        if not self.base_latency >= 0:
            raise ConfigurationError("base_latency must be >= 0")
        if not self.bandwidth > 0:
            raise ConfigurationError("bandwidth must be > 0")
        if not self.max_jitter >= 0:
            raise ConfigurationError("max_jitter must be >= 0")


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of one emulated shared-memory cluster."""

    num_processes: int = 3
    network: NetworkConfig = field(default_factory=NetworkConfig)
    storage: StorageConfig = field(default_factory=StorageConfig)
    #: How long a process waits before retransmitting an unacknowledged
    #: round message (the ``repeat ... until`` loops of Figures 4 and 5).
    retransmit_interval: float = 20 * PAPER_DELTA
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ConfigurationError("num_processes must be >= 1")
        if not self.retransmit_interval > 0:
            raise ConfigurationError("retransmit_interval must be > 0")

    @property
    def majority(self) -> int:
        """Size of a majority quorum: ``ceil((n + 1) / 2)``."""
        return self.num_processes // 2 + 1
