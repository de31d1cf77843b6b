"""The declarative scenario model: phases and spec.

A :class:`Scenario` is data, not code: which store front-end to drive
(the single register or the sharded KV store), how many processes, a
sequence of :class:`WorkloadPhase` entries -- each a closed-loop
workload mix plus the faults armed when the phase opens -- and the
runner checks the history after every phase.  :func:`repro.scenarios.runner.run_scenario`
executes a spec against any protocol with any seed and operation
budget; the named library lives in :mod:`repro.scenarios.library`.

Phases carry **weights**, not absolute operation counts: the runner
splits the run's total operation budget (``--ops``) across phases
proportionally, so the same scenario scales from a CI smoke run to a
100k-operation soak without edits.  Fault times inside a phase are
virtual seconds relative to the phase opening, which keeps adversarial
timing meaningful at any budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.scenarios.faults import FaultAction

#: Store front-ends a scenario can drive.
STORE_REGISTER = "register"
STORE_KV = "kv"
STORES = (STORE_REGISTER, STORE_KV)

#: Operation budget per scenario under ``--quick`` (CI smoke sizing).
QUICK_OPS = 150


@dataclass(frozen=True)
class WorkloadPhase:
    """One closed-loop workload segment of a scenario.

    ``weight`` is this phase's share of the scenario's total operation
    budget.  ``clients`` defaults to one per process for the register
    store and 16 for the KV store.  ``faults`` are armed the moment the
    phase opens, with times relative to that instant.  The key-universe
    knobs (``num_keys``, ``zipf_s``) only apply to KV scenarios.
    """

    name: str
    weight: float = 1.0
    read_fraction: float = 0.5
    clients: Optional[int] = None
    num_keys: int = 64
    zipf_s: float = 0.99
    faults: Tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError("phase weight must be > 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        if self.clients is not None and self.clients < 1:
            raise ConfigurationError("clients must be >= 1")
        if self.num_keys < 1:
            raise ConfigurationError("num_keys must be >= 1")


@dataclass(frozen=True)
class Scenario:
    """A named, seed-reproducible fault/workload/verification program."""

    name: str
    description: str
    phases: Tuple[WorkloadPhase, ...]
    store: str = STORE_REGISTER
    num_processes: int = 5
    default_protocol: str = "persistent"
    default_ops: int = 1_000
    default_seed: int = 0
    capture_trace: bool = False
    #: KV-only configuration.
    num_shards: int = 8
    batch_window: float = 0.0
    #: Checkpointing: virtual seconds between periodic checkpoints
    #: (``None`` disables them) and whether recovery bills a scan of
    #: the un-compacted log (see ``docs/recovery.md``).
    checkpoint_interval: Optional[float] = None
    recovery_scan: bool = False

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("a scenario needs at least one phase")
        if self.store not in STORES:
            raise ConfigurationError(f"unknown store {self.store!r}")
        if self.num_processes < 1:
            raise ConfigurationError("num_processes must be >= 1")
        if self.default_ops < 1:
            raise ConfigurationError("default_ops must be >= 1")

    @property
    def quick_ops(self) -> int:
        """The trimmed budget ``--quick`` runs this scenario with."""
        return min(self.default_ops, max(QUICK_OPS, len(self.phases)))

    @property
    def backend(self) -> str:
        """The :func:`repro.api.open_cluster` backend this store maps to."""
        return "kv" if self.store == STORE_KV else "sim"

    def backend_options(self) -> dict:
        """Extra ``open_cluster`` options the store needs.

        The checkpoint knobs are emitted only when set, so scenarios
        that predate them build byte-identical clusters (and keep
        their golden fingerprints).
        """
        options: dict = {}
        if self.store == STORE_KV:
            options["num_shards"] = self.num_shards
            options["batch_window"] = self.batch_window
        if self.checkpoint_interval is not None:
            options["checkpoint_interval"] = self.checkpoint_interval
        if self.recovery_scan:
            options["recovery_scan"] = True
        return options

    @property
    def check_method(self) -> str:
        """The façade checker method the runner verifies with.

        Per-key on the KV store; the white-box tag checker on the
        single register (scenario budgets exceed the exhaustive cap,
        and incremental per-phase re-checks need the near-linear one).
        """
        return "per-key" if self.store == STORE_KV else "whitebox"

    def split_ops(self, total_ops: int) -> Tuple[int, ...]:
        """Split ``total_ops`` across phases proportionally to weight.

        Every phase gets at least one operation; the largest phase
        absorbs the rounding remainder so the sum is exact.
        """
        if total_ops < len(self.phases):
            raise ConfigurationError(
                f"scenario {self.name!r} needs >= {len(self.phases)} operations"
            )
        total_weight = sum(phase.weight for phase in self.phases)
        shares = [
            max(1, int(total_ops * phase.weight / total_weight))
            for phase in self.phases
        ]
        largest = max(range(len(shares)), key=lambda i: shares[i])
        shares[largest] += total_ops - sum(shares)
        if shares[largest] < 1:  # pathological weights; keep the sum exact
            raise ConfigurationError("operation budget too small for the weights")
        return tuple(shares)
