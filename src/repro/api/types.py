"""Shared vocabulary of the unified façade: capabilities, handles, verdicts.

Everything a :class:`~repro.api.base.Cluster` returns to its callers is
here, backend-free:

* **capability flags** -- each backend declares a frozenset of what it
  can do (:data:`VIRTUAL_TIME`, :data:`SHARDING`,
  :data:`CRASH_INJECTION`, :data:`TRACE`, :data:`STORAGE_FAULTS`,
  :data:`LINK_FAULTS`), so callers branch on *capability*, never on
  backend type; :data:`FAULT_VERB_CAPABILITIES` says which flag gates
  each fault verb;
* :class:`OpHandle` -- the one handle of a submitted operation on
  every backend (``settled`` / ``result`` / ``error`` / ``latency`` /
  ``add_callback``); it is defined next to
  :class:`~repro.protocol.host.NodeCore`, which fills it in, and
  re-exported here;
* :class:`Verdict` -- the one merged verification outcome: the
  single-register :class:`~repro.history.checker.AtomicityVerdict`
  and the KV store's per-key checks share one shape;
* :class:`ClusterStats` -- the run-wide counters every backend can
  report (zeros where a counter does not exist).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.protocol.host import OpHandle as OpHandle  # re-exported

#: The clock is virtual and seeded: deterministic runs, timed fault steps.
VIRTUAL_TIME = "virtual_time"
#: Keys are spread over shard pipelines with per-shard batching.
SHARDING = "sharding"
#: Processes can be crashed and recovered by the caller (fault verbs).
CRASH_INJECTION = "crash_injection"
#: The backend can capture a structured event trace of the run.
TRACE = "trace"
#: Stable storage faults can be injected (corrupt / lose / slow verbs).
STORAGE_FAULTS = "storage_faults"
#: Links can be cut, made lossy or slowed (partition / heal / lose /
#: slow_link verbs).
LINK_FAULTS = "link_faults"

#: Every defined capability flag.
ALL_CAPABILITIES = frozenset(
    {VIRTUAL_TIME, SHARDING, CRASH_INJECTION, TRACE, STORAGE_FAULTS, LINK_FAULTS}
)

#: Fault verb -> the capability that gates it.  ``on_event`` arms a
#: trace-triggered step; the rest are the steps themselves.  The
#: scenario runner refuses a fault whose verbs the backend lacks, and
#: the public-API tests refuse a backend that implements a verb without
#: declaring its capability.
FAULT_VERB_CAPABILITIES = {
    "crash": CRASH_INJECTION,
    "recover": CRASH_INJECTION,
    "partition": LINK_FAULTS,
    "heal": LINK_FAULTS,
    "lose": LINK_FAULTS,
    "slow_link": LINK_FAULTS,
    "corrupt_record": STORAGE_FAULTS,
    "lose_stores": STORAGE_FAULTS,
    "slow_storage": STORAGE_FAULTS,
    "on_event": TRACE,
}

#: Consistency criteria ``Cluster.check`` accepts.  ``"atomic"`` maps
#: to the criterion the running protocol promises (transient for the
#: transient algorithm, persistent otherwise); the rest are explicit.
CHECK_CRITERIA = ("atomic", "persistent", "transient", "regular", "safe")

#: Checker methods ``Cluster.check`` accepts.  ``"auto"`` lets the
#: backend pick (exhaustive search under its cap, the near-linear
#: white-box checker beyond it; the KV backend always checks per key).
#: The hyphenated spellings a :class:`Verdict` reports ("black-box",
#: "white-box") are accepted as aliases, so a reported method can be
#: passed straight back in.
CHECK_METHODS = ("auto", "blackbox", "whitebox", "per-key")


@dataclass
class Verdict:
    """The merged outcome of one :meth:`~repro.api.base.Cluster.check`.

    One shape for every backend and criterion: the single-register
    checkers fill the scalar fields; the KV backend's per-key check
    additionally populates :attr:`per_key` (key -> child verdict) and
    folds the failures into :attr:`reason`.
    """

    ok: bool
    #: The criterion as requested ("atomic", "regular", ...).
    criterion: str
    #: The underlying criterion actually checked ("persistent",
    #: "transient", "regular", "safe").
    consistency: str
    #: Which checker ran: "black-box", "white-box" or "per-key".
    method: str
    #: Operations the verdict covers (for per-key checks: completed
    #: operations across all keys).
    operations: int = 0
    #: Human-readable diagnostic for failures ("" when ok).
    reason: str = ""
    #: Witness linearization (black-box successes only).
    linearization: Optional[List[Any]] = None
    #: Pending operations the witness treats as absent (black-box only).
    dropped: Optional[List[Any]] = None
    #: Per-key child verdicts (per-key checks only).
    per_key: Optional[Dict[str, "Verdict"]] = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failures(self) -> Dict[str, str]:
        """Failing keys -> diagnostics (empty for single-register checks)."""
        if not self.per_key:
            return {}
        return {
            key: child.reason
            for key, child in self.per_key.items()
            if not child.ok
        }

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"FAILED({self.reason!r})"
        keys = f", {len(self.per_key)} keys" if self.per_key is not None else ""
        return (
            f"Verdict({self.consistency}/{self.method}, "
            f"{self.operations} ops{keys}, {status})"
        )


@dataclass
class ClusterStats:
    """Run-wide counters of a cluster, uniform across backends.

    Counters a backend cannot measure stay zero; ``clock`` is virtual
    seconds on simulated backends and wall seconds on live.
    """

    clock: float = 0.0
    kernel_events: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    stores_completed: int = 0
    crashes: int = 0
    recoveries: int = 0
    #: Extra backend-specific counters, by name.
    extra: Dict[str, Any] = field(default_factory=dict)
