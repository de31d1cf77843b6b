"""repro -- Robust emulations of shared memory in a crash-recovery model.

A faithful, executable reproduction of Guerraoui & Levy, *Robust
Emulations of Shared Memory in a Crash-Recovery Model* (ICDCS 2004):

* the log-optimal **persistent** and **transient** atomic register
  emulations (Figures 4 and 5 of the paper) plus the crash-stop
  baselines they extend (ABD, Lynch-Shvartsman);
* a deterministic discrete-event simulator calibrated to the paper's
  testbed, and a UDP runtime on a caller-driven selector loop running
  the same protocol code;
* black-box and white-box checkers for the paper's two consistency
  criteria, and engine-level measurement of the paper's cost metric
  (causal logs per operation);
* one unified client API (:mod:`repro.api`): ``open_cluster`` returns
  a backend-agnostic ``Cluster`` -- sessions, fault verbs, clock
  control and a merged ``check()`` verdict -- over the simulator, the
  KV store, or the live runtime, with per-backend capability flags;
* a sharded key-value store (:mod:`repro.kv`) multiplexing many
  register instances over one cluster, with batching and per-key
  atomicity checking;
* a declarative scenario suite (:mod:`repro.scenarios`): named,
  seed-reproducible fault/workload programs -- rolling crashes,
  partitions, loss bursts, the 100k-operation soak -- with
  incremental verification (``python -m repro soak --list``);
* experiment harnesses regenerating every figure of the evaluation.

Quickstart -- one front door over every backend (:mod:`repro.api`)::

    from repro import open_cluster

    with open_cluster(backend="sim", protocol="persistent", seed=7) as c:
        writer, reader = c.session(0), c.session(1)
        writer.write_sync("hello")
        assert reader.read_sync() == "hello"
        c.crash(0)
        c.recover(0)
        assert c.check().ok

Swap ``backend="sim"`` for ``"kv"`` (the sharded store) or ``"live"``
(real UDP + fsync) and the same program runs unchanged; on the store,
``key=`` addresses one key and ``check()`` judges every key::

    with open_cluster(backend="kv", num_processes=5, num_shards=8) as kv:
        kv.session(0).write_sync({"name": "ada"}, key="user:42")
        assert kv.session(1).read_sync(key="user:42") == {"name": "ada"}
        assert kv.check().ok
"""

from repro.api import (
    Cluster,
    OpHandle,
    Session,
    Verdict,
    open_cluster,
)
from repro.common.config import (
    ClusterConfig,
    NetworkConfig,
    StorageConfig,
    PAPER_DELTA,
    PAPER_LAMBDA,
)
from repro.common.errors import (
    CapabilityError,
    ConfigurationError,
    NotRecoveredError,
    OperationAborted,
    ProcessCrashed,
    ProtocolError,
    ReproError,
    StorageError,
    TransportError,
)
from repro.common.timestamps import Tag, bottom_tag
from repro.common.values import SizedValue
from repro.history.checker import (
    AtomicityVerdict,
    check_persistent_atomicity,
    check_transient_atomicity,
)
from repro.history.history import History
from repro.history.partition import partition_history
from repro.kv import HashShardMap
from repro.protocol.registry import PROTOCOLS, get_protocol_class

__version__ = "1.1.0"

#: Served on first use (PEP 562): :mod:`repro.scenarios` pulls in the
#: fleet's process pool, which a cluster user never needs.
_SCENARIO_NAMES = frozenset({
    "RandomCrashPlan", "SCENARIOS", "Scenario", "ScenarioResult",
    "get_scenario", "list_scenarios", "run_scenario",
})


def __getattr__(name: str):
    if name in _SCENARIO_NAMES:
        import repro.scenarios

        return getattr(repro.scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AtomicityVerdict",
    "CapabilityError",
    "Cluster",
    "ClusterConfig",
    "ConfigurationError",
    "HashShardMap",
    "History",
    "NetworkConfig",
    "NotRecoveredError",
    "OpHandle",
    "OperationAborted",
    "PAPER_DELTA",
    "PAPER_LAMBDA",
    "PROTOCOLS",
    "ProcessCrashed",
    "ProtocolError",
    "RandomCrashPlan",
    "ReproError",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "Session",
    "SizedValue",
    "StorageConfig",
    "StorageError",
    "Tag",
    "TransportError",
    "Verdict",
    "bottom_tag",
    "check_persistent_atomicity",
    "check_transient_atomicity",
    "get_protocol_class",
    "get_scenario",
    "list_scenarios",
    "open_cluster",
    "partition_history",
    "run_scenario",
    "__version__",
]
