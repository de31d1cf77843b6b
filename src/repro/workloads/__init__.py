"""The closed-loop workload runner for experiments, benchmarks and scenarios.

Reproduces the paper's closed-loop pattern -- each client issues an
operation, waits for the reply, issues the next -- on any backend's
clock, where "waiting" means chaining invocations off completion
callbacks so clients stay concurrent.  One runner,
:class:`~repro.workloads.generators.WorkloadRunner`, drives
:class:`~repro.workloads.generators.Client` objects that differ only
in how they draw their next operation:

* :func:`~repro.workloads.generators.planned` /
  :func:`~repro.workloads.generators.run_closed_loop` -- fixed
  per-process kind plans against a cluster's default register;
* :func:`~repro.workloads.kv.zipf_clients` /
  :func:`~repro.workloads.kv.run_kv_closed_loop` -- N clients drawing
  :class:`~repro.workloads.kv.ZipfianKeys` as they issue, normally
  against the sharded store (``open_cluster(backend="kv")``,
  :class:`~repro.api.kv.KVBackend`).

Every client is crash-aware (it waits out a down or busy process, and
an operation aborted by its coordinator's crash is counted and the
client carries on) and fully seeded; the scenario layer
(:mod:`repro.scenarios`) composes them into multi-phase runs.
"""

from repro.workloads.generators import (
    Client,
    ClientPlan,
    OperationMix,
    UniqueValues,
    WorkloadReport,
    WorkloadRunner,
    planned,
    run_closed_loop,
)
from repro.workloads.kv import (
    ZipfianKeys,
    run_kv_closed_loop,
    zipf_clients,
)

__all__ = [
    "Client",
    "ClientPlan",
    "OperationMix",
    "UniqueValues",
    "WorkloadReport",
    "WorkloadRunner",
    "ZipfianKeys",
    "planned",
    "run_closed_loop",
    "run_kv_closed_loop",
    "zipf_clients",
]
