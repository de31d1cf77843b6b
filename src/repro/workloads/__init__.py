"""Closed-loop workload drivers for experiments, benchmarks and scenarios.

Reproduces the paper's closed-loop pattern -- each client issues an
operation, waits for the reply, issues the next -- on the simulator,
where "waiting" means chaining invocations off completion callbacks so
clients stay concurrent in virtual time.  Two drivers:

* :class:`~repro.workloads.generators.WorkloadRunner` /
  :func:`~repro.workloads.generators.run_closed_loop` -- per-process
  operation plans against the single register of a simulated cluster
  (``open_cluster(backend="sim")``, :class:`~repro.api.sim.SimBackend`);
* :class:`~repro.workloads.kv.KVWorkloadRunner` /
  :func:`~repro.workloads.kv.run_kv_closed_loop` -- N clients drawing
  :class:`~repro.workloads.kv.ZipfianKeys` against the sharded store
  (``open_cluster(backend="kv")``, :class:`~repro.api.kv.KVBackend`).

Both are crash-aware (an operation aborted by its coordinator's crash
is counted and the client carries on) and fully seeded; the scenario
layer (:mod:`repro.scenarios`) composes them into multi-phase runs.
"""

from repro.workloads.generators import (
    ClientPlan,
    OperationMix,
    UniqueValues,
    WorkloadReport,
    WorkloadRunner,
    run_closed_loop,
)
from repro.workloads.kv import (
    KVWorkloadReport,
    KVWorkloadRunner,
    ZipfianKeys,
    run_kv_closed_loop,
)

__all__ = [
    "ClientPlan",
    "KVWorkloadReport",
    "KVWorkloadRunner",
    "OperationMix",
    "UniqueValues",
    "WorkloadReport",
    "WorkloadRunner",
    "ZipfianKeys",
    "run_closed_loop",
    "run_kv_closed_loop",
]
