"""Deterministic discrete-event simulation substrate.

This package emulates the paper's testbed in software:

* :mod:`repro.sim.kernel` -- virtual clock and event queue;
* :mod:`repro.sim.network` -- fair-lossy message-passing channels with
  size-dependent delays, drops, duplication, partitions and slow-link
  penalties;
* :mod:`repro.sim.storage` -- per-process stable storage whose contents
  survive crashes while volatile state does not;
* :mod:`repro.sim.node` -- drives the shared process host
  (:mod:`repro.protocol.host`) from the kernel, network and storage
  above;
* :mod:`repro.sim.failures` -- crash/recovery schedules and adversaries.

The trace vocabulary the engine emits into lives in
:mod:`repro.obs.tracing`; ``Trace``, ``TraceEvent`` and ``NULL_TRACE``
are re-exported here.

Everything is deterministic given a seed: the kernel breaks ties by
insertion order, and all randomness flows from one seeded generator.
"""

from repro.sim.invariants import InvariantMonitor, InvariantViolation
from repro.sim.kernel import EventHandle, Kernel
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.sim.storage import SimStableStorage
from repro.obs.tracing import NULL_TRACE, Trace, TraceEvent

__all__ = [
    "EventHandle",
    "InvariantMonitor",
    "InvariantViolation",
    "Kernel",
    "NULL_TRACE",
    "SimNetwork",
    "SimNode",
    "SimStableStorage",
    "Trace",
    "TraceEvent",
]
