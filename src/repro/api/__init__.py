"""One front door: the unified client API over every backend.

The repository hosts the register three ways -- the deterministic
simulator (:class:`~repro.api.sim.SimBackend`), the sharded KV store
on that simulator (:mod:`repro.kv`) and the UDP runtime on a
caller-driven selector loop (:mod:`repro.runtime`).  :mod:`repro.api` puts one vocabulary in front
of all of them::

    from repro.api import open_cluster

    with open_cluster(backend="sim", protocol="persistent", seed=7) as c:
        writer, reader = c.session(0), c.session(1)
        writer.write_sync("hello")
        assert reader.read_sync() == "hello"
        c.crash(0)
        c.recover(0)
        assert c.check(criterion="atomic").ok

Swap ``backend="sim"`` for ``"kv"`` or ``"live"`` and the same program
runs against the sharded store or real UDP sockets.  Differences are
declared through :attr:`Cluster.capabilities` -- ``virtual_time``,
``sharding``, ``crash_injection``, ``trace``, ``storage_faults``,
``link_faults`` -- and anything a backend
cannot do raises :class:`~repro.common.errors.CapabilityError` instead
of silently degrading.  Each backend owns its deployment; there is no
cluster class below the façade.  See ``docs/api.md`` for the full
guide and the capability matrix.
"""

from repro.api.base import (
    BACKENDS,
    BACKEND_NAMES,
    Cluster,
    Session,
    open_cluster,
)
from repro.api.kv import DEFAULT_KEY, KVBackend
from repro.api.sim import SimBackend
from repro.obs.metrics import MetricsSnapshot
from repro.api.types import (
    ALL_CAPABILITIES,
    CHECK_CRITERIA,
    CHECK_METHODS,
    CRASH_INJECTION,
    LINK_FAULTS,
    SHARDING,
    STORAGE_FAULTS,
    TRACE,
    VIRTUAL_TIME,
    ClusterStats,
    OpHandle,
    Verdict,
)


def __getattr__(name: str):
    # Served on first use (PEP 562): the live backend pulls in sockets,
    # select and the runtime, which a simulator user never needs.
    if name == "LiveBackend":
        from repro.api.live import LiveBackend

        return LiveBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_CAPABILITIES",
    "BACKENDS",
    "BACKEND_NAMES",
    "CHECK_CRITERIA",
    "CHECK_METHODS",
    "CRASH_INJECTION",
    "Cluster",
    "ClusterStats",
    "DEFAULT_KEY",
    "KVBackend",
    "LINK_FAULTS",
    "LiveBackend",
    "MetricsSnapshot",
    "OpHandle",
    "SHARDING",
    "STORAGE_FAULTS",
    "Session",
    "SimBackend",
    "TRACE",
    "VIRTUAL_TIME",
    "Verdict",
    "open_cluster",
]
