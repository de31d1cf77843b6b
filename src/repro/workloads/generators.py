"""Closed-loop workload drivers for any backend.

The paper's experiments are closed-loop: each workstation repeatedly
issues an operation, waits for it to return, and issues the next
(50 sequential writes in the first experiment).  The classes here
reproduce that pattern on the cluster's clock, where "waiting" means
chaining the next invocation off the previous handle's completion
callback so that multiple clients stay concurrent.

The runner drives the unified façade (:mod:`repro.api`): it takes a
:class:`~repro.api.base.Cluster` and issues operations through
per-process :class:`~repro.api.base.Session` objects -- no
backend-specific calls, so it runs on any backend, the live one
included.

Clients are crash-aware: when a client's operation aborts because its
process crashed, the client waits for the process to recover and then
continues with its remaining plan -- matching the model, where a
recovered process simply resumes its algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.api.types import OpHandle
from repro.common.errors import ConfigurationError, ProtocolError
from repro.history.events import READ, WRITE

#: How often a blocked client re-checks its process, seconds.
CLIENT_RETRY_INTERVAL = 1e-3


class UniqueValues:
    """Generates values that never repeat across the whole run.

    Unique values keep histories unambiguous: a read result identifies
    exactly one write, which both checkers rely on for precise
    diagnostics.
    """

    def __init__(self, prefix: str = "v"):
        self._prefix = prefix
        self._counter = 0

    def __call__(self, pid: int) -> str:
        value = f"{self._prefix}{self._counter}-p{pid}"
        self._counter += 1
        return value


@dataclass(frozen=True)
class OperationMix:
    """A randomized read/write mix.

    ``read_fraction`` of operations are reads; the rest are writes with
    values from ``value_factory``.
    """

    read_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")

    def plan(
        self, num_operations: int, rng: random.Random
    ) -> List[str]:
        """Draw a kind sequence of length ``num_operations``."""
        return [
            READ if rng.random() < self.read_fraction else WRITE
            for _ in range(num_operations)
        ]


@dataclass
class ClientPlan:
    """The operation sequence one client will execute."""

    pid: int
    kinds: List[str]

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in (READ, WRITE):
                raise ConfigurationError(f"unknown kind {kind!r}")


@dataclass
class WorkloadReport:
    """What happened when a workload ran."""

    handles: List[OpHandle] = field(default_factory=list)
    completed: int = 0
    aborted: int = 0
    #: Operations never invoked (the run ended first).
    unissued: int = 0

    @property
    def issued(self) -> int:
        return len(self.handles)


class WorkloadRunner:
    """Executes client plans concurrently on a cluster of any backend."""

    def __init__(
        self,
        cluster,
        plans: Sequence[ClientPlan],
        values: Optional[UniqueValues] = None,
    ):
        self._cluster = cluster
        self._plans = list(plans)
        self._sessions = {}
        for plan in self._plans:
            if not 0 <= plan.pid < self._cluster.num_processes:
                raise ConfigurationError(f"plan pid {plan.pid} out of range")
            self._sessions[plan.pid] = self._cluster.session(plan.pid)
        self._report = WorkloadReport()
        self._remaining = {plan.pid: list(plan.kinds) for plan in self._plans}
        self._active = 0
        # ``values`` may be shared across runners (e.g. the phases of a
        # scenario) so written values stay unique over the whole run.
        self._values = values if values is not None else UniqueValues()

    def run(
        self,
        timeout: float = 60.0,
        poll_every: int = 1,
        max_events: int = 1_000_000,
    ) -> WorkloadReport:
        """Drive all plans to completion (or for ``timeout`` of the cluster's clock).

        ``poll_every`` amortizes the drain predicate over a stride of
        kernel events (see :meth:`repro.common.kernel.Kernel.run_until`).
        With a stride, up to ``poll_every - 1`` leftover protocol
        events (e.g. timers) may execute after the last client settles
        -- harmless for the report, but it moves the stop position, so
        the default stays 1 for replay-exact runs (the determinism
        goldens capture the full event sequence).  ``max_events`` caps
        kernel callbacks; raise it for soak-scale plans.
        """
        self._active = sum(1 for kinds in self._remaining.values() if kinds)
        for plan in self._plans:
            if self._remaining[plan.pid]:
                self._next_op(plan.pid)
        self._cluster.run_until(
            lambda: self._active == 0, timeout=timeout, poll_every=poll_every,
            max_events=max_events,
        )
        self._report.unissued = sum(len(k) for k in self._remaining.values())
        return self._report

    # -- internal ----------------------------------------------------------

    def _next_op(self, pid: int) -> None:
        kinds = self._remaining[pid]
        if not kinds:
            self._active -= 1
            return
        session = self._sessions[pid]
        if not session.ready:
            # Process is down, recovering, or its recovery replay has
            # the machinery busy: try again shortly.
            self._cluster.defer(CLIENT_RETRY_INTERVAL, self._next_op, pid)
            return
        kind = kinds.pop(0)
        try:
            if kind == WRITE:
                handle = session.write(self._values(pid))
            else:
                handle = session.read()
        except ProtocolError:
            # Lost a race with protocol-internal activity; retry.
            kinds.insert(0, kind)
            self._cluster.defer(CLIENT_RETRY_INTERVAL, self._next_op, pid)
            return
        self._report.handles.append(handle)
        handle.add_callback(lambda h, pid=pid: self._on_settled(pid, h))

    def _on_settled(self, pid: int, handle: OpHandle) -> None:
        if handle.done:
            self._report.completed += 1
        else:
            self._report.aborted += 1
        # Invoke the next operation from a fresh kernel event rather
        # than inside the settling call stack.
        self._cluster.defer(0.0, self._next_op, pid)


def run_closed_loop(
    cluster,
    operations_per_client: int = 20,
    read_fraction: float = 0.5,
    pids: Optional[Iterable[int]] = None,
    seed: int = 0,
    timeout: float = 60.0,
    poll_every: int = 1,
) -> WorkloadReport:
    """Convenience wrapper: uniform random mix on the given processes."""
    if pids is None:
        pids = range(cluster.num_processes)
    rng = random.Random(seed)
    mix = OperationMix(read_fraction=read_fraction)
    plans = [
        ClientPlan(pid=pid, kinds=mix.plan(operations_per_client, rng))
        for pid in pids
    ]
    return WorkloadRunner(cluster, plans).run(timeout=timeout, poll_every=poll_every)
