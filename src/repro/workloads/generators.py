"""The closed-loop runner, for any backend.

The paper's experiments are closed-loop: each workstation repeatedly
issues an operation, waits for it to return, and issues the next
(50 sequential writes in the first experiment).  :class:`WorkloadRunner`
reproduces that pattern on the cluster's clock, where "waiting" means
chaining the next invocation off the previous handle's completion
callback so that multiple clients stay concurrent.

The runner drives the unified façade (:mod:`repro.api`): it takes a
:class:`~repro.api.base.Cluster` and issues operations through
per-client :class:`~repro.api.base.Session` objects -- no
backend-specific calls, so it runs on any backend, the live one
included.  A :class:`Client` is a process, an operation count and a
``draw()`` of the next operation; :func:`planned` builds clients that
replay fixed kind lists, :func:`repro.workloads.kv.zipf_clients`
clients that draw zipfian keys as they go.

Clients are crash-aware: a client whose process is down, recovering or
busy waits and tries again, holding the operation it drew; an
operation aborted by its process's crash is counted and the client
carries on -- matching the model, where a recovered process simply
resumes its algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.api.types import OpHandle
from repro.common.errors import ConfigurationError, ProtocolError
from repro.history.events import READ, WRITE

#: How often a blocked client re-checks its process, seconds.
CLIENT_RETRY_INTERVAL = 1e-3

#: One operation as a client draws it: its kind and its register key
#: (``None`` is the backend's default register).
Operation = Tuple[str, Optional[str]]


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

    ``read_fraction`` of operations are reads; the rest are writes.
    """

    read_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")

    def draw(self, rng: random.Random) -> str:
        """One kind: a read with probability ``read_fraction``."""
        return READ if rng.random() < self.read_fraction else WRITE

    def plan(
        self, num_operations: int, rng: random.Random
    ) -> List[str]:
        """Draw a kind sequence of length ``num_operations``."""
        return [self.draw(rng) for _ in range(num_operations)]


@dataclass
class ClientPlan:
    """The operation sequence one client will execute."""

    pid: int
    kinds: List[str]

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in (READ, WRITE):
                raise ConfigurationError(f"unknown kind {kind!r}")


class Client(NamedTuple):
    """One closed-loop client: ``count`` operations through process ``pid``.

    ``draw()`` returns the next :data:`Operation` at the moment the
    client issues it, and is called once per operation.
    """

    pid: int
    count: int
    draw: Callable[[], Operation]


def planned(plans: Sequence[ClientPlan]) -> List[Client]:
    """Clients replaying fixed kind lists on the default register."""
    return [
        Client(plan.pid, len(plan.kinds), iter([(k, None) for k in plan.kinds]).__next__)
        for plan in plans
    ]


@dataclass
class WorkloadReport:
    """What happened when a workload ran."""

    issued: int = 0
    completed: int = 0
    aborted: int = 0
    #: Operations never invoked (the run ended first).
    unissued: int = 0
    #: Time the run occupied on the cluster's clock, seconds.
    duration: float = 0.0
    #: Completed-operation latencies, seconds (invocation to reply).
    latencies: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed operations per second of the cluster's clock."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


class WorkloadRunner:
    """Executes closed-loop clients concurrently on a cluster of any backend.

    Clients start in list order, and each issues its next operation
    from a fresh event after the last one settles.  ``values`` may be
    shared across runners (the phases of a scenario) so written values
    stay unique over the whole run.  The runner issues nothing, and
    its report stops counting, once :meth:`run` has returned.
    """

    def __init__(
        self,
        cluster,
        clients: Sequence[Client],
        values: Optional[UniqueValues] = None,
    ):
        self._cluster = cluster
        self._clients = list(clients)
        if any(client.count < 0 for client in self._clients):
            raise ConfigurationError("operation counts must be >= 0")
        # ``session`` rejects a pid the cluster does not have.
        self._sessions = [cluster.session(client.pid) for client in self._clients]
        self._remaining = [client.count for client in self._clients]
        # The operation each client drew but could not issue yet.
        self._held: List[Optional[Operation]] = [None] * len(self._clients)
        self._values = values if values is not None else UniqueValues()
        self._report = WorkloadReport()
        self._active = 0
        self._running = False

    def run(
        self,
        timeout: float = 60.0,
        poll_every: int = 1,
        max_events: int = 1_000_000,
    ) -> WorkloadReport:
        """Drive every client to completion (or for ``timeout`` of the cluster's clock).

        ``poll_every`` amortizes the drain predicate over a stride of
        kernel events (see :meth:`repro.common.kernel.Kernel.run_until`).
        With a stride, up to ``poll_every - 1`` leftover protocol
        events (e.g. timers) may execute after the last client settles
        -- harmless for the report, but it moves the stop position, so
        the default stays 1 for replay-exact runs (the determinism
        goldens capture the full event sequence).  ``max_events`` caps
        kernel callbacks; raise it for soak-scale workloads.
        """
        started_at = self._cluster.now
        self._running = True
        self._active = sum(1 for count in self._remaining if count)
        try:
            for index, count in enumerate(self._remaining):
                if count:
                    self._next_op(index)
            self._cluster.run_until(
                lambda: self._active == 0, timeout=timeout,
                poll_every=poll_every, max_events=max_events,
            )
        finally:
            self._running = False
        self._report.unissued = sum(self._remaining)
        self._report.duration = self._cluster.now - started_at
        return self._report

    # -- internal ----------------------------------------------------------

    def _next_op(self, index: int) -> None:
        if not self._running:
            return
        if not self._remaining[index]:
            self._active -= 1
            return
        session = self._sessions[index]
        operation = self._held[index] or self._clients[index].draw()
        kind, key = operation
        if not session.ready_for(key):
            # Process is down, recovering, or its register busy: hold
            # the operation and try again shortly.
            self._held[index] = operation
            self._cluster.defer(CLIENT_RETRY_INTERVAL, self._next_op, index)
            return
        try:
            if kind == WRITE:
                handle = session.write(self._values(session.pid), key)
            else:
                handle = session.read(key)
        except ProtocolError:
            # Lost a race with protocol-internal activity (or another
            # client on the same process); retry the same operation.
            self._held[index] = operation
            self._cluster.defer(CLIENT_RETRY_INTERVAL, self._next_op, index)
            return
        self._held[index] = None
        self._remaining[index] -= 1
        self._report.issued += 1
        handle.add_callback(lambda h, index=index: self._on_settled(index, h))

    def _on_settled(self, index: int, handle: OpHandle) -> None:
        if not self._running:
            return
        if handle.done:
            self._report.completed += 1
            latency = handle.latency
            if latency is not None:
                self._report.latencies.append(latency)
        else:
            self._report.aborted += 1
        # Invoke the next operation from a fresh kernel event rather
        # than inside the settling call stack.
        self._cluster.defer(0.0, self._next_op, index)


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
    return WorkloadRunner(cluster, planned(plans)).run(
        timeout=timeout, poll_every=poll_every
    )
