"""Continuous invariant checking over a running simulation.

The atomicity checkers judge a run after the fact; the
:class:`InvariantMonitor` watches it *while it happens*, failing fast
at the first trace event where a structural invariant of the
algorithms breaks.  This catches bugs close to their cause (e.g. an
acknowledgment sent before durability) instead of as a mysterious
non-linearizable history thousands of events later.

Monitored invariants (all are consequences of the algorithms in
Figures 4/5 and of the model):

* **tag monotonicity**: a process's volatile tag never decreases
  except by crashing (volatile state is wiped to bottom, then rebuilt
  from stable storage during recovery);
* **durability lag**: ``durable_tag <= tag`` always -- stable storage
  can lag volatile state, never lead it;
* **stable-written consistency**: the ``written`` record in stable
  storage matches the process's ``durable_tag`` while it is up;
* **quorum sanity**: an operation never counts more responders than
  processes.

Use::

    cluster = SimCluster(...)
    monitor = InvariantMonitor(cluster)
    cluster.start()
    ...
    monitor.assert_clean()
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ReproError
from repro.common.timestamps import Tag, bottom_tag
from repro.protocol.two_round import KEY_WRITTEN, TwoRoundRegisterProtocol
from repro.obs import tracing
from repro.obs.tracing import TraceEvent


class InvariantViolation(ReproError):
    """A structural invariant broke during the run."""


class InvariantMonitor:
    """Watches every trace event and validates node-level invariants."""

    def __init__(self, cluster, fail_fast: bool = True):
        self._cluster = cluster
        self._fail_fast = fail_fast
        self._last_tag: Dict[int, Tag] = {
            node.pid: bottom_tag() for node in cluster.nodes
        }
        self.violations: List[str] = []
        self.events_checked = 0
        self._unsubscribe = cluster.trace.subscribe(self._on_event)

    def close(self) -> None:
        """Stop monitoring."""
        self._unsubscribe()

    def assert_clean(self) -> None:
        """Raise if any violation was recorded (non-fail-fast mode)."""
        if self.violations:
            raise InvariantViolation(
                f"{len(self.violations)} invariant violations; first: "
                f"{self.violations[0]}"
            )

    # -- internals ---------------------------------------------------------

    def _report(self, message: str, event: TraceEvent) -> None:
        full = f"at {event.time * 1e6:.1f}us ({event.kind} p{event.pid}): {message}"
        self.violations.append(full)
        if self._fail_fast:
            raise InvariantViolation(full)

    def _on_event(self, event: TraceEvent) -> None:
        self.events_checked += 1
        for node in self._cluster.nodes:
            protocol = node.protocol
            if not isinstance(protocol, TwoRoundRegisterProtocol):
                continue
            if event.kind == tracing.CRASH and event.pid == node.pid:
                # The crash wipes volatile state; reset the watermark.
                self._last_tag[node.pid] = bottom_tag()
                continue
            if node.crashed:
                continue
            self._check_durability_lag(node, protocol, event)
            self._check_tag_monotonic(node, protocol, event)
            self._check_stable_written(node, protocol, event)
            self._check_quorum_sanity(node, protocol, event)

    def _check_durability_lag(self, node, protocol, event) -> None:
        if protocol.durable_tag > protocol.tag:
            self._report(
                f"p{node.pid}: durable tag {protocol.durable_tag} ahead of "
                f"volatile tag {protocol.tag}",
                event,
            )

    def _check_tag_monotonic(self, node, protocol, event) -> None:
        last = self._last_tag[node.pid]
        if protocol.tag < last:
            self._report(
                f"p{node.pid}: volatile tag went backwards "
                f"({last} -> {protocol.tag}) without a crash",
                event,
            )
        else:
            self._last_tag[node.pid] = protocol.tag

    def _check_stable_written(self, node, protocol, event) -> None:
        if not protocol.LOGS_ON_ADOPT:
            return
        record = node.storage.retrieve(KEY_WRITTEN)
        if record is None:
            return
        stable_tag = Tag.from_tuple(record[0])
        # The record lands on disk an instant before the protocol's
        # completion handler runs, so stable may momentarily lead
        # ``durable_tag`` -- but it must never trail it: ``durable_tag``
        # is only ever set from completed logs of this very record.
        if stable_tag < protocol.durable_tag:
            self._report(
                f"p{node.pid}: stable written tag {stable_tag} trails "
                f"durable_tag {protocol.durable_tag}",
                event,
            )

    def _check_quorum_sanity(self, node, protocol, event) -> None:
        tracker = getattr(protocol, "_tracker", None)
        if tracker is None:
            return
        if tracker.responders > self._cluster.config.num_processes:
            self._report(
                f"p{node.pid}: {tracker.responders} responders exceed "
                f"cluster size",
                event,
            )
