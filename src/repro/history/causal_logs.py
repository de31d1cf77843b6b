"""Engine-level accounting of the paper's cost metric: causal logs.

Section I-B defines the metric: two logs are *causally related* when
one causally precedes the other (in Lamport's happened-before sense),
and the cost of an operation is the length of the longest chain of
causally related logs it performs -- because causally independent logs
proceed in parallel and cost one log latency together, while a chain of
``k`` causal logs costs ``k * lambda`` on the critical path.

The accounting is deliberately implemented *outside* the protocols, at
the effect-execution boundary, so an algorithm cannot misreport its own
cost.  Each process hosts a :class:`CausalDepthTracker`, and the
environments thread a *depth context* through every handler:

* a client invocation starts its operation at depth 0;
* a message is delivered with the sending handler's depth beside it;
* a :class:`~repro.protocol.base.Store` effect issued at depth ``d``
  completes at depth ``d + 1`` -- one more log on the chain;
* a handler's context is the maximum of the triggering event's depth
  and everything this process already logged *for the same operation*
  (Lamport's process order: a log performed here earlier precedes any
  later send from here, even a retransmitted acknowledgment);
* when the operation replies, its causal-log count is the maximum depth
  that reached the invoking process for that operation.

The tracker is a plain dict written only when a depth rises: it is
consulted for every message, and non-invoking processes need an
operation's depth for re-sent acknowledgments long after any point at
which they could know the operation replied, so it is bounded by
first-in-first-out eviction rather than freed at reply.  The host
(:class:`repro.protocol.host.NodeCore`) reads the dict itself for the
depth a completed store or an outgoing acknowledgment carries, and
raises it through :meth:`CausalDepthTracker.deepen`.

With this machinery the persistent algorithm measures exactly 2 causal
logs per write, the transient algorithm 1, reads at most 1 (0 without
concurrency), and the crash-stop baseline 0 -- Table/claims of
Section IV, reproduced as measurements rather than assertions.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.ids import OperationId

#: How many operations' depth data each process retains.  Operations
#: are short-lived; the cap only guards against unbounded growth in
#: very long soak runs.
DEFAULT_RETENTION = 4096


class CausalDepthTracker:
    """Per-process bookkeeping of operation causal-log depths.

    A plain dict from operation to the deepest chain seen here, written
    only when a depth rises (an absent operation reads as depth 0).
    Past ``retention`` operations the oldest-*inserted* one is evicted,
    observed since or not: one still retransmitting by then reads as
    depth 0 again (under-reported), so keep ``retention`` far above
    what can be in flight at once.
    """

    def __init__(self, retention: int = DEFAULT_RETENTION):
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self._retention = retention
        #: Operation -> deepest chain seen here (absent: 0; ``None`` is
        #: never a key).  Hosts may read it directly, and bind its
        #: ``get``: :meth:`reset` clears it in place.  Only this class
        #: writes it, so retention holds.
        self.depths: Dict[OperationId, int] = {}

    def observe(self, op: Optional[OperationId], depth: int) -> int:
        """Fold an incoming event's depth into the operation's record.

        Returns the handler context: the maximum of the event's depth
        and anything previously recorded here for the same operation.
        For events outside any operation (``op is None``) the event
        depth passes through unchanged.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if op is None:
            return depth
        known = self.depths.get(op, 0)
        if depth > known:
            self.deepen(op, depth)
            return depth
        return known

    def reset(self) -> None:
        """Forget everything (used at crash: volatile bookkeeping)."""
        self.depths.clear()

    def deepen(self, op: OperationId, depth: int) -> None:
        """Raise ``op``'s chain to ``depth``, which the caller checked
        exceeds the one recorded; the oldest operation makes room."""
        depths = self.depths
        if op not in depths and len(depths) >= self._retention:
            del depths[next(iter(depths))]
        depths[op] = depth

