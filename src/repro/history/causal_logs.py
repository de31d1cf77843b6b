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
first-in-first-out eviction rather than freed at reply.

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
        #: Operation -> deepest chain seen here (absent: 0).  Hosts may
        #: read it directly; only this class writes it, so retention holds.
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
            self._deepen(op, depth)
            return depth
        return known

    def record_store(self, op: Optional[OperationId], issue_depth: int) -> int:
        """Account one completed log issued at ``issue_depth``.

        Returns the depth of the completed store (``issue_depth + 1``),
        which becomes the context of the completion handler.
        """
        depth = issue_depth + 1
        if op is not None and depth > self.depths.get(op, 0):
            self._deepen(op, depth)
        return depth

    def outgoing_depth(self, op: Optional[OperationId], handler_depth: int) -> int:
        """Depth to stamp on a message sent from a handler.

        The maximum of the handler's own context and every log this
        process performed for the operation -- the latter covers
        acknowledgments re-sent after the original log (process order
        still makes the log causally precede the resent ack).
        """
        if op is None:
            return handler_depth
        known = self.depths.get(op, 0)
        return known if known > handler_depth else handler_depth

    def depth_of(self, op: OperationId) -> int:
        """Deepest causal log chain observed for ``op`` at this process."""
        return self.depths.get(op, 0)

    def reset(self) -> None:
        """Forget everything (used at crash: volatile bookkeeping)."""
        self.depths.clear()

    def _deepen(self, op: OperationId, depth: int) -> None:
        depths = self.depths
        if op not in depths and len(depths) >= self._retention:
            del depths[next(iter(depths))]
        depths[op] = depth


def summarize_causal_logs(counts: Dict[str, list]) -> Dict[str, Dict[str, float]]:
    """Aggregate per-kind causal-log counts into min/mean/max rows.

    ``counts`` maps an operation kind (``"read"``/``"write"``) to the
    list of measured causal-log counts.  Used by the log-complexity
    experiment to print the paper's claims as a table.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for kind, values in counts.items():
        if not values:
            continue
        summary[kind] = {
            "min": float(min(values)),
            "mean": sum(values) / len(values),
            "max": float(max(values)),
            "count": float(len(values)),
        }
    return summary
