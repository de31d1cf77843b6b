"""Black-box checkers for persistent and transient atomicity.

Given a recorded history (invocations, replies, crashes, recoveries),
these checkers decide whether it satisfies the paper's consistency
criteria by *constructing a witness*: a completion of the history plus
a legal sequential ordering of the completed operations that preserves
operation precedence (Section III).

Completion rules
----------------

A pending invocation (one with no matching reply -- the invoking
process crashed, or the run was cut short) may be:

* **absent** from the completion (the operation never took effect), or
* **completed** by placing a matching reply

  * *persistent atomicity* (Section III-B): before the **subsequent
    invocation of the same process**;
  * *transient atomicity* (Section III-C, "weak completion"): before
    the **subsequent write reply of the same process** -- this is what
    lets an interrupted write overlap the writer's next write.

Pending *reads* are always treated as absent: a read has no effect on
the register, so if any completion with the read present linearizes,
the completion without it does too.

Search
------

The precedence relation (op1 precedes op2 iff op1's reply -- actual or
latest-allowed -- comes before op2's invocation) is a partial order; a
witness is a linear extension of it, over some subset that keeps all
completed operations, in which every read returns the last written
value.  :func:`check_history` explores linear extensions with
memoized depth-first search.  Exponential in the worst case, so meant
for the unit/property tests' histories (tens of operations); for large
soak runs use :mod:`repro.history.register_checker`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.common.ids import OperationId
from repro.history.completion import pending_reply_bound
from repro.history.events import WRITE
from repro.history.history import History, OperationRecord

PERSISTENT = "persistent"
TRANSIENT = "transient"
CRITERIA = (PERSISTENT, TRANSIENT)

#: Safety valve: histories with more operations than this are rejected
#: with a clear error instead of hanging the test suite.
MAX_OPERATIONS = 64


def default_criterion(protocol: str) -> str:
    """The atomicity criterion ``protocol`` promises.

    Transient atomicity for the transient algorithm, persistent for
    every other one: what ``"atomic"`` and an omitted criterion mean.
    """
    return TRANSIENT if protocol == "transient" else PERSISTENT


def auto_method(num_operations: int) -> str:
    """The checker ``method="auto"`` picks for one register's history.

    The exhaustive black-box search while the history fits under
    :data:`MAX_OPERATIONS`, the near-linear white-box tag checker
    (:mod:`repro.history.register_checker`) beyond it.
    """
    return "blackbox" if num_operations <= MAX_OPERATIONS else "whitebox"


@dataclass
class AtomicityVerdict:
    """Outcome of an atomicity check."""

    ok: bool
    criterion: str
    #: Witness linearization (operation ids in order), when ``ok``.
    linearization: Optional[List[OperationId]] = None
    #: Pending operations the witness treats as absent, when ``ok``.
    dropped: Optional[List[OperationId]] = None
    #: Diagnostic for failures.
    reason: str = ""
    operations: int = 0

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class _Op:
    """Internal operation view with effective response position."""

    index: int  # dense id used in bitset-free frozensets
    record: OperationRecord
    #: Exclusive upper bound on the reply position, as an event index;
    #: ``math.inf`` when unconstrained.  For completed operations this
    #: is the actual reply index.
    response_bound: float = math.inf
    pending: bool = False

    def precedes(self, other: "_Op") -> bool:
        """Mandatory precedence: must this op linearize before ``other``?"""
        if self.pending:
            # Latest allowed reply position is just before the bound
            # event, so precedence holds only for operations invoked at
            # or after the bound.
            return self.response_bound <= other.record.invoke_index
        return self.response_bound < other.record.invoke_index


def check_persistent_atomicity(
    history: History, initial_value: Any = None
) -> AtomicityVerdict:
    """Check that ``history`` is persistent atomic (Section III-B)."""
    return check_history(history, PERSISTENT, initial_value=initial_value)


def check_transient_atomicity(
    history: History, initial_value: Any = None
) -> AtomicityVerdict:
    """Check that ``history`` is transient atomic (Section III-C)."""
    return check_history(history, TRANSIENT, initial_value=initial_value)


def check_history(
    history: History, criterion: str, initial_value: Any = None
) -> AtomicityVerdict:
    """Check ``history`` against ``criterion`` and return a verdict."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    history.assert_well_formed()
    records = history.operations()
    if len(records) > MAX_OPERATIONS:
        raise ValueError(
            f"history has {len(records)} operations; the exhaustive checker "
            f"is capped at {MAX_OPERATIONS} -- use the register_checker "
            f"for large runs"
        )
    ops = _build_ops(history, records, criterion)
    searcher = _LinearizationSearch(ops, initial_value)
    witness = searcher.search()
    if witness is not None:
        order, dropped = witness
        return AtomicityVerdict(
            ok=True,
            criterion=criterion,
            linearization=[ops[i].record.op for i in order],
            dropped=[ops[i].record.op for i in dropped],
            operations=len(records),
        )
    return AtomicityVerdict(
        ok=False,
        criterion=criterion,
        reason=(
            "no completion of the history is equivalent to a legal "
            "sequential history preserving operation precedence"
        ),
        operations=len(records),
    )


def _build_ops(
    history: History, records: Sequence[OperationRecord], criterion: str
) -> List[_Op]:
    events = history.events
    ops: List[_Op] = []
    for dense_index, record in enumerate(records):
        if not record.pending:
            ops.append(
                _Op(
                    index=dense_index,
                    record=record,
                    response_bound=float(record.reply_index),
                    pending=False,
                )
            )
            continue
        bound = pending_reply_bound(events, record, criterion)
        ops.append(
            _Op(index=dense_index, record=record, response_bound=bound, pending=True)
        )
    return ops


class _LinearizationSearch:
    """Memoized DFS for a legal linear extension of the precedence order."""

    def __init__(self, ops: List[_Op], initial_value: Any):
        self._ops = ops
        self._initial_value = initial_value
        n = len(ops)
        # Precompute mandatory predecessor sets.
        self._preds: List[Set[int]] = [set() for _ in range(n)]
        for a in ops:
            for b in ops:
                if a.index != b.index and a.precedes(b):
                    self._preds[b.index].add(a.index)
        self._failed: Set[Tuple[FrozenSet[int], Any]] = set()
        # Witness accumulators (valid when search succeeds).
        self._order: List[int] = []
        self._dropped: List[int] = []

    def search(self) -> Optional[Tuple[List[int], List[int]]]:
        remaining = frozenset(op.index for op in self._ops)
        if self._dfs(remaining, None):
            return list(self._order), list(self._dropped)
        return None

    def _dfs(self, remaining: FrozenSet[int], value_key: Optional[int]) -> bool:
        if not remaining:
            return True
        if all(self._ops[i].pending for i in remaining):
            # Everything left can be treated as absent.
            self._dropped.extend(sorted(remaining))
            return True
        state = (remaining, value_key)
        if state in self._failed:
            return False
        current_value = (
            self._initial_value
            if value_key is None
            else self._ops[value_key].record.value
        )
        for i in sorted(remaining):
            if self._preds[i] & remaining:
                continue  # a mandatory predecessor is still unplaced
            op = self._ops[i]
            rest = remaining - {i}
            if op.record.kind == WRITE:
                # Branch 1: linearize the write here.
                self._order.append(i)
                if self._dfs(rest, i):
                    return True
                self._order.pop()
                # Branch 2: a pending write may be absent.
                if op.pending:
                    self._dropped.append(i)
                    if self._dfs(rest, value_key):
                        return True
                    self._dropped.pop()
            else:
                if op.pending:
                    # Pending reads are always treated as absent.
                    self._dropped.append(i)
                    if self._dfs(rest, value_key):
                        return True
                    self._dropped.pop()
                elif self._values_equal(op.record.result, current_value):
                    self._order.append(i)
                    if self._dfs(rest, value_key):
                        return True
                    self._order.pop()
        self._failed.add(state)
        return False

    @staticmethod
    def _values_equal(a: Any, b: Any) -> bool:
        return a == b
