"""Completion rules for pending invocations (Sections III-B and III-C).

Given a well-formed history, a *completion* decides the fate of each
pending invocation: it is either absent, or gets a matching reply
subject to a placement bound that differs between the two criteria:

* **complete** (persistent atomicity): the reply must appear before the
  subsequent *invocation* of the same process;
* **weakly complete** (transient atomicity): the reply must appear
  before the subsequent *write reply* of the same process.

This module computes those placement bounds; the checkers build their
precedence relation from them.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.history.events import HistoryEvent, Invoke, Reply, WRITE
from repro.history.history import OperationRecord

PERSISTENT = "persistent"
TRANSIENT = "transient"


def pending_reply_bound(
    events: Sequence[HistoryEvent], record: OperationRecord, criterion: str
) -> float:
    """Exclusive upper bound (event index) for a pending op's reply.

    Returns ``math.inf`` when nothing constrains the placement (the
    process never performs the bounding event again).
    """
    if criterion not in (PERSISTENT, TRANSIENT):
        raise ValueError(f"unknown criterion {criterion!r}")
    for index in range(record.invoke_index + 1, len(events)):
        event = events[index]
        if event.pid != record.pid:
            continue
        if criterion == PERSISTENT and isinstance(event, Invoke):
            return float(index)
        if (
            criterion == TRANSIENT
            and isinstance(event, Reply)
            and event.kind == WRITE
        ):
            return float(index)
    return math.inf

