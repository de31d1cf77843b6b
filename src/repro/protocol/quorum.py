"""Round-based majority-quorum collection.

Each operation of the algorithms runs one or two *rounds*: it
broadcasts a request and waits for acknowledgments from a majority
(the ``repeat ... until receive(... ) from ceil((n+1)/2) processes``
loops of Figures 4 and 5).  Channels are fair-lossy, so requests are
retransmitted periodically and acks may arrive duplicated, late, or
out of order.  :class:`RoundTracker` isolates the bookkeeping:

* each new round gets a fresh round number, so stale acks from an
  earlier round (or an earlier incarnation of the operation) are
  ignored;
* duplicate acks from the same responder count once;
* responses can carry data (tags, values); the tracker stores the first
  response per responder and exposes them when the quorum is reached.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, List, Optional, Tuple, TypeVar

from repro.common.ids import ProcessId

T = TypeVar("T")


class RoundTracker(Generic[T]):
    """Tracks responders for the current round of one process."""

    def __init__(self, quorum_size: int):
        if quorum_size < 1:
            raise ValueError("quorum_size must be >= 1")
        self.quorum_size = quorum_size
        self._round_no = 0
        self._active = False
        self._responses: Dict[ProcessId, T] = {}

    @property
    def round_no(self) -> int:
        """Number of the current (or last) round."""
        return self._round_no

    @property
    def active(self) -> bool:
        """Whether a round is in progress (started, quorum not reached)."""
        return self._active

    @property
    def responders(self) -> int:
        """Distinct processes that answered the current round."""
        return len(self._responses)

    def begin(self) -> int:
        """Start a new round; returns its round number."""
        self._round_no += 1
        self._active = True
        self._responses = {}
        return self._round_no

    def record(self, round_no: int, src: ProcessId, response: T) -> bool:
        """Record an ack for round ``round_no`` from ``src``.

        Returns ``True`` exactly once: on the ack that completes the
        quorum.  Acks for other rounds, duplicate acks, and acks after
        completion all return ``False``.
        """
        if not self._active or round_no != self._round_no:
            return False
        if src in self._responses:
            return False
        self._responses[src] = response
        if len(self._responses) >= self.quorum_size:
            self._active = False
            return True
        return False

    def responses(self) -> List[Tuple[ProcessId, T]]:
        """All recorded ``(responder, response)`` pairs, by process id."""
        return sorted(self._responses.items())

    def response_values(self) -> List[T]:
        """Just the responses, ordered by responder id."""
        return [response for _, response in self.responses()]


class Phase:
    """The phases a two-round operation passes through.

    The values of a protocol's ``phase`` attribute, kept for readability
    of the implementations and for tests and experiments to wait on:
    ``idle``, ``query`` (first round), ``store`` (writer pre-log in
    Figure 4), ``propagate`` (second round) and ``recovering``.  A
    plain string attribute, not an object with a setter: the read path
    changes phase three times per operation.
    """

    IDLE = "idle"
    QUERY = "query"
    STORE = "store"
    PROPAGATE = "propagate"
    RECOVERING = "recovering"


def highest_tagged(
    responses: List[Tuple[ProcessId, Tuple[Any, Any]]]
) -> Optional[Tuple[Any, Any]]:
    """Pick the ``(tag, value)`` with the lexicographically largest tag.

    ``responses`` holds ``(responder, (tag, value))`` pairs as returned
    by :meth:`RoundTracker.responses`.  Ties cannot happen across
    distinct tags (tags embed the writer id); identical tags carry the
    same value by the algorithms' invariants, so any winner is correct.
    """
    best: Optional[Tuple[Any, Any]] = None
    for _, (tag, value) in responses:
        if best is None or tag > best[0]:
            best = (tag, value)
    return best
