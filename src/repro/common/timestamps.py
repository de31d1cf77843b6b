"""Lexicographic timestamps ("tags") used to order written values.

The emulation algorithms order values with monotonically increasing
timestamps.  A timestamp is a pair ``[sn, pid]`` of a sequence number
and the id of the writing process; pairs are compared lexicographically
so that two concurrent writers that pick the same sequence number are
still totally ordered (footnote 2 and Lemma 2 of the paper).

The transient-atomicity algorithm (Figure 5 of the paper) additionally
uses a *recovery counter* ``rec``: the writer increments its sequence
number by ``rec + 1`` so that a write started after a recovery cannot
reuse the sequence number of the write it interrupted.  We carry
``rec`` as an explicit third, least-significant component of the tag.
For crash-stop algorithms and the persistent algorithm it is always
zero, so the tag degenerates to the paper's ``[sn, pid]`` pair.  For
the transient algorithm it additionally serves as a tiebreak between
incarnations of the same writer; see
:mod:`repro.protocol.transient` for why that closes a duplicate-tag
corner case while preserving the algorithm's log complexity.

A tag *is* the tuple ``(sn, pid, rec)``: the lexicographic order of the
paper is the order tuples already have.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Optional, Tuple


class Tag(namedtuple("Tag", ("sn", "pid", "rec"), defaults=(0,))):
    """An ordered ``[sequence_number, process_id, recovery_count]`` timestamp.

    Instances are immutable, hashable and totally ordered.  The order is
    lexicographic: by :attr:`sn`, then :attr:`pid`, then :attr:`rec` --
    the order of the tuple a tag is, so the comparisons on the
    quorum-counting hot path run in C.  The price is that a tag also
    equals (and orders against) the plain ``(sn, pid, rec)`` triple.

    >>> Tag(1, 0) < Tag(1, 1) < Tag(2, 0)
    True
    >>> Tag(1, 1, 0) < Tag(1, 1, 2)
    True
    """

    __slots__ = ()

    def __new__(cls, sn: int, pid: int, rec: int = 0) -> "Tag":
        if sn < 0:
            raise ValueError(f"sequence number must be >= 0, got {sn}")
        if pid < 0:
            raise ValueError(f"process id must be >= 0, got {pid}")
        if rec < 0:
            raise ValueError(f"recovery count must be >= 0, got {rec}")
        return tuple.__new__(cls, (sn, pid, rec))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Tag":
        return cls(*iterable)  # so ``_replace`` cannot skip the validation either

    def as_tuple(self) -> Tuple[int, int, int]:
        """Return the ``(sn, pid, rec)`` triple, e.g. for serialization."""
        return tuple(self)

    @classmethod
    def from_tuple(cls, triple: Tuple[int, ...]) -> "Tag":
        """Rebuild a tag from :meth:`as_tuple` output (2- or 3-tuple)."""
        return cls(*triple)

    def __str__(self) -> str:
        if self.rec:
            return f"[{self.sn},{self.pid},r{self.rec}]"
        return f"[{self.sn},{self.pid}]"


def bottom_tag() -> Tag:
    """The initial tag every process starts with (value ``\\u22a5``)."""
    return Tag(0, 0, 0)


def max_tag(tags: Iterable[Tag]) -> Optional[Tag]:
    """Return the lexicographically largest tag, or ``None`` if empty.

    Used by both rounds of the algorithms: the writer picks the highest
    collected sequence number; the reader picks the value with the
    highest collected tag.
    """
    best: Optional[Tag] = None
    for tag in tags:
        if best is None or tag > best:
            best = tag
    return best
