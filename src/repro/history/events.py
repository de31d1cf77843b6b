"""The event vocabulary of histories (Section III-A of the paper).

A history is a sequence of events of four kinds: invocations, replies,
crashes and recoveries.  Crash and recovery events are associated with
exactly one process; invocations and replies with one process and one
object (we model a single register object, so the object is implicit).
"""

from __future__ import annotations

from collections import namedtuple

READ = "read"
WRITE = "write"
KINDS = (READ, WRITE)

_new = tuple.__new__


class Record:
    """A named tuple that equals only tuples of its own class.

    History events and :class:`~repro.history.history.OperationRecord`
    are named tuples, as wire messages are
    (:class:`repro.protocol.messages.Message`): immutable, built in C,
    free of a per-instance ``__dict__`` -- a run records two events and
    folds two records per operation.  Like messages, and unlike the
    effects, they compare class-aware: ``Crash(t, p) != Recover(t, p)``,
    and no record equals the plain tuple of its fields.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class HistoryEvent(Record):
    """Base class of history events; ``time`` orders the sequence.

    Every event starts with ``time`` and ``pid``.  The constructors
    check their fields; the recorder, whose callers pass a literal
    ``kind`` and a minted id, builds its events with ``tuple.__new__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so ``_replace`` cannot skip the checks either


def _check(cls, op, kind):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if op is None:
        raise ValueError(f"{cls.__name__} requires an operation id")


class Invoke(HistoryEvent, namedtuple("Invoke", ("time", "pid", "op", "kind", "value"))):
    """An invocation event of a read or write operation."""

    __slots__ = ()

    def __new__(cls, time, pid, op=None, kind=READ, value=None):
        _check(cls, op, kind)
        return _new(cls, (time, pid, op, kind, value))

    def __str__(self) -> str:
        if self.kind == WRITE:
            return f"p{self.pid}: inv W({self.value!r})"
        return f"p{self.pid}: inv R()"


class Reply(HistoryEvent, namedtuple("Reply", ("time", "pid", "op", "kind", "result"))):
    """A reply event matching a previous invocation of the same process."""

    __slots__ = ()

    def __new__(cls, time, pid, op=None, kind=READ, result=None):
        _check(cls, op, kind)
        return _new(cls, (time, pid, op, kind, result))

    def __str__(self) -> str:
        if self.kind == WRITE:
            return f"p{self.pid}: ret W -> ok"
        return f"p{self.pid}: ret R -> {self.result!r}"


class Crash(HistoryEvent, namedtuple("Crash", ("time", "pid"))):
    """The process stopped executing; volatile state is lost."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"p{self.pid}: CRASH"


class Recover(HistoryEvent, namedtuple("Recover", ("time", "pid"))):
    """The process resumed execution after a matching crash."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"p{self.pid}: RECOVER"
