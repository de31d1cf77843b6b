"""Protocol/environment contract: effects, stable-storage view, base class.

The protocol classes are *sans-io*: they never touch sockets, disks or
clocks.  Instead, every handler returns a list of :class:`Effect`
values, and the hosting environment --
:class:`repro.protocol.host.NodeCore`, driven by the simulator's
:class:`repro.sim.node.SimNode` or the runtime's
:class:`repro.runtime.node.RuntimeNode` -- performs them.  This is what
makes the algorithms testable deterministically and runnable over real
UDP with the same code.  Effects are named tuples under :class:`Effect`.

Causal-log accounting (the paper's cost metric) also lives at this
boundary: *the environment*, not the protocol, tracks how deep each
stable-storage write sits in the operation's causal chain, so protocols
cannot misreport their own cost.  See
:mod:`repro.history.causal_logs`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import namedtuple
from types import MappingProxyType
from typing import Any, Callable, ClassVar, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.common.ids import OperationId, ProcessId
from repro.protocol.messages import Message

# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------


class Effect:
    """Base class of everything a protocol may ask its environment to do.

    Effects are named tuples: immutable, compared in C, and free of a
    per-instance ``__dict__`` -- a handler returns a few per message.
    Hot sites build them as ``tuple.__new__(Send, (dst, message))``, one
    C call where the generated ``__new__`` is a Python frame; they pass
    every field, as defaults (``Reply``'s) apply only through the class
    call.  The price is that an effect equals, and hashes like, the
    plain tuple of its fields and so any *other* effect with the same
    fields (``RecoveryComplete() == Checkpoint() == ()``): tell effects
    apart by class, as the hosts do (``effect.__class__ is Send``),
    never with ``==`` or ``in``.
    """

    __slots__ = ()


class Send(Effect, namedtuple("Send", ("dst", "message"))):
    """Send ``message`` to process ``dst`` (fire-and-forget, may be lost)."""

    __slots__ = ()


class Broadcast(Effect, namedtuple("Broadcast", ("message",))):
    """Send ``message`` to every process, including the sender.

    The paper's implementation uses IP multicast and a listener thread
    on every workstation, so the sender's own listener answers like any
    other process ("when a process waits for a majority of responses,
    it does not necessarily include itself in the majority").
    """

    __slots__ = ()


class Store(Effect, namedtuple("Store", ("key", "record", "size", "token"))):
    """Synchronously log ``record`` under ``key`` in stable storage.

    The environment performs the write with the configured latency and
    then calls :meth:`RegisterProtocol.on_store_complete` with
    ``token``.  ``size`` is the billable payload size in bytes.
    """

    __slots__ = ()


class Reply(Effect, namedtuple("Reply", ("op", "result", "tag"), defaults=(None, None))):
    """Complete operation ``op`` towards the invoking client.

    ``tag`` exposes the timestamp the operation wrote or read; it is
    not part of the register's interface, but the white-box atomicity
    checker (:mod:`repro.history.register_checker`) consumes it.
    """

    __slots__ = ()


class SetTimer(Effect, namedtuple("SetTimer", ("delay", "token"))):
    """Arm a one-shot timer firing after ``delay`` seconds."""

    __slots__ = ()


class CancelTimer(Effect, namedtuple("CancelTimer", ("token",))):
    """Disarm the timer identified by ``token``.  Idempotent."""

    __slots__ = ()


class RecoveryComplete(Effect, namedtuple("RecoveryComplete", ())):
    """Signal that the recovery procedure finished.

    Until a recovering process emits this, the environment rejects
    client invocations with
    :class:`repro.common.errors.NotRecoveredError`.
    """

    __slots__ = ()


class Checkpoint(Effect, namedtuple("Checkpoint", ())):
    """Ask the environment to checkpoint this process's stable storage.

    The environment snapshots the durable records, persists the
    snapshot in two phases (tentative, then permanent -- see
    :mod:`repro.storage.checkpoint`), and truncates the per-register
    log records the snapshot supersedes.  Protocols themselves never
    emit this today; hosts trigger checkpoints on a timer.  It is an
    :class:`Effect` so scripted protocols and tests can request one at
    a precise point in an execution.
    """

    __slots__ = ()


Effects = List[Effect]
"""Alias for handler return values."""


# ---------------------------------------------------------------------------
# Stable storage view
# ---------------------------------------------------------------------------


class StableView:
    """Read-only view of a process's durable key-value records.

    The environment owns the durable dictionary (it survives crashes);
    protocols read it with :meth:`retrieve` -- the ``retrieve``
    primitive of the model -- and write it only through :class:`Store`
    effects so that every log is billed and traced.

    Hosts that checkpoint (see :mod:`repro.storage.checkpoint`) pass a
    ``snapshot`` dictionary of records captured by the last committed
    checkpoint.  Lookups fall back to the snapshot when the live log no
    longer holds a key (it was truncated), and :meth:`checkpointed`
    tells a recovering protocol whether a record it sees came *only*
    from the snapshot -- i.e. the log entry was superseded and its
    write is known complete, so replay can be skipped.
    """

    def __init__(
        self,
        records: Dict[str, Tuple[Any, ...]],
        snapshot: Optional[Dict[str, Tuple[Any, ...]]] = None,
    ):
        self._records = records
        self._snapshot: Dict[str, Tuple[Any, ...]] = (
            snapshot if snapshot is not None else {}
        )

    def retrieve(self, key: str) -> Optional[Tuple[Any, ...]]:
        """Return the last record logged under ``key``, or ``None``."""
        record = self._records.get(key)
        if record is None:
            return self._snapshot.get(key)
        return record

    def checkpointed(self, key: str) -> bool:
        """Whether ``key`` resolves only via the checkpoint snapshot.

        ``True`` means the live log entry for ``key`` was truncated by
        a committed checkpoint and nothing has been re-logged since --
        the record's effects are known durable at a majority, so
        recovery may skip its replay round.
        """
        return key not in self._records and key in self._snapshot

    def __contains__(self, key: str) -> bool:
        return key in self._records or key in self._snapshot

    def keys(self) -> List[str]:
        merged = dict(self._snapshot)
        merged.update(self._records)
        return list(merged)

    def scoped(self, prefix: str) -> "StableView":
        """A view of the same durable dictionary under a key prefix.

        Multi-register hosts give each protocol instance a scoped view
        (and prefix that instance's :class:`Store` keys the same way),
        so many register emulations can share one process's stable
        storage without their ``written``/``writing`` records
        colliding.  Scoping composes: a scoped view can be scoped
        again.
        """
        return _ScopedStableView(self._records, self._snapshot, prefix)


class _ScopedStableView(StableView):
    """A :class:`StableView` that prefixes every key it is asked for."""

    def __init__(
        self,
        records: Dict[str, Tuple[Any, ...]],
        snapshot: Dict[str, Tuple[Any, ...]],
        prefix: str,
    ):
        super().__init__(records, snapshot)
        self._prefix = prefix

    def retrieve(self, key: str) -> Optional[Tuple[Any, ...]]:
        scoped = self._prefix + key
        record = self._records.get(scoped)
        if record is None:
            return self._snapshot.get(scoped)
        return record

    def checkpointed(self, key: str) -> bool:
        scoped = self._prefix + key
        return scoped not in self._records and scoped in self._snapshot

    def __contains__(self, key: str) -> bool:
        scoped = self._prefix + key
        return scoped in self._records or scoped in self._snapshot

    def keys(self) -> List[str]:
        merged = dict(self._snapshot)
        merged.update(self._records)
        return [
            key[len(self._prefix):]
            for key in merged
            if key.startswith(self._prefix)
        ]

    def scoped(self, prefix: str) -> "StableView":
        return _ScopedStableView(
            self._records, self._snapshot, self._prefix + prefix
        )


# ---------------------------------------------------------------------------
# Base protocol
# ---------------------------------------------------------------------------


class RegisterProtocol(ABC):
    """One process's state machine for a read/write register emulation.

    Lifecycle::

        p = SomeProtocol(pid, num_processes, stable_view)
        effects = p.initialize()          # fresh boot, may log initial records
        ...                               # events arrive
        p.crash()                         # volatile state wiped in place
        effects = p.recover()             # runs the recovery procedure

    Exactly one client operation may be outstanding per process at a
    time (processes are sequential in the model); environments enforce
    this before calling :meth:`invoke_read`/:meth:`invoke_write`.
    """

    #: Short machine-readable algorithm name, e.g. ``"persistent"``.
    name: ClassVar[str] = "abstract"
    #: Whether the algorithm tolerates crash-recovery (vs. crash-stop).
    supports_recovery: ClassVar[bool] = False
    #: Identity of the register instance this state machine emulates,
    #: set by multi-register hosts (``None`` for the classic
    #: single-register deployment).  Protocols never read it -- the
    #: host routes messages and scopes storage on their behalf -- but
    #: traces and debuggers want to know which instance they look at.
    register: Optional[str] = None
    #: Message class -> the handler :meth:`on_message` dispatches it to,
    #: which hosts bind once the protocol is built and call directly.
    #: Built per instance by subclasses; none by default.
    message_handlers: Mapping[type, Callable[[ProcessId, Any], Effects]] = MappingProxyType({})

    def __init__(self, pid: ProcessId, num_processes: int, stable: StableView):
        if num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if not 0 <= pid < num_processes:
            raise ValueError(f"pid {pid} out of range for n={num_processes}")
        self.pid = pid
        self.num_processes = num_processes
        self.stable = stable
        self._token_counter = 0

    # -- identity ----------------------------------------------------------

    @property
    def majority(self) -> int:
        """Majority quorum size ``ceil((n + 1) / 2)``."""
        return self.num_processes // 2 + 1

    def fresh_token(self, label: str) -> Tuple[str, int]:
        """Mint a unique hashable token for a store or timer."""
        self._token_counter += 1
        return (label, self._token_counter)

    # -- lifecycle ---------------------------------------------------------

    @abstractmethod
    def initialize(self) -> Effects:
        """First boot of the process (the ``Initialize`` procedure)."""

    @abstractmethod
    def recover(self) -> Effects:
        """Restart after a crash: rebuild volatile state from ``stable``.

        Must eventually lead to a :class:`RecoveryComplete` effect
        (possibly after message exchanges, as in Figure 4's second-round
        replay).  Crash-stop protocols raise ``NotImplementedError``.
        """

    def crash(self) -> None:
        """Wipe volatile state in place.

        The environment calls this at crash time so that a subsequent
        :meth:`recover` starts from nothing but stable storage.  The
        default has no volatile state to wipe; subclasses override it.
        """

    # -- client operations ---------------------------------------------------

    @abstractmethod
    def invoke_read(self, op: OperationId) -> Effects:
        """Begin a read operation."""

    @abstractmethod
    def invoke_write(self, op: OperationId, value: Any) -> Effects:
        """Begin a write operation."""

    # -- events ----------------------------------------------------------------

    @abstractmethod
    def on_message(self, src: ProcessId, message: Message) -> Effects:
        """A message arrived from process ``src``."""

    @abstractmethod
    def on_store_complete(self, token: Hashable) -> Effects:
        """The :class:`Store` effect identified by ``token`` is durable."""

    @abstractmethod
    def on_timer(self, token: Hashable) -> Effects:
        """The :class:`SetTimer` identified by ``token`` fired."""
