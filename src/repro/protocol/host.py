"""The crash-recovery process of the model, hosted once for every world.

A :class:`NodeCore` is the *process* of Section II: volatile state that
a crash wipes, ``store``/``retrieve`` on stable storage that survives
it, and a recovery procedure.  It sits next to the sans-io protocols
because it is the other half of their contract -- it executes the
``Send/Broadcast/Store/Reply/SetTimer/CancelTimer/RecoveryComplete/
Checkpoint`` effects they emit -- and is itself free of I/O: a *driver*
subclass supplies the clock, the wire, the disk and the timers.
:class:`repro.sim.node.SimNode` drives it from the simulation kernel,
:class:`repro.runtime.node.RuntimeNode` from a caller-driven selector
loop, UDP and fsync.

A node owns:

* one or more protocol state machines (volatile -- wiped by a crash);
* the timers armed by the protocols (volatile);
* the causal-depth tracker used for the paper's log-complexity metric;
* the last committed checkpoint and the two-phase sequence that
  replaces it (:mod:`repro.storage.checkpoint`).

Multi-register hosting.  The paper's algorithms emulate one register;
a node therefore boots with a single anonymous *register slot* and
behaves exactly like the original single-register process.  The
key-value layer (:mod:`repro.kv`) provisions additional named slots
with :meth:`NodeCore.provision_register`: each slot runs its own
protocol instance over a key-prefixed view of the node's stable
storage, client operations address a slot by register id (at most one
operation in flight *per slot* -- each virtual register is a sequential
process of the model), and wire traffic of named slots is namespaced in
:class:`~repro.protocol.messages.RegisterFrame` entries of
:class:`~repro.protocol.messages.MuxBatch` datagrams.  Frames to the
same destination emitted within the node's ``batch_window`` coalesce
into a single datagram, which is how the KV layer turns several
same-shard operations into one quorum round-trip.

Crash semantics.  ``crash()`` bumps the node's *incarnation* counter;
every callback scheduled on behalf of the previous incarnation (timers,
store completions, egress flushes, checkpoint phases) checks the
incarnation and becomes a no-op.  Every slot's volatile state is wiped
in place and pending client operations abort (their invocations stay
pending in the recorded history).  ``recover()`` reads the durable
state back and runs every slot's recovery procedure (or first boot,
for slots provisioned while the node was down); client operations are
rejected until the slot signals
:class:`~repro.protocol.base.RecoveryComplete`.

Hot path.  The core calls its driver's methods directly -- no request
objects, nothing allocated per effect beyond what the effect itself
needs -- because this module is a fifth of a simulated run's time.
Each event is one :meth:`~repro.obs.tracing.Trace.record` call; what it
costs when nobody captures or listens is the trace's business.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.common.errors import NotRecoveredError, ProcessCrashed, ProtocolError
from repro.common.ids import OperationId, ProcessId, make_operation_id
from repro.history.causal_logs import CausalDepthTracker
from repro.history.recorder import HistoryRecorder
from repro.obs import tracing
from repro.obs.tracing import NULL_TRACE, Trace
from repro.protocol.base import (
    Broadcast,
    CancelTimer,
    Checkpoint,
    Effect,
    RecoveryComplete,
    RegisterProtocol,
    Reply,
    Send,
    SetTimer,
    StableView,
    Store,
)
from repro.protocol.messages import Message, MuxBatch, RegisterFrame
from repro.storage import checkpoint as ckpt

ProtocolFactory = Callable[[ProcessId, int, StableView], RegisterProtocol]

# Node lifecycle states.
UP = "up"
CRASHED = "crashed"
RECOVERING = "recovering"

#: Register id of the anonymous single-register slot every node boots
#: with (the classic deployment of the paper's algorithms).
DEFAULT_REGISTER: Optional[str] = None


class OpHandle:
    """One submitted operation, on every backend: :class:`repro.api.OpHandle`.

    The operation of the model: an invocation, then maybe a matching
    reply; a crash of its process leaves it pending.  The façade builds
    the handle at submission and the node that runs the operation fills
    it in: ``op`` and ``invoked_at`` at the invocation, the outcome at
    settlement.  ``key`` is the addressed register (``None``: the
    anonymous one), ``shard`` the KV pipeline it was routed to (``None``
    elsewhere), ``causal_logs`` the paper's log-complexity metric of a
    completed operation.  Times are in the backend's clock: virtual
    seconds on simulated backends, wall seconds on live.

    ``settled``, ``done`` and ``aborted`` are plain fields written once,
    when the first outcome arrives -- the node's reply, a crash of the
    node (``error`` is then a :class:`~repro.common.errors.ProcessCrashed`),
    or whatever the backend failed it with (an invocation that raised,
    live's ``op_timeout``).  A later outcome changes nothing.
    """

    __slots__ = (
        "kind",
        "key",
        "pid",
        "value",
        "op",
        "shard",
        "causal_logs",
        "result",
        "error",
        "submitted_at",
        "invoked_at",
        "completed_at",
        "settled",
        "done",
        "aborted",
        "_callbacks",
    )

    def __init__(
        self,
        kind: str,
        key: Optional[str],
        pid: ProcessId,
        value: Any,
        submitted_at: float,
        shard: Optional[int] = None,
    ):
        self.kind = kind
        self.key = key
        self.pid = pid
        self.value = value
        self.op: Optional[OperationId] = None
        self.shard = shard
        self.causal_logs: Optional[int] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.submitted_at = submitted_at
        self.invoked_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.settled = self.done = self.aborted = False
        self._callbacks: List[Callable[["OpHandle"], None]] = []

    def add_callback(self, callback: Callable[["OpHandle"], None]) -> None:
        """Run ``callback(handle)`` when the operation settles.

        Fires immediately if the handle already settled; otherwise
        inside whichever verb advances the clock to the settlement.
        """
        if self.settled:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _settle(
        self, now: float, result: Any = None, error: Optional[BaseException] = None
    ) -> None:
        """Record the outcome -- done, or aborted with ``error`` -- and run
        the callbacks; a no-op on a settled handle."""
        if self.settled:
            return
        self.settled = True
        self.done = error is None
        self.aborted = not self.done
        self.result, self.error, self.completed_at = result, error, now
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion duration of a done operation, else ``None``."""
        return self.completed_at - self.submitted_at if self.done else None

    def __repr__(self) -> str:
        state = "done" if self.done else ("aborted" if self.aborted else "pending")
        where = "" if self.key is None else f" key={self.key!r}"
        return f"OpHandle({self.kind}{where} at p{self.pid}, {state})"


class _RegisterSlot:
    """One hosted register instance: protocol plus per-slot bookkeeping."""

    __slots__ = ("register", "prefix", "protocol", "current", "ready", "booted")

    def __init__(
        self, register: Optional[str], prefix: str, protocol: RegisterProtocol
    ):
        self.register = register
        #: Stable-storage key prefix of this slot ("" for the default).
        self.prefix = prefix
        self.protocol = protocol
        #: Client operation in flight on this slot, if any.
        self.current: Optional[OpHandle] = None
        #: Whether the slot finished initialize/recover.
        self.ready = False
        #: Whether initialize() ever ran (slots provisioned while the
        #: node was crashed boot for the first time during recovery).
        self.booted = False

    @property
    def idle(self) -> bool:
        """No client operation in flight, none parked in the protocol."""
        return self.current is None and not getattr(self.protocol, "busy", False)


class NodeCore:
    """One crash-recovery process, minus its I/O.

    ``storage`` is the process's stable storage; the core reads it
    (``records``, ``retrieve``, ``record_size``) and leaves every write
    to the driver primitives below, which a subclass must provide (a
    driver may bind them as instance attributes instead of methods):

    * ``_now()`` -- the clock, in seconds;
    * ``_transmit(dsts, message, depth)`` -- fire-and-forget
      datagrams to each of ``dsts``, the one send primitive: a ``Send``
      names its destination through :attr:`_to`, a ``Broadcast`` all
      of :attr:`_everyone` (this process included);
    * ``_store(key, record, size, on_durable, op)`` -- log a record and
      call ``on_durable()`` once it is durable; stores of one process
      complete in issue order;
    * ``_call_later(delay, fn, *args)`` -- one-shot timer, returns an
      object with ``cancel()``; ``_defer`` is the same for callers that
      never cancel (egress flushes, on the datapath), returning nothing;
    * ``_delete(key)`` / ``_compact()`` -- drop a log record a
      checkpoint superseded / rewrite the log as the live records,
      ordered with ``_store``: a store of ``key`` issued before the
      delete and not durable yet must survive it;
    * ``_crash_io()`` -- the world's half of a crash (void in-flight
      stores, stop listening);
    * ``_read_back(incarnation)`` -- the world's half of a recovery:
      make the durable state readable (a billed log scan, a reload from
      disk), then call ``_finish_recover(incarnation)``;
    * ``trace`` (constructor argument) -- where every event is
      recorded, one ``trace.record`` call each;
      :data:`~repro.obs.tracing.NULL_TRACE` records nothing.
    """

    def __init__(
        self,
        pid: ProcessId,
        num_processes: int,
        storage: Any,
        protocol_factory: ProtocolFactory,
        recorder: HistoryRecorder,
        trace: Optional[Trace] = None,
        batch_window: float = 0.0,
        checkpoint_interval: Optional[float] = None,
    ):
        if not batch_window >= 0:  # NaN too
            raise ProtocolError("batch_window must be >= 0")
        if checkpoint_interval is not None and not checkpoint_interval > 0:
            raise ProtocolError("checkpoint_interval must be > 0")
        self.pid = pid
        #: The process's stable storage (durable across crashes).
        self.storage = storage
        self._factory = protocol_factory
        self._recorder = recorder
        self._trace = NULL_TRACE if trace is None else trace
        self._num_processes = num_processes
        # The ``dsts`` of a send (``KeyError`` for a pid out of range)
        # and of a broadcast, built once.
        self._to = {dst: (dst,) for dst in range(num_processes)}
        self._everyone = range(num_processes)
        self.batch_window = batch_window
        #: Seconds between periodic checkpoints (None = never).
        self.checkpoint_interval = checkpoint_interval

        self.state = UP
        self.incarnation = 0
        self.crash_count = 0
        self._booted = False
        #: Duration of each completed crash-recovery, on the node's clock.
        self.recovery_times: List[float] = []
        #: Optional observer called with each recovery duration.
        self.on_recovery_time: Optional[Callable[[float], None]] = None
        self._recover_began: Optional[float] = None
        #: The process hears no message: it is crashed, or recovery is
        #: still reading the durable state back.  Written wherever
        #: ``state`` changes, so a delivery tests one flag.
        self._deaf = False

        # Last committed checkpoint: snapshot records (shared with the
        # StableView, updated in place), their billed sizes, and the
        # checkpoint sequence number.
        self._snapshot: Dict[str, Tuple[Any, ...]] = {}
        self._snapshot_sizes: Dict[str, int] = {}
        self._ckpt_seq = 0
        # The checkpoint between its capture and its commit, if any:
        # (seq, snapshot record, billed size, newly captured records,
        # complete snapshot, its sizes).
        self._ckpt: Optional[Tuple[Any, ...]] = None
        self.checkpoints_committed = 0
        self._load_snapshot()

        self._stable_view = StableView(storage.records, self._snapshot)
        self._slots: Dict[Optional[str], _RegisterSlot] = {}
        #: How many slots are not ``ready``; kept where a slot is made,
        #: where a crash wipes them all and where one recovers.
        self._unready = 0
        self._depths = CausalDepthTracker()
        # What every message to the default slot reads, bound once: a
        # slot keeps its protocol object for life, and a crash clears
        # the depth dict in place.
        self._default_slot = self._slots[DEFAULT_REGISTER] = self._make_slot(DEFAULT_REGISTER)
        self._default_handlers = self._default_slot.protocol.message_handlers
        self._depth_of = self._depths.depths.get
        self._timers: Dict[Tuple[Optional[str], Hashable], Any] = {}
        # Egress coalescing of named-slot frames, per destination.
        self._pending_frames: Dict[ProcessId, List[RegisterFrame]] = {}
        self._flush_scheduled: Set[ProcessId] = set()

    def _make_slot(self, register: Optional[str]) -> _RegisterSlot:
        if register is None:
            prefix, stable = "", self._stable_view
        else:
            prefix = f"{register}/"
            stable = self._stable_view.scoped(prefix)
        protocol = self._factory(self.pid, self._num_processes, stable)
        protocol.register = register
        self._unready += 1
        return _RegisterSlot(register, prefix, protocol)

    # -- register hosting --------------------------------------------------

    @property
    def protocol(self) -> RegisterProtocol:
        """The default (anonymous) register's protocol instance."""
        return self._slots[DEFAULT_REGISTER].protocol

    @property
    def registers(self) -> List[Optional[str]]:
        """Ids of all hosted register slots (``None`` is the default)."""
        return list(self._slots)

    def has_register(self, register: Optional[str]) -> bool:
        return register in self._slots

    def register_ready(self, register: Optional[str]) -> bool:
        """Whether ``register`` exists, is initialized, and is idle-capable."""
        slot = self._slots.get(register)
        return slot is not None and slot.ready and self.state != CRASHED

    def register_busy(self, register: Optional[str]) -> bool:
        """Whether ``register`` has a client operation in flight."""
        return not self._slot(register).idle

    def provision_register(self, register: str) -> None:
        """Host a new named register instance on this node.

        On an up-and-running node the slot initializes immediately (its
        first records must become durable before it accepts
        operations); on a crashed node the slot is created dormant and
        boots when the node recovers.  Provisioning is idempotent.
        """
        if register is None:
            raise ProtocolError("the default register always exists")
        if register in self._slots:
            return
        slot = self._make_slot(register)
        self._slots[register] = slot
        if self._booted and self.state != CRASHED:
            self._boot_slot(slot)

    def _slot(self, register: Optional[str]) -> _RegisterSlot:
        slot = self._slots.get(register)
        if slot is None:
            raise ProtocolError(
                f"process {self.pid} hosts no register {register!r}"
            )
        return slot

    @property
    def ready(self) -> bool:
        """Whether every hosted slot finished initializing/recovering."""
        return self._unready == 0 and self.state != CRASHED

    @property
    def crashed(self) -> bool:
        return self.state == CRASHED

    # -- lifecycle ---------------------------------------------------------

    def boot(self) -> None:
        """Run every slot's ``Initialize`` procedure."""
        self._booted = True
        for slot in list(self._slots.values()):
            self._boot_slot(slot)
        self._arm_checkpoint_timer()

    def _boot_slot(self, slot: _RegisterSlot) -> None:
        slot.booted = True
        effects = slot.protocol.initialize()
        self._execute(effects, depth=0, op=None, slot=slot)

    def crash(self) -> None:
        """Crash the process: volatile state and timers are lost."""
        if self.state == CRASHED:
            raise ProcessCrashed(f"process {self.pid} is already crashed")
        self.state = CRASHED
        self.incarnation += 1
        self.crash_count += 1
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._pending_frames.clear()
        self._flush_scheduled.clear()
        self._ckpt = None
        self._deaf = True
        self._recover_began = None
        self._crash_io()
        self._depths.reset()
        for slot in self._slots.values():
            slot.protocol.crash()
            slot.ready = False
            handle = slot.current
            if handle is not None:
                slot.current = None
                handle._settle(
                    self._now(),
                    error=ProcessCrashed(
                        f"process {self.pid} crashed during the {handle.kind}"
                    ),
                )
        self._unready = len(self._slots)
        self._recorder.record_crash(self.pid)
        self._trace.record(tracing.CRASH, self._now(), self.pid)

    def recover(self) -> None:
        """Restart the process and run every slot's recovery procedure.

        The durable state is read back first (:meth:`_read_back`);
        until that is done the process is not listening, and messages
        that arrive are dropped as for a crashed process.
        """
        if self.state != CRASHED:
            raise ProtocolError(f"process {self.pid} is not crashed")
        self.state = RECOVERING
        self._deaf = True
        now = self._recover_began = self._now()
        self._recorder.record_recovery(self.pid)
        self._trace.record(tracing.RECOVER, now, self.pid)
        self._read_back(self.incarnation)

    def _finish_recover(self, incarnation: int) -> None:
        if incarnation != self.incarnation or self.state != RECOVERING:
            return  # crashed again while the state was being read back
        self._deaf = False
        self._load_snapshot()
        for slot in list(self._slots.values()):
            if not slot.booted:
                # Provisioned while the node was down: first boot now.
                self._boot_slot(slot)
                continue
            effects = slot.protocol.recover()
            self._execute(effects, depth=0, op=None, slot=slot)
        self._arm_checkpoint_timer()

    def _load_snapshot(self) -> None:
        """Rebuild the in-memory snapshot from the durable permanent record.

        A stray tentative record (crash between the two checkpoint
        phases) is ignored: the truncations it would have justified
        never happened, so the previous snapshot plus the intact log
        suffix is still complete.
        """
        seq, records, sizes = ckpt.load_snapshot(
            self.storage.retrieve(ckpt.PERMANENT_KEY)
        )
        self._ckpt_seq = seq
        self._snapshot.clear()
        self._snapshot.update(records)
        self._snapshot_sizes = dict(sizes)

    # -- checkpointing -----------------------------------------------------

    def _arm_checkpoint_timer(self) -> None:
        if self.checkpoint_interval is None:
            return
        self._defer(self.checkpoint_interval, self._checkpoint_tick, self.incarnation)

    def _checkpoint_tick(self, incarnation: int) -> None:
        if incarnation != self.incarnation or self.state == CRASHED:
            return  # a crash killed this timer chain; recovery re-arms
        self.begin_checkpoint()
        self._arm_checkpoint_timer()

    @property
    def checkpoint_in_progress(self) -> bool:
        """Whether a checkpoint is between its capture and its commit."""
        return self._ckpt is not None

    def begin_checkpoint(self) -> bool:
        """Start a two-phase checkpoint; returns whether one began.

        Captures the records of every *idle* register slot (no client
        operation in flight, recovery complete): idle means the slot's
        last write completed, i.e. its value reached a majority, so
        recovery may skip the replay round for a record that survives
        only in the snapshot.  Busy slots keep their live log entries
        and recover the normal way.  The captured records are merged
        over the previous snapshot so the permanent record alone is
        always a complete restore point.

        The sequence is asynchronous -- tentative store, permanent
        store, then truncation, each started when the previous one is
        durable -- and a crash at any point abandons it.  No-op while
        crashed/recovering, while another checkpoint is in progress, or
        when no new records are capturable.
        """
        if self.state != UP or self._ckpt is not None:
            return False
        idle = [
            slot.prefix for slot in self._slots.values() if slot.ready and slot.idle
        ]
        live = self.storage.records
        keys = ckpt.capturable_keys(live.keys(), idle)
        # Only re-snapshot keys whose live record moved past the
        # snapshot; unchanged state needs no new checkpoint.
        fresh = {
            key: live[key]
            for key in keys
            if self._snapshot.get(key) != live[key]
        }
        if not fresh:
            return False
        captured = dict(self._snapshot)
        captured.update(fresh)
        sizes = dict(self._snapshot_sizes)
        for key in fresh:
            sizes[key] = self.storage.record_size(key)
        seq = self._ckpt_seq + 1
        record = ckpt.build_snapshot_record(seq, captured, sizes)
        size = ckpt.snapshot_store_size(sizes.values())
        self._ckpt = (seq, record, size, fresh, captured, sizes)
        self._trace.record(
            tracing.CKPT_BEGIN, self._now(), self.pid, None, seq, len(captured)
        )
        on_durable = partial(self._on_ckpt_tentative, self.incarnation)
        self._store(ckpt.TENTATIVE_KEY, record, size, on_durable, None)
        return True

    def _on_ckpt_tentative(self, incarnation: int) -> None:
        if incarnation != self.incarnation or self._ckpt is None:
            return
        seq, record, size = self._ckpt[:3]
        self._trace.record(tracing.CKPT_TENTATIVE, self._now(), self.pid, None, seq)
        # A trace trigger (TornStore) may have crashed us during the
        # record above -- exactly between the two phases; the permanent
        # store must then never be issued.
        if incarnation != self.incarnation or self._ckpt is None:
            return
        on_durable = partial(self._on_ckpt_commit, incarnation)
        self._store(ckpt.PERMANENT_KEY, record, size, on_durable, None)

    def _on_ckpt_commit(self, incarnation: int) -> None:
        if incarnation != self.incarnation or self._ckpt is None:
            return
        seq, _record, _size, fresh, captured, sizes = self._ckpt
        self._ckpt = None
        self._ckpt_seq = seq
        self._snapshot.clear()
        self._snapshot.update(captured)
        self._snapshot_sizes = sizes
        # Truncate the log entries the snapshot supersedes -- but only
        # where the live record is still the captured one; a store that
        # landed after capture re-creates the key and must survive so
        # recovery replays it the normal way.
        live = self.storage.records
        truncated = 0
        for key, captured_record in fresh.items():
            if live.get(key) == captured_record:
                self._delete(key)
                truncated += 1
        self._delete(ckpt.TENTATIVE_KEY)
        self._compact()
        self.checkpoints_committed += 1
        self._trace.record(
            tracing.CKPT_COMMIT, self._now(), self.pid, None,
            seq, len(captured), truncated,
        )

    # -- client operations -----------------------------------------------------

    def invoke_read(
        self, register: Optional[str] = None, handle: Optional[OpHandle] = None
    ) -> OpHandle:
        """Invoke a read; returns a handle that settles as the run advances.

        ``handle`` is the one the caller built at submission (a KV
        pipeline's, a live one's); by default the node builds it now.
        """
        return self._invoke("read", None, register, handle)

    def invoke_write(
        self,
        value: Any,
        register: Optional[str] = None,
        handle: Optional[OpHandle] = None,
    ) -> OpHandle:
        """Invoke a write of ``value``; ``handle`` as for :meth:`invoke_read`."""
        return self._invoke("write", value, register, handle)

    def _invoke(
        self,
        kind: str,
        value: Any,
        register: Optional[str],
        handle: Optional[OpHandle],
    ) -> OpHandle:
        if self.state == CRASHED:
            raise ProcessCrashed(f"process {self.pid} is crashed")
        slot = self._slot(register)
        if not slot.ready:
            raise NotRecoveredError(
                f"process {self.pid} register {register!r} has not finished "
                f"initializing/recovering"
            )
        if slot.current is not None:
            raise ProtocolError(
                f"process {self.pid} already has an operation in flight "
                f"on register {register!r}"
            )
        op = make_operation_id(self.pid)
        now = self._now()
        if handle is None:
            handle = OpHandle(kind, register, self.pid, value, now)
        handle.op = op
        handle.invoked_at = now
        slot.current = handle
        self._recorder.record_invoke(op, self.pid, kind, value)
        if register is not None:
            self._recorder.record_register(op, register)
        self._trace.record(tracing.INVOKE, now, self.pid, op, kind, register)
        self._depths.observe(op, 0)
        if kind == "read":
            effects = slot.protocol.invoke_read(op)
        else:
            effects = slot.protocol.invoke_write(op, value)
        self._execute(effects, depth=0, op=op, slot=slot)
        return handle

    # -- event entry points ---------------------------------------------------

    def _on_message(self, src: ProcessId, message: Message, depth: int) -> None:
        if self._deaf:
            # A crashed process receives nothing; one still reading
            # its log back is not listening yet either.
            return
        # Straight to the default slot's handler for the message, a
        # frame fewer than through on_message.
        handler = self._default_handlers.get(message.__class__)
        if handler is None:
            if message.__class__ is MuxBatch:
                find_slot = self._slots.get
                observe = self._depths.observe
                execute = self._execute
                for register, frame_depth, inner, _size in message.frames:
                    slot = find_slot(register)
                    if slot is None:
                        # A frame for a register this node does not host
                        # yet (provisioning raced a delivery); drop it --
                        # fair-lossy channels allow it, the sender
                        # retransmits.
                        continue
                    op = inner.op
                    context = observe(op, frame_depth)
                    execute(slot.protocol.on_message(src, inner), context, op, slot)
                return
            # on_message raises for a class that has no handler.
            handler = self._default_slot.protocol.on_message
        op = message.op
        # A message at depth 0 (every one of a quiet read) folds nothing
        # in: its context is what this process knows of ``op``.
        context = self._depths.observe(op, depth) if depth else self._depth_of(op, 0)
        effects = handler(src, message)
        if effects:
            self._execute(effects, context, op, self._default_slot)

    def _on_store_durable(
        self,
        token: Hashable,
        issue_depth: int,
        op: Optional[OperationId],
        incarnation: int,
        slot: _RegisterSlot,
    ) -> None:
        if incarnation != self.incarnation or self.state == CRASHED:
            return
        # The completed log is one more on the chain.
        depth = issue_depth + 1
        if op is not None and depth > self._depth_of(op, 0):
            self._depths.deepen(op, depth)
        effects = slot.protocol.on_store_complete(token)
        self._execute(effects, depth=depth, op=op, slot=slot)

    def _on_timer(
        self,
        token: Hashable,
        depth: int,
        op: Optional[OperationId],
        incarnation: int,
        slot: _RegisterSlot,
    ) -> None:
        if incarnation != self.incarnation or self.state == CRASHED:
            return
        self._timers.pop((slot.register, token), None)
        self._trace.record(
            tracing.TIMER, self._now(), self.pid, op, token, slot.register
        )
        effects = slot.protocol.on_timer(token)
        self._execute(effects, depth=depth, op=op, slot=slot)

    # -- effect execution ----------------------------------------------------------

    def _execute(
        self,
        effects: List[Effect],
        depth: int,
        op: Optional[OperationId],
        slot: _RegisterSlot,
    ) -> None:
        # Effects are a closed set of final classes (the sans-io
        # contract of protocol/base.py), so dispatch on class identity:
        # an isinstance ladder costs several calls per effect on the
        # engine's hottest path.
        #
        # A named slot's message travels in a RegisterFrame, built (and
        # sized) here once per effect: every destination of a broadcast
        # queues the same frame.
        for effect in effects:
            cls = effect.__class__
            if cls is Send or cls is Broadcast:
                message = effect.message
                message_op = message.op
                # The causal-log depth the message carries.  The
                # handler's context belongs to ``op``: a message for
                # *another* operation (a parked ack released by another
                # operation's store) must not inherit it -- a log is
                # billed to the operation that performs it, not to those
                # waiting behind it on the device.  An *ack* also folds
                # in this process's logs for its operation: it certifies
                # one and must carry its depth, even when resent after
                # the original was lost.  A (re)sent request carries the
                # depth its round began at: no log is needed before it,
                # so process order (the writer's own ``written`` log
                # landing before a retransmission) must not inflate the
                # operation's cost.
                out_depth = depth if message_op == op else 0
                if message.is_ack:
                    known = self._depth_of(message_op, 0)
                    if known > out_depth:
                        out_depth = known
                if slot.register is None:
                    self._transmit(
                        self._to[effect.dst] if cls is Send else self._everyone,
                        message,
                        out_depth,
                    )
                else:
                    frame = RegisterFrame(slot.register, out_depth, message)
                    if cls is Send:
                        self._dispatch(frame, effect.dst)
                    else:
                        for dst in self._everyone:
                            self._dispatch(frame, dst)
            elif cls is Store:
                self._store(
                    slot.prefix + effect.key,
                    effect.record,
                    effect.size,
                    self._make_store_callback(
                        effect.token, depth, op, self.incarnation, slot
                    ),
                    op,
                )
            elif cls is Reply:
                self._complete_operation(effect, depth, slot)
            elif cls is SetTimer:
                key = (slot.register, effect.token)
                existing = self._timers.pop(key, None)
                if existing is not None:
                    existing.cancel()
                self._timers[key] = self._call_later(
                    effect.delay,
                    self._on_timer,
                    effect.token,
                    depth,
                    op,
                    self.incarnation,
                    slot,
                )
            elif cls is CancelTimer:
                handle = self._timers.pop((slot.register, effect.token), None)
                if handle is not None:
                    handle.cancel()
            elif cls is RecoveryComplete:
                self._slot_recovered(slot)
            elif cls is Checkpoint:
                self.begin_checkpoint()
            else:
                raise ProtocolError(f"unknown effect {type(effect).__name__}")

    def _make_store_callback(
        self,
        token: Hashable,
        depth: int,
        op: Optional[OperationId],
        incarnation: int,
        slot: _RegisterSlot,
    ) -> Callable[[], None]:
        # A closure, not functools.partial: partial saves a frame per
        # completion but allocates differently per store, and where the
        # interpreter's full collections then land in a run moves
        # bench/'s in-process speed probe by more than the frame saves.
        def callback() -> None:
            self._on_store_durable(token, depth, op, incarnation, slot)

        return callback

    def _slot_recovered(self, slot: _RegisterSlot) -> None:
        if not slot.ready:
            slot.ready = True
            self._unready -= 1
        now = self._now()
        if self.state != UP and self._unready == 0:
            self.state = UP
            if self._recover_began is not None:
                duration = now - self._recover_began
                self._recover_began = None
                self.recovery_times.append(duration)
                if self.on_recovery_time is not None:
                    self.on_recovery_time(duration)
        self._trace.record(tracing.RECOVERY_DONE, now, self.pid, None, slot.register)

    # -- egress multiplexing ---------------------------------------------------

    def _dispatch(self, frame: RegisterFrame, dst: ProcessId) -> None:
        """Send a named slot's frame through the frame batcher."""
        if self.batch_window == 0.0:
            # No window, no coalescing: one datagram per frame, the
            # honest unbatched baseline the benchmarks sweep against.
            self._transmit(self._to[dst], MuxBatch(None, 0, (frame,)), 0)
            return
        self._pending_frames.setdefault(dst, []).append(frame)
        if dst not in self._flush_scheduled:
            self._flush_scheduled.add(dst)
            self._defer(self.batch_window, self._flush_frames, dst, self.incarnation)

    def _flush_frames(self, dst: ProcessId, incarnation: int) -> None:
        if incarnation != self.incarnation:
            # Its frames died with it (``crash`` dropped them); what is
            # queued now is a later incarnation's, flushed on its own.
            return
        self._flush_scheduled.discard(dst)
        frames = self._pending_frames.pop(dst, None)
        if not frames:
            return
        self._transmit(self._to[dst], MuxBatch(None, 0, tuple(frames)), 0)

    def _complete_operation(
        self, effect: Reply, depth: int, slot: _RegisterSlot
    ) -> None:
        handle = slot.current
        if handle is None or handle.op != effect.op:
            # A reply for an operation that was aborted by a crash of
            # this process cannot happen (incarnation guards), so this
            # is a protocol bug worth failing loudly on.
            raise ProtocolError(
                f"process {self.pid} replied to unknown operation {effect.op}"
            )
        causal = max(depth, self._depth_of(effect.op, 0))
        now = self._now()
        handle.causal_logs = causal
        slot.current = None
        self._recorder.record_reply(effect.op, self.pid, handle.kind, effect.result)
        self._recorder.record_causal_logs(effect.op, causal)
        if effect.tag is not None:
            self._recorder.record_tag(effect.op, effect.tag)
        self._trace.record(
            tracing.REPLY, now, self.pid, effect.op, handle.kind, causal
        )
        # A handle live's op_timeout already failed stays failed: the
        # reply is history, not news to the caller.
        handle._settle(now, effect.result)
