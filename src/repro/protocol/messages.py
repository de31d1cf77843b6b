"""Wire messages of the emulation algorithms.

The message vocabulary follows Figures 4 and 5 of the paper:

========== ============================ =====================================
paper name class                        meaning
========== ============================ =====================================
``SN``     :class:`SnQuery`             ask for the highest known tag
``SN ack`` :class:`SnAck`               reply with the local tag
``W``      :class:`WriteRequest`        adopt value+tag if tag is higher
``W ack``  :class:`WriteAck`            value+tag durable (or already newer)
``R``      :class:`ReadQuery`           ask for the local value+tag
``R ack``  :class:`ReadAck`             reply with local value+tag
========== ============================ =====================================

Every request carries the invoking operation's id and a round number so
that late or duplicated acks from a previous round (the fair-lossy
channel may duplicate and reorder) are not miscounted toward the
current round's quorum.  Acks echo both.

Messages also declare their billable payload size so the network can
charge size-dependent delays (Figure 6 bottom).  ``HEADER_SIZE`` covers
opcode, op id, round and tag fields.  A message's ``size`` is computed
where it is priced, by the simulator's transmit path and by
:class:`RegisterFrame` (a live message is never sized): a class constant
for the header-only kinds, a property over the value for the others.  A
frame and a batch keep theirs as their last tuple field, so a batch's
size is one attribute load however many frames it holds.

Register multiplexing
---------------------

The base algorithms emulate exactly one register, so their messages
carry no object identity.  The key-value layer
(:mod:`repro.kv`) multiplexes many *register instances* over the same
set of processes by namespacing the wire traffic:

* a :class:`RegisterFrame` pairs one protocol message with the id of
  the register instance it belongs to (plus the causal-log depth
  context that single-register envelopes carry at the engine level).
  It is built, and sized, once per ``Send`` or ``Broadcast``: the
  destinations of a broadcast share one frame object;
* a :class:`MuxBatch` is the only multiplexed message that actually
  crosses the wire: one datagram carrying one or more frames.  Frames
  addressed to the same destination within a node's batch window share
  the datagram, which is what turns several same-shard operations into
  a single quorum round-trip.  Its size is the header plus the sizes
  its frames already carry, added up when the batch is built.

Hosts demultiplex an incoming :class:`MuxBatch` frame by frame,
routing each inner message to the protocol instance registered under
the frame's register id.  Protocol state machines never see the
wrappers -- multiplexing stays an engine concern, exactly like the
causal-log accounting.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any

from repro.common.values import payload_size

#: Fixed per-message framing overhead, in bytes.
HEADER_SIZE = 32

#: Per-frame overhead of register multiplexing (length prefix of the
#: register id plus the frame's depth field), in bytes.
FRAME_OVERHEAD = 8

_new = tuple.__new__


class Message:
    """Base class of all wire messages.

    Every message starts with ``op`` (the invoking operation's
    :class:`~repro.common.ids.OperationId`, or ``None``) and
    ``round_no``.  Messages are named tuples, as the effects of
    :mod:`repro.protocol.base` are, and the protocols build them the
    same way: ``tuple.__new__(SnAck, (op, round_no, tag))``, one C call,
    with every field (``ReadAck``'s default applies only through the
    class call).  Unlike the effects, two messages are equal only if
    they are of the same class (``SnQuery(op, 1) != ReadQuery(op, 1)``).
    """

    __slots__ = ()

    #: Billable size in bytes (header plus any value payload): a *model*
    #: quantity that prices the size-dependent delays of Figure 6, not
    #: the length of any encoding.  Header-only messages share this
    #: class constant; a value carrier overrides it with ``_VALUE_SIZE``.
    size = HEADER_SIZE

    #: Whether this message acknowledges state the sender holds (as
    #: opposed to requesting work).  Causal-log accounting folds a
    #: process's own logs only into acknowledgments: an ack certifies
    #: durability and therefore causally follows the local log it
    #: certifies, while a (re)transmitted request carries the depth at
    #: which its round began.  Class-level, not a wire field.
    is_ack = False

    #: Short wire-format name, for traces: the class name, set on each
    #: subclass so that reading it is an attribute load.
    kind = "Message"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return tuple.__hash__(self)


class SnQuery(Message, namedtuple("SnQuery", ("op", "round_no"))):
    """``SN``: request the highest tag known to the receiver."""

    __slots__ = ()


class SnAck(Message, namedtuple("SnAck", ("op", "round_no", "tag"))):
    """``SN ack``: the receiver's current tag."""

    __slots__ = ()
    is_ack = True


#: ``size`` of a value carrier: the header plus the value's payload
#: (the value is field 3 of both carriers).
_VALUE_SIZE = property(lambda message: HEADER_SIZE + payload_size(message[3]))


class WriteRequest(Message, namedtuple("WriteRequest", ("op", "round_no", "tag", "value"))):
    """``W``: adopt ``value`` with ``tag`` if ``tag`` is lexicographically higher.

    Sent by writers in their second round, by readers in their
    write-back round, and by recovering processes replaying their
    interrupted write (Figure 4's ``Recover``).
    """

    __slots__ = ()
    size = _VALUE_SIZE


class WriteAck(Message, namedtuple("WriteAck", ("op", "round_no", "tag"))):
    """``W ack``: the sender has the value durable (or something newer)."""

    __slots__ = ()
    is_ack = True


class ReadQuery(Message, namedtuple("ReadQuery", ("op", "round_no"))):
    """``R``: request the receiver's current value and tag."""

    __slots__ = ()


class ReadAck(
    Message,
    namedtuple(
        "ReadAck", ("op", "round_no", "tag", "value", "durable_tag"), defaults=(None,)
    ),
):
    """``R ack``: the receiver's current value and tag.

    ``durable_tag`` additionally reports the highest tag whose stable-
    storage log has completed at the responder.  The base algorithms
    ignore it; the fast-read optimization
    (:class:`repro.protocol.fast_read.FastReadPersistentProtocol`)
    skips the read's write-back round when a majority unanimously
    reports the same durable tag.
    """

    __slots__ = ()
    size = _VALUE_SIZE
    is_ack = True


class RegisterFrame(namedtuple("RegisterFrame", ("register", "depth", "message", "size"))):
    """One register instance's message inside a :class:`MuxBatch`.

    ``register`` names the virtual register instance (the KV layer uses
    the key itself); ``depth`` is the causal-log depth context the
    single-register engine would have carried in the delivery envelope
    (see :mod:`repro.history.causal_logs`).  Frames are not messages:
    they only travel inside a batch, and they compare as the plain
    tuples they are.

    ``size`` is the billable bytes: register tag plus the full inner
    message.  The inner header (op id, round, tag fields) is a real
    per-frame cost; only the datagram framing is shared across the
    batch.
    """

    __slots__ = ()

    def __new__(cls, register: str, depth: int, message: Message):
        size = FRAME_OVERHEAD + len(register) + message.size
        return _new(cls, (register, depth, message, size))

    def __getnewargs__(self):
        return self[:-1]


_MuxBatch = namedtuple("MuxBatch", ("op", "round_no", "frames", "size"))


class MuxBatch(Message, _MuxBatch):
    """One datagram multiplexing frames of several register instances.

    ``op``/``round_no`` are meaningless at the batch level (each frame
    carries its own); hosts construct batches with ``op=None`` and
    ``round_no=0``.  Batching is transparent to the protocols: the
    receiving host dispatches each frame's inner message to the
    protocol instance registered under the frame's register id.
    """

    __slots__ = ()
    size = _MuxBatch.size

    def __new__(cls, op, round_no, frames=()):
        size = HEADER_SIZE
        for frame in frames:
            size += frame.size
        return _new(cls, (op, round_no, frames, size))

    def __getnewargs__(self):
        return self[:-1]
