"""UDP transport between cluster nodes, and the wire format it speaks.

One non-blocking datagram socket per node, owned by the transport and
registered through ``add_reader`` with the I/O step
(:class:`repro.runtime.node.SocketPoll`) of the node's live
:class:`~repro.common.kernel.Kernel`.  UDP gives
exactly the fair-lossy channel of the model: datagrams can be dropped,
duplicated or reordered, and the protocols' retransmission loops handle
it.  A message that does not fit the 64 KB datagram limit raises, as in
the paper ("a UDP packet cannot contain more than 64KB of data"); a
datagram the socket refuses (full send buffer, unreachable peer) is
simply lost.

Receive path.  The socket's reader is the whole receive path in one
frame and the unpacker's: the kernel runs it straight from its poll
once per readable event, and it reads one datagram with one
``recv_into`` into a buffer of ``MAX_DATAGRAM + 1`` bytes allocated
once, makes :func:`decode`'s checks on the size that call returned,
unpacks, counts, flight-records and hands the message to the node.
Every send and delivery is stamped into the cluster's one flight
recorder, handed to :meth:`UdpTransport.start`.  The
buffer's size matters: one above glibc's 128 KiB mmap threshold
(asyncio's datagram transport asks for 256 KiB) is mapped, faulted in
and unmapped for every datagram.

Send path.  :meth:`UdpTransport.transmit`, the node's send primitive,
encodes once, before anything is sent, unless the message is to this
process alone, then sends to each destination.  ``send`` and
``broadcast`` wrap it; ``send`` refuses what no peer could be sent.

Wire format (little-endian; ``encode``/``decode``)::

    datagram := version u8 | src u16 | depth u32 | message | crc32 u32
    message  := kind u8 | op pid i32 (-1: no op) | op seq i64 | round u32 | body
    body     := -                                   SnQuery, ReadQuery
              | tag                                 SnAck, WriteAck
              | tag | value                         WriteRequest
              | tag | durable? u8 | tag | value     ReadAck
              | count u16 | frame * count           MuxBatch
    tag      := sn u64 | pid u32 | rec u32
    frame    := name bytes u16 | depth u32 | message bytes u32
              | register name (UTF-8) | message     (never a MuxBatch)
    value    := pickle, protocol 4, to the end of the message

The CRC covers everything before it, the frame idiom of the on-disk log
(:mod:`repro.runtime.storage`).  Values travel as pickle bytes and are
loaded only by an unpickler that resolves exactly one global,
:class:`~repro.common.values.SizedValue`: plain data of any shape
travels, and nothing read from the socket can import or call anything
else.

The codec keeps one precompiled struct per shape of message that covers
prefix, head and tags, so a plain message is one ``pack`` plus its
pickled value, and one ``unpack_from``; ids and tags are rebuilt as the
tuples they are.  A batch's frame holds a message packed as a datagram's
is, less the prefix, and read in place with the frame header's last
bytes standing in for the prefix; a frame has no checksum of its own.

What arrives on the socket is outside input.  A datagram that is short,
long, CRC-bad, of another version or kind, not exactly as long as its
kind says, from no peer of ours, or whose value names any other global
is counted in ``malformed`` and dropped; nothing decoded refers to the
receive buffer.

A process's message to itself does not cross the wire (the simulator
prices that hop as ``LOOPBACK_DELAY``, not as a link), so it is neither
encoded nor sized: it is handed, frozen, to the kernel as a zero-delay
event.  It is delivered on a later loop callback, never inside the
transmit, dropped if the process crashed in between, and counted and
flight-recorded exactly as a datagram is.  The values it carries were
checked where they entered the process: at the facade's write
(:func:`check_value`) or by :func:`decode`.
"""

from __future__ import annotations

# The socket module's C core: the ``socket`` module around it converts
# its constants to enums on import, some 7 600 calls of a live
# cluster's set-up, for nothing this transport uses.
import _socket
import io
import pickle
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple
from zlib import crc32

from repro.common.errors import TransportError
from repro.common.ids import OperationId, ProcessId
from repro.common.timestamps import Tag
from repro.common.values import SizedValue
from repro.protocol.messages import (
    Message,
    MuxBatch,
    ReadAck,
    ReadQuery,
    RegisterFrame,
    SnAck,
    SnQuery,
    WriteAck,
    WriteRequest,
)

if TYPE_CHECKING:
    from repro.common.kernel import Kernel
    from repro.obs.ring import RingTrace

#: Hard UDP payload ceiling (IPv4 localhost supports slightly less
#: than 64 KB of payload after headers).
MAX_DATAGRAM = 65000

#: Version byte of the wire format; any other is malformed.
WIRE_VERSION = 1

# One struct per shape of message: prefix (version, src, depth), head
# (kind, op pid, op seq, round) and the kind's tags, if it has any.
_QUERY = struct.Struct("<BHIBiqI")  # SnQuery, ReadQuery
_TAGGED = struct.Struct("<BHIBiqIQII")  # SnAck, WriteAck, WriteRequest: + tag
_READ_ACK = struct.Struct("<BHIBiqIQII?QII")  # + tag, has a durable tag, durable tag
_BATCH = struct.Struct("<BHIBiqIH")  # MuxBatch: + frame count
_FRAME = struct.Struct("<HII")  # name bytes, depth, message bytes
_CRC = struct.Struct("<I")
#: The CRC-32 of any bytes followed by their own CRC-32 (little-endian):
#: one pass over a whole datagram checks it.
_CRC_RESIDUE = 0x2144DF1C
#: Version, src and depth.  A frame holds a datagram's message, packed
#: behind a prefix from process 0 at depth 0 that is then cut off.
_PREFIX_SIZE = struct.calcsize("<BHI")

#: Kind byte -> message class.
_CLASSES = dict(
    enumerate((SnQuery, SnAck, WriteRequest, WriteAck, ReadQuery, ReadAck, MuxBatch), 1)
)
_KINDS = {cls: kind for kind, cls in _CLASSES.items()}
_NO_OP = (-1, 0)
_NO_TAG = (0, 0, 0)
_PICKLE_PROTOCOL = 4
_SCALARS = frozenset((str, bytes, int, float, bool, type(None)))
_SHORTEST = _QUERY.size + _CRC.size
# The wire's tag fields are unsigned, which is all ``Tag.__new__`` checks,
# and an id is any pair: both are built as the tuples they are.
_new = tuple.__new__


class _ValueUnpickler(pickle.Unpickler):
    """Loads plain data and ``SizedValue``; any other global is refused."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) == (SizedValue.__module__, SizedValue.__name__):
            return SizedValue
        raise pickle.UnpicklingError(f"value names the global {module}.{name}")


def _dump_value(value: Any) -> bytes:
    try:
        return pickle.dumps(value, _PICKLE_PROTOCOL)
    except Exception as error:  # whatever the type's own pickling raises
        raise TransportError(
            f"a value of type {type(value).__qualname__} cannot travel: {error}"
        ) from error


def _load_value(data: memoryview) -> Any:
    """The value pickled in ``data``, which it must span exactly.

    A fresh unpickler per value: a reused one answers a memo read with
    an earlier value's object, fails the next memoizing pickle after
    ``memo.clear()``, and crashed CPython 3.11 when handed a new memo.
    """
    stream = io.BytesIO(data)  # a copy: the caller's buffer is reused
    value = _ValueUnpickler(stream).load()
    if stream.tell() != len(data):
        raise ValueError("bytes after the value")
    return value


def check_value(value: Any, register: Optional[str] = None) -> None:
    """Raise :class:`TransportError` unless ``value`` can cross the wire.

    It must be of a type the wire carries, and small enough for the
    largest datagram it will travel in to fit ``MAX_DATAGRAM``: a
    ``ReadAck``, framed alone in a ``MuxBatch`` when the value is
    written to the named ``register``.
    """
    data = _dump_value(value)
    room = MAX_DATAGRAM - (_READ_ACK.size + _CRC.size)
    if register is not None:  # a batch's head and one frame's header
        room -= _BATCH.size - _PREFIX_SIZE + _FRAME.size + len(register.encode())
    if len(data) > room:
        raise TransportError(
            f"a value of {len(data)} encoded bytes cannot travel: {room} fit "
            f"beside the headers in the {MAX_DATAGRAM}-byte UDP datagram limit"
        )
    if type(value) in _SCALARS:
        return  # pickles to no global: loading it back cannot fail
    try:
        _load_value(memoryview(data))
    except Exception as error:
        raise TransportError(
            f"a value of type {type(value).__qualname__} cannot travel: {error}; "
            f"the wire carries plain data and SizedValue"
        ) from error


def encode(src: ProcessId, depth: int, message: Message) -> bytes:
    """One datagram carrying ``message``; :class:`TransportError` if none can."""
    cls = message.__class__
    if cls not in _KINDS:
        raise TransportError(f"{cls.__name__} is not a wire message")
    kind = _KINDS[cls]
    try:
        # Fields go to ``pack`` one by one: a starred argument would
        # build a tuple per call.
        op_pid, op_seq = message.op or _NO_OP
        if cls is ReadAck:
            _, round_no, (sn, pid, rec), value, durable = message
            durable_sn, durable_pid, durable_rec = durable or _NO_TAG
            frame = _READ_ACK.pack(
                WIRE_VERSION, src, depth, kind, op_pid, op_seq, round_no, sn, pid, rec,
                durable is not None, durable_sn, durable_pid, durable_rec,
            ) + _dump_value(value)
        elif cls is WriteRequest or cls is SnAck or cls is WriteAck:
            round_no = message.round_no
            sn, pid, rec = message.tag
            frame = _TAGGED.pack(
                WIRE_VERSION, src, depth, kind, op_pid, op_seq, round_no, sn, pid, rec
            )
            if cls is WriteRequest:
                frame += _dump_value(message.value)
        elif cls is MuxBatch:
            frames = message.frames
            parts = [
                _BATCH.pack(
                    WIRE_VERSION, src, depth, kind, op_pid, op_seq, message.round_no,
                    len(frames),
                )
            ]
            for register, frame_depth, inner, _ in frames:
                if inner.__class__ is MuxBatch:
                    raise TransportError("a MuxBatch cannot travel inside a MuxBatch")
                name = register.encode()
                # The inner message packed as a datagram, less prefix and CRC.
                packed = encode(0, 0, inner)[_PREFIX_SIZE : -_CRC.size]
                parts += (_FRAME.pack(len(name), frame_depth, len(packed)), name, packed)
            frame = b"".join(parts)
        else:
            frame = _QUERY.pack(
                WIRE_VERSION, src, depth, kind, op_pid, op_seq, message.round_no
            )
    except struct.error as error:
        raise TransportError(
            f"{cls.__name__} has a field out of the wire format's range: {error}"
        ) from error
    if len(frame) + _CRC.size > MAX_DATAGRAM:
        raise TransportError(
            f"message of {len(frame) + _CRC.size} bytes exceeds the "
            f"{MAX_DATAGRAM}-byte UDP datagram limit"
        )
    return frame + _CRC.pack(crc32(frame))


def _unpack(data: Any, end: int) -> Tuple[ProcessId, int, Message]:
    """``(src, depth, message)`` of a prefix at 0 and a message ending at ``end``."""
    kind = data[_PREFIX_SIZE]
    if kind not in _CLASSES:
        raise ValueError(f"kind {kind} is none of ours")
    cls = _CLASSES[kind]
    if cls is ReadAck:
        (_, src, depth, _, op_pid, op_seq, round_no, sn, pid, rec,
         durable, durable_sn, durable_pid, durable_rec) = _READ_ACK.unpack_from(data)
        message = _new(ReadAck, (
            None if op_pid < 0 else _new(OperationId, (op_pid, op_seq)),
            round_no,
            _new(Tag, (sn, pid, rec)),
            _load_value(data[_READ_ACK.size : end]),
            _new(Tag, (durable_sn, durable_pid, durable_rec)) if durable else None,
        ))
    elif cls is WriteRequest or cls is SnAck or cls is WriteAck:
        _, src, depth, _, op_pid, op_seq, round_no, sn, pid, rec = _TAGGED.unpack_from(data)
        op = None if op_pid < 0 else _new(OperationId, (op_pid, op_seq))
        tag = _new(Tag, (sn, pid, rec))
        if cls is WriteRequest:
            message = _new(cls, (op, round_no, tag, _load_value(data[_TAGGED.size : end])))
        elif end != _TAGGED.size:
            raise ValueError("the message is longer than its kind")
        else:
            message = _new(cls, (op, round_no, tag))
    elif cls is SnQuery or cls is ReadQuery:
        if end != _QUERY.size:
            raise ValueError("the message is longer than its kind")
        _, src, depth, _, op_pid, op_seq, round_no = _QUERY.unpack_from(data)
        op = None if op_pid < 0 else _new(OperationId, (op_pid, op_seq))
        message = _new(cls, (op, round_no))
    else:  # MuxBatch
        _, src, depth, _, op_pid, op_seq, round_no, count = _BATCH.unpack_from(data)
        at = _BATCH.size
        frames = []
        for _ in range(count):
            name_size, frame_depth, inner_size = _FRAME.unpack_from(data, at)
            name_at = at + _FRAME.size
            inner_at = name_at + name_size
            at = inner_at + inner_size
            if at > end or not inner_size:
                raise ValueError("a frame is empty or runs past its batch")
            if data[inner_at] == kind:
                raise ValueError("a MuxBatch inside a MuxBatch")
            # Read the frame's message as a datagram's, whose prefix is
            # the frame header's last bytes; the prefix's fields are dropped.
            inner = _unpack(data[inner_at - _PREFIX_SIZE : at], _PREFIX_SIZE + inner_size)
            name = str(data[name_at:inner_at], "utf-8")
            frames.append(RegisterFrame(name, frame_depth, inner[2]))
        if at != end:
            raise ValueError("the message is longer than its kind")
        message = MuxBatch(
            None if op_pid < 0 else _new(OperationId, (op_pid, op_seq)),
            round_no,
            tuple(frames),
        )
    return src, depth, message


def decode(data: Any) -> Tuple[ProcessId, int, Message]:
    """``(src, depth, message)`` of one datagram (any bytes-like object).

    Raises on anything that is not exactly one well-formed datagram --
    ``ValueError``, ``struct.error``, ``pickle.UnpicklingError`` or
    whatever a damaged pickle stream raises; callers at the socket treat
    every ``Exception`` as malformed input.  The result holds no
    reference to ``data``.

    The message must span the datagram exactly: a fixed-size kind is
    checked against its struct, a value against the end of its pickle
    stream.  A frame's message is read in place, as a datagram's is.
    """
    size = len(data)
    if not _SHORTEST <= size <= MAX_DATAGRAM:
        raise ValueError("no datagram of ours has this length")
    if crc32(data) != _CRC_RESIDUE:
        raise ValueError("checksum mismatch")
    if data[0] != WIRE_VERSION:
        raise ValueError(f"unknown wire version {data[0]}")
    return _unpack(data, size - _CRC.size)


@dataclass(frozen=True)
class Peer:
    """Network address of one cluster member."""

    pid: ProcessId
    host: str
    port: int


ReceiveCallback = Callable[[ProcessId, Message, int], None]


class UdpTransport:
    """One node's UDP socket and its view of the peer set."""

    def __init__(self, pid: ProcessId, host: str = "127.0.0.1", port: int = 0):
        self.pid = pid
        # The destinations of a message to this process alone.
        self._itself = (pid,)
        self.host = host
        self.port = port
        self._addresses: Dict[ProcessId, Tuple[str, int]] = {}
        self._sock: Optional[_socket.socket] = None
        self._kernel: Optional[Kernel] = None
        self._receive: Optional[ReceiveCallback] = None
        # One byte more than the largest datagram of ours: a longer one
        # is cut by the kernel, fills the buffer and is refused as long.
        self._buffer = memoryview(bytearray(MAX_DATAGRAM + 1))
        self.messages_sent = 0
        self.messages_received = 0
        #: Datagrams dropped: not a message of a known peer.
        self.malformed = 0
        #: Set to True to drop all I/O (crash emulation).
        self.muted = False
        # The flight recorder sends and deliveries are stamped into.
        self._ring: Optional[RingTrace] = None
        self._ring_send = self._ring_deliver = 0

    def start(self, receive: ReceiveCallback, kernel: Kernel, ring: RingTrace) -> None:
        """Bind the socket and deliver to ``receive`` while live ``kernel`` runs.

        Every send and delivery is stamped into the flight recorder
        ``ring``, whose kind codes are resolved once here (the
        pre-resolved-handle discipline of :mod:`repro.obs`): each stores
        into the ring's public slots inline, as
        :meth:`repro.obs.tracing.Trace.record` does, with no method call.
        The destinations of one transmit share one ``kernel.clock()``
        reading; a delivery is stamped with the kernel's time of the
        event that carries it (:attr:`~repro.common.kernel.Kernel.now`),
        as on the simulator: the poll that found the datagram, or the
        instant a message to itself fell due.
        """
        # Resolved here, blocking: the configured host is an address
        # literal wherever this repository binds.
        # As bytes, because a str host makes Python import its IDNA
        # codec (stringprep, unicodedata: 0.75 MB resident) to encode it.
        family, kind, proto, _, address = _socket.getaddrinfo(
            self.host.encode(), self.port, type=_socket.SOCK_DGRAM
        )[0]
        sock = _socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(address)
        except OSError:
            sock.close()
            raise
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._receive = receive
        self._kernel = kernel
        self._ring = ring
        self._ring_send = ring.kind_id("send")
        self._ring_deliver = ring.kind_id("deliver")
        kernel.io.add_reader(sock.fileno(), self._on_datagram)

    def set_peers(self, peers: List[Peer]) -> None:
        """Install the cluster membership (including this node)."""
        self._addresses = {peer.pid: (peer.host, peer.port) for peer in peers}

    def send(self, dst: ProcessId, message: Message, depth: int) -> None:
        """One message to ``dst``; what no peer could be sent is not sent, even to itself."""
        if dst not in self._addresses:
            raise TransportError(f"unknown peer {dst}")
        if dst == self.pid:
            encode(self.pid, depth, message)  # raises if it cannot travel
        self.transmit((dst,), message, depth)

    def broadcast(self, message: Message, depth: int) -> None:
        """Send to every known peer, including this node."""
        self.transmit(self._addresses, message, depth)

    def transmit(self, dsts: Iterable[ProcessId], message: Message, depth: int) -> None:
        """Send ``message`` to each of ``dsts``: the one send path.

        Encoded once, first, unless ``dsts`` is this process alone, so
        that a message that cannot travel raises before anything is sent.
        """
        payload = None if dsts == self._itself else encode(self.pid, depth, message)
        sock = self._sock
        if self.muted or sock is None:
            return
        ring = self._ring
        now = self._kernel.clock()  # one reading for every destination
        for dst in dsts:
            if dst == self.pid:
                self._kernel.schedule(0.0, self._deliver, dst, depth, message)
            else:
                try:
                    sock.sendto(payload, self._addresses[dst])
                except OSError:
                    # A full send buffer, an unreachable peer: the
                    # channel lost this datagram, retransmission covers it.
                    continue
            self.messages_sent += 1
            index = ring.next_index
            ring.times[index] = now
            ring.codes[index] = self._ring_send
            ring.pids[index] = self.pid
            ring.ops[index] = message.op
            index += 1
            if index == ring.end:
                ring.wrap()
            else:
                ring.next_index = index

    def _on_datagram(self, data: Any = None) -> None:
        """Receive one datagram: ``data``, or the next one on the socket.

        The socket's reader: the whole receive path in this frame and
        the unpacker's.  It makes :func:`decode`'s checks itself, on the
        size ``recv_into`` returned.  A message to itself arrives
        through :meth:`_deliver` instead.
        """
        if data is None:
            try:
                size = self._sock.recv_into(self._buffer)
            except OSError:  # nothing there after all, or an ICMP error report
                return
            data = self._buffer[:size]
        else:
            size = len(data)
        if self.muted:
            return
        ours = False
        if (
            _SHORTEST <= size <= MAX_DATAGRAM
            and crc32(data) == _CRC_RESIDUE
            and data[0] == WIRE_VERSION
        ):
            try:
                src, depth, message = _unpack(data, size - _CRC.size)
                ours = src in self._addresses
            except Exception:  # whatever the bytes decode to, it is not ours
                pass
        if not ours:
            self.malformed += 1  # drop, like a checksum failure
            return
        self.messages_received += 1
        ring = self._ring
        index = ring.next_index
        ring.times[index] = self._kernel.now  # the poll that found it
        ring.codes[index] = self._ring_deliver
        ring.pids[index] = self.pid
        ring.ops[index] = message.op
        index += 1
        if index == ring.end:
            ring.wrap()
        else:
            ring.next_index = index
        self._receive(src, message, depth)

    def _deliver(self, src: ProcessId, depth: int, message: Message) -> None:
        """Receive a message to itself, on the loop callback after its send."""
        if self.muted or self._receive is None:
            return
        self.messages_received += 1
        ring = self._ring
        index = ring.next_index
        ring.times[index] = self._kernel.now  # the instant it fell due
        ring.codes[index] = self._ring_deliver
        ring.pids[index] = self.pid
        ring.ops[index] = message.op
        index += 1
        if index == ring.end:
            ring.wrap()
        else:
            ring.next_index = index
        self._receive(src, message, depth)

    def close(self) -> None:
        """Stop reading and release the socket."""
        if self._sock is not None:
            self._kernel.io.remove_reader(self._sock.fileno())
            self._sock.close()
            self._sock = self._receive = None
