"""UDP transport between cluster nodes, and the wire format it speaks.

One non-blocking datagram socket per node, owned by the transport and
registered with the node's caller-driven selector loop
(:class:`repro.runtime.node.Loop`) through ``add_reader``.  UDP gives
exactly the fair-lossy channel of the model: datagrams can be dropped,
duplicated or reordered, and the protocols' retransmission loops handle
it.  A message that does not fit the 64 KB datagram limit raises, as in
the paper ("a UDP packet cannot contain more than 64KB of data"); a
datagram the socket refuses (full send buffer, unreachable peer) is
simply lost.

Each readable event costs one ``recv_into`` into a buffer of
``MAX_DATAGRAM + 1`` bytes allocated once.  The size matters: a receive
buffer above glibc's 128 KiB mmap threshold (asyncio's datagram
transport asks for 256 KiB) is mapped, faulted in and unmapped for every
datagram.

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
(:mod:`repro.runtime.storage`).  Values travel as pickle bytes but are
loaded by an unpickler that resolves exactly one global,
:class:`~repro.common.values.SizedValue`: plain data of any shape
travels, and nothing read from the socket can import or call anything
else.

What arrives on the socket is outside input.  A datagram that is short,
long, CRC-bad, of another version or kind, not exactly as long as its
kind says, from no peer of ours, or whose value names any other global
is counted in ``malformed`` and dropped; nothing decoded refers to the
receive buffer.

A process's message to itself does not cross the wire (the simulator
prices that hop as ``LOOPBACK_DELAY``, not as a link): it is handed,
frozen, to ``loop.call_soon``.  It is delivered on a later loop
callback, never inside ``send``, dropped if the process crashed in
between, and measured, counted and flight-recorded exactly as a
datagram is.
"""

from __future__ import annotations

import io
import pickle
import socket
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
    from repro.runtime.node import Loop

#: Hard UDP payload ceiling (IPv4 localhost supports slightly less
#: than 64 KB of payload after headers).
MAX_DATAGRAM = 65000

#: Version byte of the wire format; any other is malformed.
WIRE_VERSION = 1

_PREFIX = struct.Struct("<BHI")  # version, src, depth
_HEAD = struct.Struct("<BiqI")  # kind, op pid, op seq, round
_TAG = struct.Struct("<QII")
_TAGS = struct.Struct("<QII?QII")  # ReadAck: tag, has a durable tag, durable tag
_COUNT = struct.Struct("<H")
_FRAME = struct.Struct("<HII")  # name bytes, depth, message bytes
_CRC = struct.Struct("<I")

#: Kind byte -> message class.
_CLASSES = dict(
    enumerate((SnQuery, SnAck, WriteRequest, WriteAck, ReadQuery, ReadAck, MuxBatch), 1)
)
_KINDS = {cls: kind for kind, cls in _CLASSES.items()}
_NO_OP = (-1, 0)
_NO_TAG = (0, 0, 0)
_PICKLE_PROTOCOL = 4
_SCALARS = frozenset((str, bytes, int, float, bool, type(None)))
_SHORTEST = _PREFIX.size + _HEAD.size + _CRC.size


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
    room = MAX_DATAGRAM - (_PREFIX.size + _HEAD.size + _TAGS.size + _CRC.size)
    if register is not None:
        room -= _HEAD.size + _COUNT.size + _FRAME.size + len(register.encode())
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


def _pack_message(message: Message) -> bytes:
    cls = type(message)
    kind = _KINDS.get(cls)
    if kind is None:
        raise TransportError(f"{cls.__name__} is not a wire message")
    op = message.op
    head = _HEAD.pack(kind, *(_NO_OP if op is None else op), message.round_no)
    if cls is SnQuery or cls is ReadQuery:
        return head
    if cls is SnAck or cls is WriteAck:
        return head + _TAG.pack(*message.tag)
    if cls is WriteRequest:
        return head + _TAG.pack(*message.tag) + _dump_value(message.value)
    if cls is ReadAck:
        durable = message.durable_tag
        tags = _TAGS.pack(
            *message.tag, durable is not None, *(_NO_TAG if durable is None else durable)
        )
        return head + tags + _dump_value(message.value)
    parts = [head, _COUNT.pack(len(message.frames))]
    for frame in message.frames:
        if type(frame.message) is MuxBatch:
            raise TransportError("a MuxBatch cannot travel inside a MuxBatch")
        name = frame.register.encode()
        inner = _pack_message(frame.message)
        parts += (_FRAME.pack(len(name), frame.depth, len(inner)), name, inner)
    return b"".join(parts)


def encode(src: ProcessId, depth: int, message: Message) -> bytes:
    """One datagram carrying ``message``; :class:`TransportError` if none can."""
    try:
        frame = _PREFIX.pack(WIRE_VERSION, src, depth) + _pack_message(message)
    except struct.error as error:
        raise TransportError(
            f"{type(message).__name__} has a field out of the wire format's "
            f"range: {error}"
        ) from error
    if len(frame) + _CRC.size > MAX_DATAGRAM:
        raise TransportError(
            f"message of {len(frame) + _CRC.size} bytes exceeds the "
            f"{MAX_DATAGRAM}-byte UDP datagram limit"
        )
    return frame + _CRC.pack(crc32(frame))


def _unpack_message(data: memoryview, batched: bool = False) -> Message:
    """The message that spans ``data`` exactly; a read past its end raises."""
    kind, op_pid, op_seq, round_no = _HEAD.unpack_from(data)
    cls = _CLASSES.get(kind)
    op = None if op_pid < 0 else OperationId(op_pid, op_seq)
    at = _HEAD.size
    fields: Tuple[Any, ...] = ()
    if cls is SnQuery or cls is ReadQuery:
        pass
    elif cls is SnAck or cls is WriteAck:
        fields = (Tag(*_TAG.unpack_from(data, at)),)
        at += _TAG.size
    elif cls is WriteRequest:
        tag = Tag(*_TAG.unpack_from(data, at))
        fields = (tag, _load_value(data[at + _TAG.size :]))
        at = len(data)  # a value runs to the end, and checks that it does
    elif cls is ReadAck:
        sn, pid, rec, has_durable, *durable = _TAGS.unpack_from(data, at)
        value = _load_value(data[at + _TAGS.size :])
        fields = (Tag(sn, pid, rec), value, Tag(*durable) if has_durable else None)
        at = len(data)
    elif cls is MuxBatch and not batched:
        (count,) = _COUNT.unpack_from(data, at)
        at += _COUNT.size
        frames = []
        for _ in range(count):
            name_size, depth, size = _FRAME.unpack_from(data, at)
            name_at = at + _FRAME.size
            inner_at = name_at + name_size
            at = inner_at + size
            if at > len(data):
                raise ValueError("a frame runs past its batch")
            frames.append(
                RegisterFrame(
                    str(data[name_at:inner_at], "utf-8"),
                    depth,
                    _unpack_message(data[inner_at:at], batched=True),
                )
            )
        fields = (tuple(frames),)
    else:
        raise ValueError(f"kind {kind} is none of ours here")
    if at != len(data):
        raise ValueError("the message is longer than its kind")
    return cls(op, round_no, *fields)


def decode(data: Any) -> Tuple[ProcessId, int, Message]:
    """``(src, depth, message)`` of one datagram (any bytes-like object).

    Raises on anything that is not exactly one well-formed datagram --
    ``ValueError``, ``struct.error``, ``pickle.UnpicklingError`` or
    whatever a damaged pickle stream raises; callers at the socket treat
    every ``Exception`` as malformed input.  The result holds no
    reference to ``data``.
    """
    view = memoryview(data)
    if not _SHORTEST <= len(view) <= MAX_DATAGRAM:
        raise ValueError("no datagram of ours has this length")
    frame = view[: -_CRC.size]
    if _CRC.unpack_from(view, len(frame))[0] != crc32(frame):
        raise ValueError("checksum mismatch")
    version, src, depth = _PREFIX.unpack_from(frame)
    if version != WIRE_VERSION:
        raise ValueError(f"unknown wire version {version}")
    return src, depth, _unpack_message(frame[_PREFIX.size :])


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
        self.host = host
        self.port = port
        self._addresses: Dict[ProcessId, Tuple[str, int]] = {}
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[Loop] = None
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
        # Optional flight recorder (attach_flight_recorder); when
        # attached, send/receive are mirrored into the shared ring.
        self._ring = None
        self._ring_clock: Optional[Callable[[], float]] = None
        self._ring_send = 0
        self._ring_deliver = 0

    def attach_flight_recorder(
        self, ring, clock: Callable[[], float]
    ) -> None:
        """Mirror sends/receives into ``ring``, timestamped by ``clock``.

        Kind codes are resolved once here (the pre-resolved-handle
        discipline of :mod:`repro.obs`); each send and delivery stores
        into the ring's public slots inline, as
        :meth:`repro.obs.tracing.Trace.tick` does, with one ``clock()``
        call and no method call.
        """
        self._ring = ring
        self._ring_clock = clock
        self._ring_send = ring.kind_id("send")
        self._ring_deliver = ring.kind_id("deliver")

    def start(self, receive: ReceiveCallback, loop: Loop) -> None:
        """Bind the socket and deliver to ``receive`` while ``loop`` runs."""
        # Resolved here, blocking: the configured host is an address
        # literal wherever this repository binds.
        # As bytes, because a str host makes Python import its IDNA
        # codec (stringprep, unicodedata: 0.75 MB resident) to encode it.
        family, kind, proto, _, address = socket.getaddrinfo(
            self.host.encode(), self.port, type=socket.SOCK_DGRAM
        )[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(address)
        except OSError:
            sock.close()
            raise
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._receive = receive
        self._loop = loop
        loop.add_reader(sock.fileno(), self._on_readable)

    def set_peers(self, peers: List[Peer]) -> None:
        """Install the cluster membership (including this node)."""
        self._addresses = {peer.pid: (peer.host, peer.port) for peer in peers}

    def send(self, dst: ProcessId, message: Message, depth: int) -> None:
        """Fire-and-forget one message to ``dst``: a datagram unless to itself."""
        if dst not in self._addresses:
            raise TransportError(f"unknown peer {dst}")
        self._transmit((dst,), message, depth)

    def broadcast(self, message: Message, depth: int) -> None:
        """Send to every known peer, including this node."""
        self._transmit(self._addresses, message, depth)

    def _transmit(
        self, dsts: Iterable[ProcessId], message: Message, depth: int
    ) -> None:
        """Encode once, refuse what cannot travel, then send to ``dsts``."""
        sock = self._sock
        if self.muted or sock is None:
            return
        payload = encode(self.pid, depth, message)
        ring = self._ring
        for dst in dsts:
            if dst == self.pid:
                self._loop.call_soon(self._deliver, dst, depth, message)
            else:
                try:
                    sock.sendto(payload, self._addresses[dst])
                except OSError:
                    # A full send buffer, an unreachable peer: the
                    # channel lost this datagram, retransmission covers it.
                    continue
            self.messages_sent += 1
            if ring is not None:
                index = ring.next_index
                ring.times[index] = self._ring_clock()
                ring.codes[index] = self._ring_send
                ring.pids[index] = self.pid
                ring.ops[index] = message.op
                index += 1
                if index == ring.capacity:
                    ring.next_index = 0
                    ring.wraps += 1
                else:
                    ring.next_index = index

    def _on_readable(self) -> None:
        """One datagram per readable event."""
        try:
            size = self._sock.recv_into(self._buffer)
        except OSError:  # nothing there after all, or an ICMP error report
            return
        self._on_datagram(self._buffer[:size])

    def _on_datagram(self, data: Any) -> None:
        if self.muted:
            return
        try:
            src, depth, message = decode(data)
            ours = src in self._addresses
        except Exception:  # whatever the bytes decode to, it is not ours
            ours = False
        if not ours:
            self.malformed += 1  # drop, like a checksum failure
            return
        self._deliver(src, depth, message)

    def _deliver(self, src: ProcessId, depth: int, message: Message) -> None:
        """Receive side of both paths, the socket's and the loop's."""
        if self.muted or self._receive is None:
            return
        self.messages_received += 1
        ring = self._ring
        if ring is not None:
            index = ring.next_index
            ring.times[index] = self._ring_clock()
            ring.codes[index] = self._ring_deliver
            ring.pids[index] = self.pid
            ring.ops[index] = message.op
            index += 1
            if index == ring.capacity:
                ring.next_index = 0
                ring.wraps += 1
            else:
                ring.next_index = index
        self._receive(src, message, depth)

    def close(self) -> None:
        """Stop reading and release the socket."""
        if self._sock is not None:
            self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
            self._sock = self._receive = None
