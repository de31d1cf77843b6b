"""Asyncio UDP transport between cluster nodes.

One datagram socket per node; messages are pickled
``(src, depth, message)`` triples.  UDP gives exactly the fair-lossy
channel of the model: datagrams can be dropped, duplicated or
reordered, and the protocols' retransmission loops handle it.
Payloads above the 64 KB datagram limit raise, as in the paper
("a UDP packet cannot contain more than 64KB of data").

A process's message to itself does not cross the wire (the simulator
prices that hop as ``LOOPBACK_DELAY``, not as a link): ``send`` hands
the frozen message to ``loop.call_soon``.  It is delivered on a later
loop callback, never inside ``send``, dropped if the process crashed in
between, and counted and flight-recorded exactly as a datagram is.

What arrives on the socket is outside input: anything but ``(known
peer pid, int depth, Message)`` is counted in ``malformed`` and dropped.
"""

from __future__ import annotations

import asyncio
import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import TransportError
from repro.common.ids import ProcessId
from repro.protocol.messages import Message

#: Hard UDP payload ceiling (IPv4 localhost supports slightly less
#: than 64 KB of payload after headers).
MAX_DATAGRAM = 65000


@dataclass(frozen=True)
class Peer:
    """Network address of one cluster member."""

    pid: ProcessId
    host: str
    port: int


ReceiveCallback = Callable[[ProcessId, Message, int], None]


class _Endpoint(asyncio.DatagramProtocol):
    def __init__(self, transport_owner: "UdpTransport"):
        self._owner = transport_owner

    def datagram_received(self, data: bytes, addr) -> None:
        self._owner._on_datagram(data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        # ICMP errors (e.g. peer not yet bound) are expected on UDP and
        # handled by retransmission.
        pass


class UdpTransport:
    """One node's UDP endpoint and its view of the peer set."""

    def __init__(self, pid: ProcessId, host: str = "127.0.0.1", port: int = 0):
        self.pid = pid
        self.host = host
        self.port = port
        self._peers: Dict[ProcessId, Peer] = {}
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._receive: Optional[ReceiveCallback] = None
        self._call_soon: Optional[Callable[..., object]] = None
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
        discipline of :mod:`repro.obs`); the per-datagram cost is one
        ``record`` call.
        """
        self._ring = ring
        self._ring_clock = clock
        self._ring_send = ring.kind_id("send")
        self._ring_deliver = ring.kind_id("deliver")

    async def start(self, receive: ReceiveCallback) -> None:
        """Bind the socket and start delivering to ``receive``."""
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=(self.host, self.port)
        )
        self._transport = transport
        self._receive = receive
        self._call_soon = loop.call_soon
        sockname = transport.get_extra_info("sockname")
        self.port = sockname[1]

    def set_peers(self, peers: List[Peer]) -> None:
        """Install the cluster membership (including this node)."""
        self._peers = {peer.pid: peer for peer in peers}

    def send(self, dst: ProcessId, message: Message, depth: int) -> None:
        """Fire-and-forget one message to ``dst``: a datagram unless to itself."""
        if self.muted or self._transport is None:
            return
        peer = self._peers.get(dst)
        if peer is None:
            raise TransportError(f"unknown peer {dst}")
        if dst == self.pid:
            self._call_soon(self._deliver, dst, depth, message)
        else:
            payload = pickle.dumps((self.pid, depth, message))
            if len(payload) > MAX_DATAGRAM:
                raise TransportError(
                    f"message of {len(payload)} bytes exceeds the "
                    f"{MAX_DATAGRAM}-byte UDP datagram limit"
                )
            self._transport.sendto(payload, (peer.host, peer.port))
        self.messages_sent += 1
        ring = self._ring
        if ring is not None:
            ring.record(
                self._ring_clock(), self._ring_send, self.pid, message.op
            )

    def broadcast(self, message: Message, depth: int) -> None:
        """Send to every known peer, including this node."""
        for pid in self._peers:
            self.send(pid, message, depth)

    def _on_datagram(self, data: bytes) -> None:
        if self.muted:
            return
        try:
            src, depth, message = pickle.loads(data)
            ours = src in self._peers and type(depth) is int and isinstance(message, Message)
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
            ring.record(
                self._ring_clock(), self._ring_deliver, self.pid, message.op
            )
        self._receive(src, message, depth)

    def close(self) -> None:
        """Release the socket."""
        if self._transport is not None:
            self._transport.close()
            self._transport = self._receive = None
