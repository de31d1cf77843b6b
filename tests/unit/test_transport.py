"""Unit tests for the UDP transport (real sockets on localhost).

The socket tests run the transport on the kernel the live backend
builds, :func:`repro.runtime.node.live_kernel`.
"""

import os
import pickle
import socket
import struct
import zlib
from types import SimpleNamespace

import pytest

from repro.common.errors import TransportError
from repro.common.ids import OperationId, make_operation_id
from repro.common.timestamps import Tag
from repro.common.values import SizedValue
from repro.obs.ring import FIRST_SLOTS, RingTrace
from repro.obs.tracing import ALL_KINDS
from repro.protocol.messages import (
    MuxBatch,
    ReadAck,
    ReadQuery,
    RegisterFrame,
    SnAck,
    SnQuery,
    WriteAck,
    WriteRequest,
)
from repro.runtime import transport as transport_module
from repro.runtime.node import live_kernel
from repro.runtime.transport import (
    MAX_DATAGRAM,
    Peer,
    UdpTransport,
    check_value,
    decode,
    encode,
)


@pytest.fixture
def kernel():
    return live_kernel()


def run_for(kernel, seconds):
    """Run ``kernel`` for ``seconds`` wall seconds."""
    kernel.run_until(lambda: False, timeout=seconds)


def endpoints(kernel, *receivers, ring=None):
    """One started transport per receive callback, all peers of each other.

    They stamp into ``ring``, one flight recorder shared as a live
    cluster shares it, or a fresh one.
    """
    ring = RingTrace(kinds=ALL_KINDS) if ring is None else ring
    transports = [UdpTransport(pid) for pid in range(len(receivers))]
    for transport, receive in zip(transports, receivers):
        transport.start(receive, kernel, ring)
    peers = [Peer(t.pid, t.host, t.port) for t in transports]
    for transport in transports:
        transport.set_peers(peers)
    return transports


def query(pid=0):
    return SnQuery(op=make_operation_id(pid), round_no=1)


def oversized():
    return WriteRequest(
        op=make_operation_id(0),
        round_no=1,
        tag=Tag(1, 0),
        value=b"x" * (MAX_DATAGRAM + 1),
    )


def one_of_each_kind():
    """One message of every kind on the wire, a two-frame batch last."""
    op, tag = make_operation_id(1), Tag(3, 1, 2)
    plain = [
        SnQuery(op, 1),
        SnAck(op, 1, tag),
        WriteRequest(op, 2, tag, {"k": [1, "\u00e9", b"\0"]}),
        WriteAck(op, 2, tag),
        ReadQuery(None, 0),
        ReadAck(op, 1, tag, "value", durable_tag=Tag(2, 0)),
    ]
    frames = (
        RegisterFrame("limits.rps", 4, plain[2]),
        RegisterFrame("cl\u00e9", 0, plain[5]),
    )
    return plain + [MuxBatch(None, 0, frames)]


#: One datagram of every shape the wire has, as its bytes in hex: what
#: ``encode`` must write and ``decode`` must read back, whatever the
#: codec's code looks like.
GOLDEN_OP, GOLDEN_TAG = OperationId(2, 41), Tag(7, 2, 1)
GOLDEN = {
    "sn-query": (
        2, 3, SnQuery(GOLDEN_OP, 1),
        "01020003000000010200000029000000000000000100000021964e89",
    ),
    "sn-query-no-op": (
        0, 0, SnQuery(None, 0),
        "0100000000000001ffffffff000000000000000000000000eed006b6",
    ),
    "sn-ack": (
        1, 4, SnAck(GOLDEN_OP, 1, GOLDEN_TAG),
        "01010004000000020200000029000000000000000100000007000000000000000200"
        "0000010000006dcbf06b",
    ),
    "write-request-str": (
        2, 5, WriteRequest(GOLDEN_OP, 2, GOLDEN_TAG, "caf\u00e9"),
        "01020005000000030200000029000000000000000200000007000000000000000200"
        "00000100000080049509000000000000008c05636166c3a9942ee4adaae6",
    ),
    "write-request-sized": (
        2, 5, WriteRequest(GOLDEN_OP, 2, GOLDEN_TAG, SizedValue("photo", 4096)),
        "01020005000000030200000029000000000000000200000007000000000000000200"
        "0000010000008004954b000000000000008c13726570726f2e636f6d6d6f6e2e7661"
        "6c756573948c0a53697a656456616c75659493942981944e7d94288c056c6162656c"
        "948c0570686f746f948c0473697a65944d0010758694622edf269bdd",
    ),
    "write-ack": (
        0, 6, WriteAck(GOLDEN_OP, 2, GOLDEN_TAG),
        "01000006000000040200000029000000000000000200000007000000000000000200"
        "0000010000005bc76ee6",
    ),
    "read-query-no-op": (
        1, 0, ReadQuery(None, 0),
        "0101000000000005ffffffff000000000000000000000000f51d7d5e",
    ),
    "read-ack-durable": (
        0, 7, ReadAck(GOLDEN_OP, 1, GOLDEN_TAG, 42, Tag(6, 0)),
        "01000007000000060200000029000000000000000100000007000000000000000200"
        "000001000000010600000000000000000000000000000080044b2a2e8efa30bb",
    ),
    "read-ack": (
        1, 7, ReadAck(GOLDEN_OP, 1, GOLDEN_TAG, None, None),
        "01010007000000060200000029000000000000000100000007000000000000000200"
        "000001000000000000000000000000000000000000000080044e2e255de79f",
    ),
    "mux-batch": (
        2, 0, MuxBatch(None, 0, (
            RegisterFrame("k\u00e9y", 3, SnQuery(GOLDEN_OP, 1)),
            RegisterFrame("k2", 9, WriteRequest(GOLDEN_OP, 2, GOLDEN_TAG, b"\0v")),
        )),
        "0102000000000007ffffffff0000000000000000000000000200040003000000110000"
        "006bc3a9790102000000290000000000000001000000020009000000320000006b3203"
        "0200000029000000000000000200000007000000000000000200000001000000800495"
        "060000000000000043020076942ebf7a4fd3",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_datagram(name):
    src, depth, message, datagram = GOLDEN[name]
    assert encode(src, depth, message).hex() == datagram
    decoded = decode(bytes.fromhex(datagram))
    assert decoded == (src, depth, message)
    # The reprs name every field's class: ids, tags and sizes included.
    assert repr(decoded[2]) == repr(message)


def sealed(frame):
    """``frame`` with the CRC a well-behaved sender would append."""
    return bytes(frame) + struct.pack("<I", zlib.crc32(frame))


def listener():
    """An unstarted transport of process 0, peer of process 1, that decodes what it is handed.

    What it delivers is stamped into its ``_ring`` at time 0.
    """
    transport = UdpTransport(0)
    transport.set_peers([Peer(0, "127.0.0.1", 1), Peer(1, "127.0.0.1", 2)])
    received = []
    transport._receive = lambda src, msg, depth: received.append((src, depth, msg))
    transport._kernel = SimpleNamespace(now=0.0)
    transport._ring = ring = RingTrace(kinds=ALL_KINDS)
    transport._ring_deliver = ring.kind_id("deliver")
    return transport, received


class StubSocket:
    """Plays back ``incoming`` datagrams; ``sendto`` raises ``refusal``."""

    def __init__(self, incoming=(), refusal=None):
        self.incoming = list(incoming)
        self.refusal = refusal
        self.asked = []

    def recv_into(self, buffer):
        self.asked.append(len(buffer))
        if not self.incoming:
            raise BlockingIOError
        data = self.incoming.pop(0)
        buffer[: len(data)] = data
        return len(data)

    def sendto(self, data, address):
        raise self.refusal


class TestUdpTransport:
    def test_round_trip_between_two_endpoints(self, kernel):
        received = []
        a, b = endpoints(
            kernel,
            lambda src, msg, depth: None,
            lambda src, msg, depth: received.append((src, depth, msg)),
        )
        a.send(1, query(), depth=3)
        kernel.run_until(lambda: received, timeout=1.0)
        a.close()
        b.close()
        assert len(received) == 1
        src, depth, message = received[0]
        assert src == 0
        assert depth == 3
        assert isinstance(message, SnQuery)

    def test_round_trip_over_ipv6_loopback(self, kernel):
        """The socket's family is the configured host's."""
        received = []
        ring = RingTrace(kinds=ALL_KINDS)
        a = UdpTransport(0, host="::1")
        try:
            a.start(lambda src, msg, depth: received.append((src, depth)), kernel, ring)
        except OSError:
            pytest.skip("no IPv6 loopback here")
        b = UdpTransport(1, host="::1")
        b.start(lambda *args: None, kernel, ring)
        for transport in (a, b):
            transport.set_peers([Peer(0, a.host, a.port), Peer(1, b.host, b.port)])
        b.send(0, query(1), depth=1)
        kernel.run_until(lambda: received, timeout=1.0)
        a.close()
        b.close()
        assert received == [(1, 1)]

    def test_unknown_peer_raises(self, kernel):
        (a,) = endpoints(kernel, lambda *args: None)
        with pytest.raises(TransportError):
            a.send(7, query(), 0)
        a.close()

    def test_oversized_datagram_rejected(self, kernel):
        a, b = endpoints(kernel, lambda *args: None, lambda *args: None)
        huge = WriteRequest(
            op=make_operation_id(0),
            round_no=1,
            tag=Tag(1, 0),
            value=b"x" * (MAX_DATAGRAM + 1),
        )
        with pytest.raises(TransportError):
            a.send(1, huge, 0)
        a.close()
        b.close()
        assert a.messages_sent == 0

    def test_muted_transport_drops_everything(self, kernel):
        received = []
        a, b = endpoints(
            kernel,
            lambda src, msg, depth: received.append(msg),
            lambda src, msg, depth: received.append(msg),
        )
        a.muted = True
        a.send(1, query(), 0)  # a muted sender sends nothing,
        a.send(0, query(), 0)
        b.send(0, query(1), 0)  # a muted receiver hears nothing
        run_for(kernel, 0.05)
        a.close()
        b.close()
        assert (received, a.messages_sent, a.messages_received) == ([], 0, 0)

    def test_message_to_itself_is_delivered_later_and_off_the_wire(self, kernel, monkeypatch):
        received = []
        ring = RingTrace(kinds=ALL_KINDS)
        (a,) = endpoints(
            kernel, lambda src, msg, depth: received.append((src, depth, msg)), ring=ring
        )
        encoded = []
        monkeypatch.setattr(transport_module, "encode", lambda *args: encoded.append(args))

        def on_the_wire(data):
            raise AssertionError("a message to itself crossed the socket")

        a._on_datagram = on_the_wire
        # A query, and a reader's answer to itself: a value, never encoded.
        op = make_operation_id(0)
        messages = [query(), ReadAck(op, 1, Tag(2, 0), {"v": [1, (2, "x")]}, Tag(1, 0))]
        for message in messages:
            a.transmit((0,), message, 2)  # the node's send primitive
        inside_send = list(received)
        run_for(kernel, 0.05)
        a.close()
        events = list(ring.events())
        assert inside_send == []  # never re-entrant
        assert encoded == []
        assert [(src, depth) for src, depth, _ in received] == [(0, 2), (0, 2)]
        assert all(delivered is message for (_, _, delivered), message in zip(received, messages))
        assert [event.kind for event in events] == ["send", "send", "deliver", "deliver"]
        assert [event.op for event in events] == [message.op for message in messages] * 2
        assert (a.messages_sent, a.messages_received) == (2, 2)

    def test_message_to_itself_is_dropped_by_a_crash_before_delivery(self, kernel):
        received = []
        (a,) = endpoints(kernel, lambda src, msg, depth: received.append(msg))
        a.send(0, query(), 0)
        a.muted = True  # the crash lands between send and delivery
        run_for(kernel, 0.05)
        a.close()
        assert (received, a.messages_sent, a.messages_received) == ([], 1, 0)

    def test_a_shared_ring_grows_and_wraps_under_every_writer(self, kernel):
        """Past the ring's first 1 024 slots and round its end, over real sockets.

        Sends (``transmit``), datagrams (``_on_datagram``) and messages
        to itself (``_deliver``) all stamp into one shared ring, which
        must grow at its wrap point and then wrap, under each writer.
        """
        ring = RingTrace(capacity=FIRST_SLOTS + 476, kinds=ALL_KINDS)
        inboxes = {0: [], 1: [], 2: []}
        transports = endpoints(
            kernel,
            *(
                lambda src, msg, depth, pid=pid: inboxes[pid].append(msg)
                for pid in inboxes
            ),
            ring=ring,
        )
        sent = 0
        for _ in range(15):  # rounds small enough for the socket buffers
            for _ in range(20):
                transports[0].broadcast(query(), 0)
            sent += 20
            kernel.run_until(
                lambda: all(len(box) == sent for box in inboxes.values()), timeout=2.0
            )
        for transport in transports:
            transport.close()
        sends = sum(t.messages_sent for t in transports)
        deliveries = sum(t.messages_received for t in transports)
        assert sends + deliveries == ring.total > ring.capacity > FIRST_SLOTS
        assert (ring.end, ring.wraps) == (ring.capacity, 1)
        assert (ring.count("send"), ring.count("deliver")) == (sends, deliveries)
        assert len(ring.events()) == ring.capacity
        assert deliveries > 3 * 200  # nearly every datagram arrived

    def test_broadcast_reaches_all_peers_including_self(self, kernel):
        inboxes = {0: [], 1: [], 2: []}
        transports = endpoints(
            kernel,
            *(
                lambda src, msg, depth, pid=pid: inboxes[pid].append(msg)
                for pid in inboxes
            ),
        )
        transports[1].broadcast(query(1), 0)
        kernel.run_until(lambda: all(inboxes.values()), timeout=1.0)
        for transport in transports:
            transport.close()
        assert all(len(box) == 1 for box in inboxes.values())

    def test_garbage_datagrams_are_dropped(self, tmp_path):
        transport, received = listener()
        messages = one_of_each_kind()
        dropped = 0

        def drop(data):
            nonlocal dropped
            transport._on_datagram(data)  # must not raise
            dropped += 1
            assert transport.malformed == dropped, data

        drop(b"")
        drop(b"not-a-datagram")
        drop(pickle.dumps((1, 0, query())))  # the format this one replaced
        drop(encode(7, 0, query()))  # well-formed, from no peer of ours
        for message in messages:
            good = encode(1, 5, message)
            for cut in range(len(good)):
                drop(good[:cut])
            for at in range(len(good)):
                for bit in range(8):
                    flipped = bytearray(good)
                    flipped[at] ^= 1 << bit
                    drop(flipped)
            drop(good + b"\0")
            # The same inside a valid checksum: nothing may follow the
            # message, not even behind a value's own end marker.
            drop(sealed(good[:-4] + b"\0"))
            for version in (0, 2, 255):
                drop(sealed(bytes([version]) + good[1:-4]))
            for kind in (0, 8, 255):  # the kind byte follows the 7-byte prefix
                drop(sealed(good[:7] + bytes([kind]) + good[8:-4]))

        # A batch inside a batch, which ``encode`` refuses to build.
        batch = messages[-1]
        with pytest.raises(TransportError, match="inside a MuxBatch"):
            encode(1, 0, MuxBatch(None, 0, (RegisterFrame("k", 0, batch),)))
        def batch_of(inner):  # one frame "k", laid out by hand
            return sealed(
                struct.pack("<BHI", 1, 1, 0)
                + struct.pack("<BiqI", 7, -1, 0, 0)
                + struct.pack("<H", 1)
                + struct.pack("<HII", 1, 0, len(inner))
                + b"k"
                + inner
            )

        framed = MuxBatch(None, 0, (RegisterFrame("k", 0, messages[0]),))
        assert decode(batch_of(encode(1, 0, messages[0])[7:-4])) == (1, 0, framed)
        drop(batch_of(encode(1, 0, batch)[7:-4]))

        # A value that, unpickled freely, would run a command.
        marker = tmp_path / "ran"

        class Payload:
            def __reduce__(self):
                return os.system, (f"touch {marker}",)

        harmless = encode(1, 0, WriteRequest(make_operation_id(1), 2, Tag(1, 1), None))
        no_value = harmless[: -4 - len(pickle.dumps(None, 4))]
        assert decode(sealed(no_value + pickle.dumps(None, 4)))[2].value is None
        drop(sealed(no_value + pickle.dumps(Payload())))
        drop(sealed(no_value + pickle.dumps(Tag(1, 1))))  # ours, still not plain data
        assert not marker.exists()

        assert received == [] and transport.messages_received == 0
        for message in messages:
            transport._on_datagram(encode(1, 5, message))
        assert received == [(1, 5, message) for message in messages]
        assert transport.malformed == dropped
        # Only what was delivered is stamped.
        assert transport._ring.counts() == {"deliver": len(messages)}

    def test_oversized_broadcast_sends_nothing(self, kernel):
        """Refused whole: not half-sent, not counted, not recorded."""
        inboxes = {0: [], 1: []}
        ring = RingTrace(kinds=ALL_KINDS)
        a, b = endpoints(
            kernel,
            *(
                lambda src, msg, depth, pid=pid: inboxes[pid].append(msg)
                for pid in inboxes
            ),
            ring=ring,
        )
        with pytest.raises(TransportError, match="datagram limit"):
            a.broadcast(oversized(), 0)
        with pytest.raises(TransportError, match="datagram limit"):
            a.send(0, oversized(), 0)  # what no peer could be sent, it is not sent
        run_for(kernel, 0.05)
        a.close()
        b.close()
        assert (inboxes, a.messages_sent, list(ring.events())) == ({0: [], 1: []}, 0, [])

    @pytest.mark.parametrize(
        "refusal", [BlockingIOError(), OSError(101, "Network is unreachable")]
    )
    def test_datagram_the_socket_refuses_is_lost(self, kernel, refusal):
        inbox = []
        ring = RingTrace(kinds=ALL_KINDS)
        a, b = endpoints(
            kernel, lambda src, msg, depth: inbox.append(msg), lambda *args: None, ring=ring
        )
        bound, a._sock = a._sock, StubSocket(refusal=refusal)
        a.send(1, query(), 0)  # the handler that called this lives on
        sent_to_peer = a.messages_sent, list(ring.events())
        a.broadcast(query(), 0)  # still reaches the process itself
        a._sock = bound
        run_for(kernel, 0.05)
        a.close()
        b.close()
        assert (sent_to_peer, a.messages_sent, len(inbox), b.messages_received) == (
            (0, []), 1, 1, 0
        )

    def test_receive_buffer_is_small_and_never_aliased(self):
        transport, received = listener()
        first = WriteRequest(make_operation_id(1), 2, Tag(1, 1), b"first" * 9)
        second = WriteRequest(make_operation_id(1), 2, Tag(2, 1), b"other" * 9)
        datagrams = [encode(1, 0, first), encode(1, 1, second)]
        assert len(datagrams[0]) == len(datagrams[1])  # byte for byte over it
        transport._sock = stub = StubSocket(datagrams + [bytes(MAX_DATAGRAM + 1)])
        transport._on_datagram()
        (held,) = received
        transport._on_datagram()
        assert received == [(1, 0, first), (1, 1, second)] and received[0] is held
        # A datagram longer than any of ours is cut to the buffer and dropped.
        transport._on_datagram()
        assert transport.malformed == 1
        transport._on_datagram()  # a wake-up with nothing to read
        # Above 128 KiB glibc would map and unmap the buffer per call.
        assert stub.asked == [MAX_DATAGRAM + 1] * 4
        assert (len(received), transport.malformed) == (2, 1)

    def test_back_to_back_values_that_memoize_decode_exactly(self):
        """Each value is loaded by a fresh unpickler: no memo leaks between datagrams.

        A pickle that reads a memo slot it never wrote is malformed, and
        the datagram after it still decodes.
        """
        transport, received = listener()
        op, tag = make_operation_id(1), Tag(2, 1)
        values = ["v1234", b"bytes", {"a": [1, 2, (3, "x")]}, ("s", "s"), ["q", "q", "q"]]
        good = [WriteRequest(op, 2, tag, value) for value in values]
        good += [ReadAck(op, 1, tag, value, tag) for value in values]
        header = encode(1, 0, WriteRequest(op, 2, tag, None))[: -4 - len(pickle.dumps(None, 4))]
        stale_memo = sealed(header + b"\x80\x04h\x00.")
        last = WriteRequest(op, 2, tag, ("s", "s"))
        transport._sock = StubSocket(
            [encode(1, 0, message) for message in good]
            + [stale_memo, encode(1, 0, last)]
        )
        for _ in range(len(good) + 2):
            transport._on_datagram()
        decoded = [message for _, _, message in received]
        assert decoded == good + [last]
        assert [type(message.value) for message in decoded] == [
            type(message.value) for message in good + [last]
        ]
        assert transport.malformed == 1

    def test_overlong_datagram_from_a_real_socket_is_dropped(self, kernel):
        inbox = []
        (a,) = endpoints(kernel, lambda src, msg, depth: inbox.append(msg))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stranger:
            stranger.sendto(bytes(MAX_DATAGRAM + 200), (a.host, a.port))
            stranger.sendto(b"short", (a.host, a.port))
        kernel.run_until(lambda: a.malformed == 2, timeout=1.0)
        a.close()
        assert (a.malformed, inbox) == (2, [])

    def test_close_leaves_no_reader_on_the_loop(self, kernel):
        (a,) = endpoints(kernel, lambda *args: None)
        fd = a._sock.fileno()
        a.close()
        a.close()  # idempotent
        a.send(0, query(), 0)  # and a closed transport sends nothing
        assert (kernel.io.remove_reader(fd), a._sock, a.messages_sent) == (False, None, 0)


class TestValueCodec:
    def test_plain_data_and_sized_values_travel(self):
        from repro.common.values import SizedValue

        for value in (None, True, 2**80, -1.5, "\u00e9", b"\0", (1, [2, {"k": {3}}])):
            check_value(value)
        check_value(SizedValue("photo", size=48 * 1024))

    def test_anything_else_is_refused_with_its_type_named(self):
        class Local:
            pass

        with pytest.raises(TransportError, match="Local"):
            check_value(Local())  # cannot even be pickled
        with pytest.raises(TransportError, match="Tag.*plain data and SizedValue"):
            check_value(Tag(1, 1))  # can, but names a global
        with pytest.raises(TransportError, match="function"):
            check_value(len)

    @pytest.mark.parametrize("register", [None, "k\u00e9y"])
    def test_a_value_is_refused_exactly_when_its_read_ack_cannot_be_encoded(self, register):
        def datagram(value):
            ack = ReadAck(make_operation_id(0), 1, Tag(1, 0), value, Tag(1, 0))
            if register is not None:
                ack = MuxBatch(None, 0, (RegisterFrame(register, 0, ack),))
            return encode(0, 0, ack)

        size = MAX_DATAGRAM
        while True:  # the largest bytes value whose worst-case datagram fits
            size -= 1
            try:
                check_value(bytes(size), register)
                break
            except TransportError:
                pass
        assert len(datagram(bytes(size))) == MAX_DATAGRAM
        with pytest.raises(TransportError, match="encoded bytes cannot travel"):
            check_value(bytes(size + 1), register)
        with pytest.raises(TransportError, match="exceeds"):
            datagram(bytes(size + 1))

    def test_field_out_of_range_is_refused_by_encode(self):
        with pytest.raises(TransportError, match="out of the wire format's range"):
            encode(0, 0, SnQuery(make_operation_id(0), round_no=2**32))
        with pytest.raises(TransportError, match="not a wire message"):
            encode(0, 0, RegisterFrame("k", 0, query()))
