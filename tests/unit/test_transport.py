"""Unit tests for the UDP transport (real sockets on localhost)."""

import asyncio
import pickle

import pytest

from repro.common.errors import TransportError
from repro.common.ids import make_operation_id
from repro.common.timestamps import Tag
from repro.obs.ring import RingTrace
from repro.obs.tracing import ALL_KINDS
from repro.protocol.messages import SnQuery, WriteRequest
from repro.runtime.transport import MAX_DATAGRAM, Peer, UdpTransport


run = asyncio.run


async def endpoints(*receivers):
    """One started transport per receive callback, all peers of each other."""
    transports = [UdpTransport(pid) for pid in range(len(receivers))]
    for transport, receive in zip(transports, receivers):
        await transport.start(receive)
    peers = [Peer(t.pid, t.host, t.port) for t in transports]
    for transport in transports:
        transport.set_peers(peers)
    return transports


def query(pid=0):
    return SnQuery(op=make_operation_id(pid), round_no=1)


class TestUdpTransport:
    def test_round_trip_between_two_endpoints(self):
        async def scenario():
            received = []
            a, b = await endpoints(
                lambda src, msg, depth: None,
                lambda src, msg, depth: received.append((src, depth, msg)),
            )
            a.send(1, query(), depth=3)
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            a.close()
            b.close()
            return received

        received = run(scenario())
        assert len(received) == 1
        src, depth, message = received[0]
        assert src == 0
        assert depth == 3
        assert isinstance(message, SnQuery)

    def test_unknown_peer_raises(self):
        async def scenario():
            (a,) = await endpoints(lambda *args: None)
            with pytest.raises(TransportError):
                a.send(7, query(), 0)
            a.close()

        run(scenario())

    def test_oversized_datagram_rejected(self):
        async def scenario():
            a, b = await endpoints(lambda *args: None, lambda *args: None)
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
            return a.messages_sent

        assert run(scenario()) == 0

    def test_muted_transport_drops_everything(self):
        async def scenario():
            received = []
            a, b = await endpoints(
                lambda src, msg, depth: received.append(msg),
                lambda src, msg, depth: received.append(msg),
            )
            a.muted = True
            a.send(1, query(), 0)  # a muted sender sends nothing,
            a.send(0, query(), 0)
            b.send(0, query(1), 0)  # a muted receiver hears nothing
            await asyncio.sleep(0.05)
            a.close()
            b.close()
            return received, a.messages_sent, a.messages_received

        assert run(scenario()) == ([], 0, 0)

    def test_message_to_itself_is_delivered_later_and_off_the_wire(self):
        async def scenario():
            received = []
            (a,) = await endpoints(
                lambda src, msg, depth: received.append((src, depth, msg))
            )
            ring = RingTrace(kinds=ALL_KINDS)
            a.attach_flight_recorder(ring, asyncio.get_running_loop().time)

            def on_the_wire(data):
                raise AssertionError("a message to itself crossed the socket")

            a._on_datagram = on_the_wire
            message = query()
            a.send(0, message, depth=2)
            inside_send = list(received)
            await asyncio.sleep(0.05)
            a.close()
            kinds = [event.kind for event in ring.events()]
            return inside_send, received, message, kinds, a

        inside_send, received, message, kinds, a = run(scenario())
        assert inside_send == []  # never re-entrant
        assert len(received) == 1
        src, depth, delivered = received[0]
        assert (src, depth) == (0, 2) and delivered is message
        assert kinds == ["send", "deliver"]
        assert (a.messages_sent, a.messages_received) == (1, 1)

    def test_message_to_itself_is_dropped_by_a_crash_before_delivery(self):
        async def scenario():
            received = []
            (a,) = await endpoints(lambda src, msg, depth: received.append(msg))
            a.send(0, query(), 0)
            a.muted = True  # the crash lands between send and delivery
            await asyncio.sleep(0.05)
            a.close()
            return received, a.messages_sent, a.messages_received

        assert run(scenario()) == ([], 1, 0)

    def test_broadcast_reaches_all_peers_including_self(self):
        async def scenario():
            inboxes = {0: [], 1: [], 2: []}
            transports = await endpoints(
                *(
                    lambda src, msg, depth, pid=pid: inboxes[pid].append(msg)
                    for pid in inboxes
                )
            )
            transports[1].broadcast(query(1), 0)
            for _ in range(100):
                if all(inboxes.values()):
                    break
                await asyncio.sleep(0.01)
            for transport in transports:
                transport.close()
            return inboxes

        inboxes = run(scenario())
        assert all(len(box) == 1 for box in inboxes.values())

    def test_garbage_datagrams_are_dropped(self):
        transport = UdpTransport(0)
        transport.set_peers([Peer(0, "127.0.0.1", 1), Peer(1, "127.0.0.1", 2)])
        received = []
        transport._receive = lambda src, msg, depth: received.append(src)
        garbage = [
            b"not-a-pickle",
            pickle.dumps(1),  # not a triple
            pickle.dumps((1, 2, 3)),  # a triple, but no message in it
            pickle.dumps((7, 0, query())),  # from no peer of ours
            pickle.dumps((1, "deep", query())),
            pickle.dumps(([], 0, query())),
        ]
        for data in garbage:
            transport._on_datagram(data)  # must not raise
        assert received == []
        assert transport.malformed == len(garbage)
        assert transport.messages_received == 0
        transport._on_datagram(pickle.dumps((1, 0, query())))
        assert received == [1] and transport.malformed == len(garbage)
