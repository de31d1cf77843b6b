"""Unit tests for the UDP transport (real sockets on localhost)."""

import asyncio

import pytest

from repro.common.errors import TransportError
from repro.common.ids import make_operation_id
from repro.common.timestamps import Tag
from repro.protocol.messages import SnQuery, WriteRequest
from repro.runtime.transport import MAX_DATAGRAM, Peer, UdpTransport


def run(coro):
    return asyncio.new_event_loop().run_until_complete(coro)


class TestUdpTransport:
    def test_round_trip_between_two_endpoints(self):
        async def scenario():
            received = []
            a = UdpTransport(0)
            b = UdpTransport(1)
            await a.start(lambda src, msg, depth: None)
            await b.start(lambda src, msg, depth: received.append((src, depth, msg)))
            peers = [
                Peer(0, a.host, a.port),
                Peer(1, b.host, b.port),
            ]
            a.set_peers(peers)
            b.set_peers(peers)
            message = SnQuery(op=make_operation_id(0), round_no=1)
            a.send(1, message, depth=3)
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
            a = UdpTransport(0)
            await a.start(lambda *args: None)
            a.set_peers([Peer(0, a.host, a.port)])
            with pytest.raises(TransportError):
                a.send(7, SnQuery(op=make_operation_id(0), round_no=1), 0)
            a.close()

        run(scenario())

    def test_oversized_datagram_rejected(self):
        async def scenario():
            a = UdpTransport(0)
            await a.start(lambda *args: None)
            a.set_peers([Peer(0, a.host, a.port)])
            huge = WriteRequest(
                op=make_operation_id(0),
                round_no=1,
                tag=Tag(1, 0),
                value=b"x" * (MAX_DATAGRAM + 1),
            )
            with pytest.raises(TransportError):
                a.send(0, huge, 0)
            a.close()

        run(scenario())

    def test_muted_transport_drops_everything(self):
        async def scenario():
            received = []
            a = UdpTransport(0)
            await a.start(lambda src, msg, depth: received.append(msg))
            a.set_peers([Peer(0, a.host, a.port)])
            a.muted = True
            a.send(0, SnQuery(op=make_operation_id(0), round_no=1), 0)
            await asyncio.sleep(0.05)
            a.close()
            return received, a.messages_sent

        received, sent = run(scenario())
        assert received == []
        assert sent == 0

    def test_broadcast_reaches_all_peers_including_self(self):
        async def scenario():
            inboxes = {0: [], 1: [], 2: []}
            transports = []
            for pid in range(3):
                transport = UdpTransport(pid)
                await transport.start(
                    lambda src, msg, depth, pid=pid: inboxes[pid].append(msg)
                )
                transports.append(transport)
            peers = [Peer(t.pid, t.host, t.port) for t in transports]
            for transport in transports:
                transport.set_peers(peers)
            transports[1].broadcast(SnQuery(op=make_operation_id(1), round_no=1), 0)
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

        def fail_on_receive(*args):
            raise AssertionError("garbage datagram reached _receive")

        transport._receive = fail_on_receive
        transport._on_datagram(b"not-a-pickle")  # must not raise
