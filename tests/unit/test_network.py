"""Unit tests for the simulated fair-lossy network."""

import random
from functools import partial

import pytest

from repro.common.config import NetworkConfig
from repro.common.ids import make_operation_id
from repro.net.delay import DelayModel
from repro.protocol.messages import ReadQuery, SnQuery, WriteRequest
from repro.common.timestamps import Tag
from repro.obs import tracing
from repro.sim.kernel import Kernel
from repro.sim.network import LOOPBACK_DELAY, SimNetwork
from repro.obs.tracing import Trace


def make_network(n=3, **config_kwargs):
    kernel = Kernel(seed=0)
    trace = Trace()
    network = SimNetwork(kernel, n, NetworkConfig(**config_kwargs), trace)
    inboxes = {pid: [] for pid in range(n)}
    for pid in range(n):
        network.attach(pid, inbox_handler(inboxes[pid]))
    return kernel, network, inboxes, trace


def inbox_handler(inbox):
    """A delivery handler filing ``(src, message, depth)`` into ``inbox``."""
    return lambda src, message, depth: inbox.append((src, message, depth))


def ignore(src, message, depth):
    pass


def query(pid=0):
    return SnQuery(op=make_operation_id(pid), round_no=1)


class TestDelivery:
    def test_message_arrives_after_configured_delay(self):
        kernel, network, inboxes, _ = make_network(send_overhead=0.0)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1
        assert kernel.now == pytest.approx(
            NetworkConfig().base_delay + query().size / NetworkConfig().bandwidth
        )

    def test_loopback_is_fast(self):
        kernel, network, inboxes, _ = make_network(send_overhead=0.0)
        network.send(1, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1
        assert kernel.now == pytest.approx(LOOPBACK_DELAY)

    def test_broadcast_reaches_everyone_including_sender(self):
        kernel, network, inboxes, _ = make_network(n=5)
        network.broadcast(2, query(), depth=0)
        kernel.run()
        assert all(len(inboxes[pid]) == 1 for pid in range(5))

    def test_envelope_carries_metadata(self):
        kernel, network, inboxes, _ = make_network()
        first, second = query(), query()
        network.send(0, 1, first, depth=3)
        network.send(2, 1, second, depth=5)
        kernel.run()
        assert inboxes[1] == [(0, first, 3), (2, second, 5)]
        assert inboxes[0] == inboxes[2] == []

    def test_out_of_range_destination_rejected(self):
        _, network, _, _ = make_network(n=3)
        with pytest.raises(ValueError):
            network.send(0, 7, query(), depth=0)

    def test_oversized_broadcast_sends_and_counts_nothing(self):
        kernel, network, inboxes, trace = make_network(max_payload=1024)
        oversized = WriteRequest(
            op=make_operation_id(0), round_no=1, tag=Tag(1, 0), value=b"x" * 2048
        )
        with pytest.raises(ValueError, match="exceeds the transport maximum"):
            network.broadcast(0, oversized, depth=0)
        assert kernel.pending_events == 0
        assert (network.messages_sent, network.bytes_sent) == (0, 0)
        assert trace.count(tracing.SEND) == 0
        kernel.run()
        assert all(inbox == [] for inbox in inboxes.values())

    def test_oversized_loopback_is_rejected_too(self):
        kernel, network, _, trace = make_network(max_payload=1024)
        oversized = WriteRequest(
            op=make_operation_id(1), round_no=1, tag=Tag(1, 1), value=b"x" * 2048
        )
        with pytest.raises(ValueError, match="exceeds the transport maximum"):
            network.send(1, 1, oversized, depth=0)
        assert kernel.pending_events == 0
        assert (network.messages_sent, network.bytes_sent) == (0, 0)
        assert trace.count(tracing.SEND) == 0

    def test_larger_messages_take_longer(self):
        kernel, network, inboxes, _ = make_network(send_overhead=0.0)
        small = WriteRequest(
            op=make_operation_id(0), round_no=1, tag=Tag(1, 0), value=b"x"
        )
        big = WriteRequest(
            op=make_operation_id(0), round_no=1, tag=Tag(1, 0), value=b"x" * 32768
        )
        network.send(0, 1, big, depth=0)
        network.send(0, 2, small, depth=0)
        kernel.run()
        # The small message to p2 overtakes the big one to p1.
        assert inboxes[2] and inboxes[1]

    def test_sender_egress_serializes_transmissions(self):
        kernel, network, inboxes, _ = make_network(n=2, send_overhead=1e-5)
        arrival_times = []
        network.attach(1, lambda src, message, depth: arrival_times.append(kernel.now))
        network.send(0, 1, query(), depth=0)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert arrival_times[1] - arrival_times[0] == pytest.approx(1e-5)


class TestHandlerShape:
    """``attach`` settles how a handler is called, once, from its signature."""

    def deliveries(self, attach):
        kernel, network, _, _ = make_network(n=2)
        seen = []
        attach(network, seen)
        message = query()
        network.send(0, 1, message, depth=4)
        kernel.run()
        return seen, message

    def test_three_positional_parameters_get_the_triple_spread(self):
        def handler(seen, src, message, depth):
            seen.append((src, message, depth))

        for shape in (
            lambda seen: lambda src, message, depth: handler(seen, src, message, depth),
            lambda seen: partial(handler, seen),
            lambda seen: lambda src, *rest: seen.append((src, *rest)),
            lambda seen: lambda *triple: seen.append(triple),
        ):
            seen, message = self.deliveries(lambda network, seen: network.attach(1, shape(seen)))
            assert seen == [(0, message, 4)]

    def test_bound_method_with_varargs_is_not_mistaken_for_one_parameter(self):
        class Sink:
            def __init__(self):
                self.seen = []

            def on_message(self, *triple):
                self.seen.append(triple)

        sink = Sink()
        _, message = self.deliveries(lambda network, _: network.attach(1, sink.on_message))
        assert sink.seen == [(0, message, 4)]

    def test_one_parameter_sink_gets_the_triple_as_one_argument(self):
        # The shape bench/probes.py attaches (see DeliveryHandler).
        for shape in (lambda seen: lambda envelope: seen.append(envelope),
                      lambda seen: seen.append):
            seen, message = self.deliveries(lambda network, seen: network.attach(1, shape(seen)))
            assert seen == [(0, message, 4)]

    def test_one_parameter_sink_is_adapted_at_attach_not_at_delivery(self):
        _, network, _, _ = make_network(n=2)

        def sink(envelope):
            pass

        network.attach(0, ignore)
        network.attach(1, sink)
        assert network._handlers[0] is ignore
        assert network._handlers[1] is not sink

    @pytest.mark.parametrize(
        "handler", [lambda: None, lambda src, message: None, lambda a, b, c, d: None, 3]
    )
    def test_any_other_shape_is_refused_at_attach(self, handler):
        kernel, network, inboxes, _ = make_network(n=2)
        with pytest.raises(TypeError):
            network.attach(1, handler)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1  # the handler attached before still stands


class TestDelayModelParity:
    """``_transmit`` inlines :class:`DelayModel`; this ties the two together."""

    CONFIG = dict(
        drop_probability=0.2, duplicate_probability=0.3, max_jitter=4e-5, send_overhead=3e-6
    )

    def test_delivery_times_and_rng_draws_equal_the_reference_model(self):
        kernel, network, _, _ = make_network(n=4, **self.CONFIG)
        arrivals = []
        for pid in range(4):
            network.attach(
                pid, lambda src, message, depth, pid=pid: arrivals.append((kernel.now, pid))
            )
        network.slow_link(0, 2, 7e-5)
        model, rng = DelayModel(NetworkConfig(**self.CONFIG)), random.Random(0)
        overhead = self.CONFIG["send_overhead"]
        expected, free_at = [], 0.0
        for round_no in range(40):
            message = SnQuery(op=make_operation_id(0), round_no=round_no)
            network.broadcast(0, message, depth=0)
            for dst in range(4):
                if dst == 0:
                    free_at += overhead
                    expected.append((free_at + LOOPBACK_DELAY, dst))
                    continue
                if model.should_drop(rng):
                    continue
                copies = 1
                while True:
                    free_at += overhead
                    delay = model.sample(message.size, rng).total
                    delay += network.link_penalty(0, dst)
                    expected.append((free_at + delay, dst))
                    if copies == 2 or not model.should_duplicate(rng):
                        break
                    copies = 2
        assert kernel.rng.getstate() == rng.getstate()
        kernel.run()
        assert [dst for _, dst in sorted(expected)] == [dst for _, dst in arrivals]
        assert [time for time, _ in arrivals] == pytest.approx(
            [time for time, _ in sorted(expected)], rel=1e-12
        )
        assert 0 < network.messages_dropped < 120 < len(arrivals)


class TestPartitions:
    def test_blocked_link_drops_messages(self):
        kernel, network, inboxes, trace = make_network()
        network.block(0, 1)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert inboxes[1] == []
        assert trace.count(tracing.DROP) == 1

    def test_blocking_is_directional(self):
        kernel, network, inboxes, _ = make_network()
        network.block(0, 1)
        network.send(1, 0, query(), depth=0)
        kernel.run()
        assert len(inboxes[0]) == 1

    def test_unblock_restores_delivery(self):
        kernel, network, inboxes, _ = make_network()
        network.block(0, 1)
        network.unblock(0, 1)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1

    def test_partition_blocks_both_directions(self):
        kernel, network, inboxes, _ = make_network(n=4)
        network.partition({0, 1}, {2, 3})
        network.send(0, 2, query(), depth=0)
        network.send(3, 1, query(), depth=0)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert inboxes[2] == []
        assert inboxes[1] != []  # same side still connected

    def test_heal_all(self):
        kernel, network, inboxes, _ = make_network(n=4)
        network.partition({0, 1}, {2, 3})
        network.heal_all()
        network.send(0, 2, query(), depth=0)
        kernel.run()
        assert len(inboxes[2]) == 1


class TestFilters:
    def test_filter_drops_matching_messages(self):
        kernel, network, inboxes, _ = make_network()
        network.add_filter(lambda src, dst, msg: isinstance(msg, ReadQuery))
        network.send(0, 1, ReadQuery(op=make_operation_id(0), round_no=1), depth=0)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1
        assert isinstance(inboxes[1][0][1], SnQuery)

    def test_filter_removal(self):
        kernel, network, inboxes, _ = make_network()
        remove = network.add_filter(lambda src, dst, msg: True)
        remove()
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) == 1

    def test_filter_removal_is_idempotent(self):
        _, network, _, _ = make_network()
        remove = network.add_filter(lambda src, dst, msg: True)
        remove()
        remove()


class TestLossAndDuplication:
    def test_lossy_link_drops_roughly_at_rate(self):
        kernel, network, inboxes, _ = make_network(drop_probability=0.5)
        for _ in range(400):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        delivered = len(inboxes[1])
        assert 120 < delivered < 280

    def test_loopback_is_never_dropped(self):
        kernel, network, inboxes, _ = make_network(drop_probability=0.9)
        for _ in range(50):
            network.send(0, 0, query(), depth=0)
        kernel.run()
        assert len(inboxes[0]) == 50

    def test_duplication_delivers_extra_copies(self):
        kernel, network, inboxes, _ = make_network(duplicate_probability=0.5)
        for _ in range(200):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) > 220

    def test_retransmission_eventually_delivers(self):
        # Fair-lossiness: with loss probability < 1, enough retries get
        # at least one message through.
        kernel, network, inboxes, _ = make_network(drop_probability=0.8)
        for _ in range(100):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        assert len(inboxes[1]) >= 1

    def test_statistics_counters(self):
        kernel, network, inboxes, _ = make_network(drop_probability=0.5)
        for _ in range(100):
            network.send(0, 1, query(), depth=0)
        kernel.run()
        assert network.messages_sent == 100
        assert network.messages_delivered == len(inboxes[1])
        assert network.messages_dropped == 100 - len(inboxes[1])
        assert network.bytes_sent == 100 * query().size


class TestFaultFreeBranch:
    """A send skips the armed loop exactly while nothing is armed.

    The armed loop is the only caller of ``Kernel.schedule``; the
    fault-free branch pushes onto the heap itself.  The property that
    both loops agree is in ``tests/properties/test_network_properties.py``.
    """

    def _scheduling_sends(self, network, kernel):
        """How many of a broadcast's four entries went through ``schedule``."""
        calls = []
        schedule = kernel.schedule
        kernel.schedule = lambda *args: calls.append(args) or schedule(*args)
        network.broadcast(0, query(), depth=0)
        del kernel.schedule
        return len(calls)

    @pytest.mark.parametrize(
        "arm, disarm",
        [
            (lambda n: n.block(0, 1), lambda n: n.unblock(0, 1)),
            (lambda n: n.block(0, 1), lambda n: n.heal_all()),
            (lambda n: n.partition({0}, {1, 2}), lambda n: n.heal_all()),
            (
                lambda n: (n.block(0, 1), n.block(0, 1)),
                lambda n: (n.unblock(0, 1), n.unblock(0, 1)),
            ),
            (lambda n: n.add_filter(lambda *_: False), lambda n, remove: remove()),
            (lambda n: n.slow_link(0, 1, 1e-5), lambda n: n.unslow_link(0, 1, 1e-5)),
            (lambda n: n.slow_link(0, 1, 1e-5), lambda n: n.reset_link_speeds()),
            (
                # Float dust below a picosecond is no penalty.
                lambda n: (n.slow_link(0, 1, 1e-5), n.slow_link(0, 1, 2.5e-4)),
                lambda n: (n.unslow_link(0, 1, 2.5e-4), n.unslow_link(0, 1, 1e-5)),
            ),
        ],
    )
    def test_disarming_restores_the_fault_free_branch(self, arm, disarm):
        kernel, network, _, _ = make_network(n=4)
        assert self._scheduling_sends(network, kernel) == 0
        armed = arm(network)
        assert self._scheduling_sends(network, kernel) + network.messages_dropped == 4
        if callable(armed):  # a filter's remover
            disarm(network, armed)
        else:
            disarm(network)
        dropped = network.messages_dropped
        assert self._scheduling_sends(network, kernel) == 0
        assert network.messages_dropped == dropped

    def test_a_stacked_block_keeps_the_link_armed_until_its_last_release(self):
        kernel, network, _, _ = make_network(n=4)
        network.block(0, 1)
        network.block(0, 1)
        network.unblock(0, 1)
        assert self._scheduling_sends(network, kernel) == 3  # (0, 1) still dropped
        network.unblock(0, 1)
        assert self._scheduling_sends(network, kernel) == 0

    def test_a_removed_filter_leaves_the_others_armed(self):
        kernel, network, _, _ = make_network(n=4)
        remove = network.add_filter(lambda *_: False)
        network.add_filter(lambda *_: False)
        remove()
        assert self._scheduling_sends(network, kernel) == 4

    @pytest.mark.parametrize(
        "config", [{"max_jitter": 1e-5}, {"drop_probability": 0.1}, {"duplicate_probability": 0.1}]
    )
    def test_a_drawing_channel_is_always_armed(self, config):
        kernel, network, _, _ = make_network(n=4, **config)
        network.block(0, 1)
        network.heal_all()
        sent = self._scheduling_sends(network, kernel)
        assert sent + network.messages_dropped >= 4

    def test_a_fault_armed_by_a_send_record_applies_to_that_send(self):
        # A trace listener may arm a fault inside the broadcast's own
        # loop (a trace-triggered partition): the destinations after it
        # see it, the SEND that triggered it included.
        kernel, network, inboxes, trace = make_network(n=4)
        trace.subscribe(
            lambda event: event.detail["dst"] == 2 and network.block(0, 2),
            kinds=[tracing.SEND],
        )
        network.broadcast(0, query(), depth=0)
        kernel.run()
        assert [len(inboxes[pid]) for pid in range(4)] == [1, 1, 0, 1]
        assert network.messages_dropped == 1


class TestTracingFastPath:
    """A whole simulated cluster builds a TraceEvent only when one is wanted.

    The network, the node host and the storage all record through
    ``Trace.record``; the counter wraps the one class they could build.
    """

    def _counting_run(self, monkeypatch, capture, kinds=None):
        from repro.api import open_cluster

        constructed = []
        real = tracing.TraceEvent

        def counting(*args, **kwargs):
            event = real(*args, **kwargs)
            constructed.append(event.kind)
            return event

        monkeypatch.setattr(tracing, "TraceEvent", counting)
        cluster = open_cluster(
            "sim", num_processes=3, seed=5, capture_trace=capture,
            checkpoint_interval=4e-4,
        )
        seen = []
        if kinds is not None:
            cluster.trace.subscribe(seen.append, kinds=kinds)
        cluster.start()
        session = cluster.session(0)
        session.write_sync("a")
        cluster.crash(2)
        session.write_sync("b")
        cluster.recover(2)
        session.read_sync()
        cluster.run(2e-3)
        counts = {kind: cluster.trace.count(kind) for kind in tracing.ALL_KINDS}
        return cluster, constructed, counts, seen

    def test_quiet_trace_builds_no_events(self, monkeypatch):
        cluster, constructed, counts, _ = self._counting_run(monkeypatch, False)
        assert constructed == []
        # ... but the counts are exact for the metrics layer: the same
        # as a capturing run's, which is the same run.
        monkeypatch.undo()
        _, captured, captured_counts, _ = self._counting_run(monkeypatch, True)
        assert counts == captured_counts
        assert counts == {k: captured.count(k) for k in tracing.ALL_KINDS}
        assert counts[tracing.SEND] == cluster.network.messages_sent
        assert counts[tracing.DELIVER] == cluster.network.messages_delivered
        assert counts[tracing.INVOKE] == counts[tracing.REPLY] == 3

    def test_default_trace_is_quiet(self, monkeypatch):
        kernel = Kernel(seed=0)
        network = SimNetwork(kernel, 2, NetworkConfig())  # no trace argument
        network.attach(0, ignore)
        network.attach(1, ignore)
        network.send(0, 1, query(), depth=0)
        kernel.run()
        assert network.messages_delivered == 1

    def test_kind_listener_reactivates_only_its_kind(self, monkeypatch):
        _, constructed, counts, seen = self._counting_run(
            monkeypatch, False, kinds=[tracing.STORE_END]
        )
        assert constructed == [tracing.STORE_END] * counts[tracing.STORE_END]
        assert len(seen) == counts[tracing.STORE_END] > 0

    def test_capture_builds_every_event(self, monkeypatch):
        cluster, constructed, counts, _ = self._counting_run(monkeypatch, True)
        assert len(constructed) == len(cluster.trace.events) == sum(counts.values())
        # Network, storage and host events alike.
        assert set(constructed) >= {
            tracing.SEND, tracing.DELIVER, tracing.STORE_BEGIN, tracing.STORE_END,
            tracing.INVOKE, tracing.REPLY, tracing.CRASH, tracing.RECOVER,
            tracing.RECOVERY_DONE, tracing.CKPT_BEGIN, tracing.CKPT_COMMIT,
        }
