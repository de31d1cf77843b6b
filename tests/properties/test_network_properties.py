"""Property: a broadcast is exactly the sends it stands for."""

from hypothesis import given, settings, strategies as st

from repro.common.config import NetworkConfig
from repro.common.ids import OperationId
from repro.common.timestamps import Tag
from repro.protocol.messages import SnQuery, WriteRequest
from repro.sim.kernel import Kernel
from repro.sim.network import SimNetwork
from repro.obs.tracing import Trace

N = 4
PIDS = st.integers(0, N - 1)
LINKS = st.tuples(PIDS, PIDS)
PROBABILITY = st.one_of(st.just(0.0), st.floats(0.05, 0.9))
MESSAGES = st.one_of(
    st.builds(SnQuery, op=st.builds(OperationId, PIDS, st.integers(0, 9)), round_no=st.just(1)),
    st.builds(
        WriteRequest,
        op=st.none(),
        round_no=st.just(2),
        tag=st.just(Tag(1, 0)),
        value=st.binary(max_size=4096),
    ),
)
CONFIGS = st.builds(
    NetworkConfig,
    max_jitter=st.sampled_from([0.0, 2e-5, 3e-4]),
    drop_probability=PROBABILITY,
    duplicate_probability=PROBABILITY,
    send_overhead=st.sampled_from([0.0, 5e-6, 1e-4]),
)
#: Rounds of (sender, message, virtual seconds to run before the next).
ROUNDS = st.lists(
    st.tuples(PIDS, MESSAGES, st.sampled_from([0.0, 1e-5, 1e-3])),
    min_size=1,
    max_size=4,
)


def run(broadcast, seed, config, blocked, slowed, filtered, rounds):
    kernel = Kernel(seed=seed)
    trace = Trace()
    network = SimNetwork(kernel, N, config, trace)
    deliveries = []
    for pid in range(N):
        network.attach(
            pid,
            lambda src, message, depth, pid=pid: deliveries.append(
                (kernel.now, pid, src, message, depth)
            ),
        )
    for src, dst in blocked:
        network.block(src, dst)
    for (src, dst), extra in slowed:
        network.slow_link(src, dst, extra)
    network.add_filter(lambda src, dst, message: (src, dst) in filtered)
    for depth, (src, message, pause) in enumerate(rounds):
        if broadcast:
            network.broadcast(src, message, depth)
        else:
            for dst in range(N):
                network.send(src, dst, message, depth)
        kernel.run(until=kernel.now + pause)
    kernel.run()
    counters = (
        network.messages_sent,
        network.bytes_sent,
        network.messages_delivered,
        network.messages_dropped,
    )
    kinds = [(event.time, event.kind, event.pid, event.detail) for event in trace.events]
    return deliveries, counters, kinds, kernel.rng.getstate()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    config=CONFIGS,
    blocked=st.sets(LINKS, max_size=3),
    slowed=st.lists(st.tuples(LINKS, st.sampled_from([1e-5, 2.5e-4])), max_size=3),
    filtered=st.sets(LINKS, max_size=2),
    rounds=ROUNDS,
)
def test_broadcast_equals_its_sends(seed, config, blocked, slowed, filtered, rounds):
    args = (seed, config, blocked, slowed, filtered, rounds)
    assert run(True, *args) == run(False, *args)


#: One step of a fault-free-branch run: arm or disarm something, or
#: let time pass, then send.  A disarming step names what it disarms by
#: its place among what is armed (``unblock`` 1 is the second blocked
#: link), so that it mostly finds something to disarm.  Penalties are
#: in units of ``PENALTY_UNIT``; ``unslow_link`` with ``None`` units
#: takes the link's whole penalty off again.
PENALTY_UNIT = 1e-5
ARMED_LINKS = st.sampled_from([(0, 1), (1, 0), (2, 2)])
ACTIONS = st.one_of(
    st.tuples(st.just("block"), ARMED_LINKS),
    st.tuples(st.just("unblock"), st.integers(0, 2)),
    st.tuples(st.just("heal_all"), st.none()),
    st.tuples(st.just("add_filter"), st.sets(ARMED_LINKS, max_size=2)),
    st.tuples(st.just("remove_filter"), st.integers(0, 2)),
    st.tuples(st.just("slow_link"), st.tuples(ARMED_LINKS, st.sampled_from([1, 25]))),
    st.tuples(
        st.just("unslow_link"),
        st.tuples(st.integers(0, 2), st.sampled_from([1, 25, None])),
    ),
    st.tuples(st.just("reset_link_speeds"), st.none()),
    st.tuples(st.just("run"), st.sampled_from([0.0, 1e-5, 1e-3])),
)
SENDS = st.one_of(
    st.tuples(st.just("send"), st.tuples(PIDS, PIDS, MESSAGES)),
    st.tuples(st.just("broadcast"), st.tuples(PIDS, MESSAGES)),
)
STEPS = st.lists(st.tuples(ACTIONS, SENDS), min_size=2, max_size=12)


class Twin:
    """One network driven through a step list; ``forced`` arms it for good."""

    def __init__(self, config, seed, forced):
        self.kernel = Kernel(seed=seed)
        self.trace = Trace()
        self.network = SimNetwork(self.kernel, N, config, self.trace)
        self.deliveries = []
        for pid in range(N):
            self.network.attach(
                pid,
                lambda src, message, depth, pid=pid: self.deliveries.append(
                    (self.kernel.now, pid, src, message, depth)
                ),
            )
        self.removers = []
        if forced:  # drops nothing, but every send takes the armed loop
            self.network.add_filter(lambda src, dst, message: False)

    def apply(self, depth, verb, arg):
        network = self.network
        if verb in ("block", "unblock"):
            getattr(network, verb)(*arg)
        elif verb in ("heal_all", "reset_link_speeds"):
            getattr(network, verb)()
        elif verb == "add_filter":
            self.removers.append(
                network.add_filter(lambda src, dst, message: (src, dst) in arg)
            )
        elif verb == "remove_filter":
            self.removers[arg]()
        elif verb in ("slow_link", "unslow_link"):
            (src, dst), units = arg
            getattr(network, verb)(src, dst, units * PENALTY_UNIT)
        elif verb == "send":
            src, dst, message = arg
            network.send(src, dst, message, depth)
        elif verb == "broadcast":
            src, message = arg
            network.broadcast(src, message, depth)
        else:
            self.kernel.run(until=self.kernel.now + arg)

    def state(self):
        queue = [(t, seq, fn.__name__, args) for t, seq, fn, args in self.kernel.queue]
        counters = (
            self.network.messages_sent,
            self.network.bytes_sent,
            self.network.messages_delivered,
            self.network.messages_dropped,
        )
        events = [(e.time, e.kind, e.pid, e.detail) for e in self.trace.events]
        return queue, counters, events, list(self.deliveries), self.kernel.rng.getstate()


class ArmedModel:
    """What is armed, kept apart from the network's own tables."""

    def __init__(self, draws):
        self.draws = draws
        self.blocks, self.filters, self.penalties = {}, set(), {}
        self.added = 0

    def resolve(self, verb, arg):
        """The step's verb and argument, with ``arg`` resolved; updates the model."""
        if verb == "block":
            self.blocks[arg] = self.blocks.get(arg, 0) + 1
            return verb, arg
        if verb == "unblock":
            blocked = sorted(link for link, count in self.blocks.items() if count)
            link = blocked[arg % len(blocked)] if blocked else (0, 1)
            self.blocks[link] = max(0, self.blocks.get(link, 0) - 1)
            return verb, link
        if verb == "heal_all":
            self.blocks.clear()
        elif verb == "add_filter":
            self.filters.add(self.added)
            self.added += 1
        elif verb == "remove_filter":
            if not self.added:
                return "run", 0.0
            index = arg % self.added
            self.filters.discard(index)
            return verb, index
        elif verb == "slow_link":
            link, units = arg
            self.penalties[link] = self.penalties.get(link, 0) + units
        elif verb == "unslow_link":
            index, units = arg
            slowed = sorted(link for link, held in self.penalties.items() if held)
            link = slowed[index % len(slowed)] if slowed else (0, 1)
            if units is None:
                units = self.penalties.get(link, 0) or 1
            self.penalties[link] = max(0, self.penalties.get(link, 0) - units)
            return verb, (link, units)
        elif verb == "reset_link_speeds":
            self.penalties.clear()
        return verb, arg

    @property
    def nothing_armed(self):
        return not (
            self.draws
            or any(self.blocks.values())
            or self.filters
            or any(self.penalties.values())
        )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    config=st.builds(
        NetworkConfig,
        max_jitter=st.sampled_from([0.0, 0.0, 0.0, 2e-5]),
        send_overhead=st.sampled_from([0.0, 5e-6, 1e-4]),
    ),
    steps=STEPS,
)
def test_the_fault_free_branch_is_the_armed_loop_with_nothing_armed(seed, config, steps):
    """A send takes the fault-free branch exactly when nothing is armed,
    and it then does what the armed loop would have done.

    The twin runs every send through the armed loop (an always-false
    filter); both must leave the same heap entries, counters, records,
    deliveries and rng.  Which loop a destination took is seen too: the
    armed loop drops it or hands it to ``Kernel.schedule`` (there is no
    duplication here), the fault-free one does neither.  So residue in a
    disarmed table, which keeps the fault-free branch off, fails the
    test, and so does a table the flag forgets, which turns it on.
    """
    fast, armed = Twin(config, seed, False), Twin(config, seed, True)
    scheduled = []
    schedule = fast.kernel.schedule
    fast.kernel.schedule = lambda *args: scheduled.append(args) or schedule(*args)
    model = ArmedModel(draws=config.max_jitter > 0.0)
    network = fast.network
    for depth, step in enumerate(step for pair in steps for step in pair):
        verb, arg = model.resolve(*step)
        before = (len(scheduled), network.messages_dropped, network.messages_sent)
        fast.apply(depth, verb, arg)
        armed.apply(depth, verb, arg)
        if verb in ("send", "broadcast"):
            through_armed_loop = (
                len(scheduled) - before[0] + network.messages_dropped - before[1]
            )
            dsts = network.messages_sent - before[2]
            assert through_armed_loop == (0 if model.nothing_armed else dsts)
        assert fast.state() == armed.state()
    fast.kernel.run()
    armed.kernel.run()
    assert fast.state() == armed.state()
