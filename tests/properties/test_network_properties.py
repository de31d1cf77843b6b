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
