"""Integration: the Session contract against the live backend.

The acceptance bar of the façade: the *same* program that
``tests/unit/test_public_api.py`` runs against the simulated backends
must run unmodified over real UDP sockets and fsync'd files -- plus
the live backend's declared incapabilities must actually raise.
"""

import time

import pytest

from repro.api import CRASH_INJECTION, VIRTUAL_TIME, open_cluster
from repro.common.errors import (
    CapabilityError,
    OperationAborted,
    ProtocolError,
    TransportError,
)
from repro.workloads.generators import run_closed_loop

from tests.unit.test_public_api import session_program


def test_live_runs_the_same_session_program():
    verdict = session_program(
        open_cluster(backend="live", protocol="persistent")
    )
    assert verdict.consistency == "persistent"


def test_live_nonblocking_recover_records_failures():
    with open_cluster(backend="live", num_processes=3) as c:
        # Recovering a node that never crashed fails at the call, as on
        # the simulator: the error cannot be dropped on the way.
        with pytest.raises(ProtocolError, match="process 0 is not crashed"):
            c.recover(0, wait=False)

        c.crash(1)
        c.recover(1, wait=False)
        session = c.session(1)
        assert not session.ready  # nothing advances outside a verb
        assert c.run_until(lambda: session.ready, timeout=5.0)


def test_live_operation_without_a_majority_fails_after_op_timeout():
    with open_cluster(backend="live", num_processes=3, op_timeout=0.3) as c:
        c.crash(1)
        c.crash(2)
        started = time.monotonic()
        handle = c.session(0).write("unheard")
        with pytest.raises(OperationAborted, match="did not settle within 0.3s"):
            c.wait(handle, timeout=5.0, expect_done=True)
        assert 0.3 <= time.monotonic() - started < 5.0
        assert handle.aborted and isinstance(handle.error, TimeoutError)
        c.recover(1)
        c.recover(2)
        # Only the caller gave up: the write is still retransmitting,
        # and returns now that a majority answers.
        node = c.nodes[0]
        assert c.run_until(lambda: not node.register_busy(None), timeout=5.0)
        c.session(0).write_sync("heard")
        assert c.session(1).read_sync() == "heard"
        assert c.check().ok


def test_live_write_too_big_for_a_datagram_is_refused_at_the_call():
    """Not on the loop thread inside ``broadcast``, then an ``op_timeout``."""
    with open_cluster(backend="live", num_processes=3, op_timeout=0.5) as c:
        session, nodes = c.session(0), c.nodes

        def counts():
            sent = sum(node.transport.messages_sent for node in nodes)
            received = sum(node.transport.messages_received for node in nodes)
            return sent, received, len(c.recorder.history)

        session.write_sync("fits")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:  # the third node's acks land
            before = counts()
            c.run(0.05)
            if before[0] == before[1] and counts() == before:
                break
        for key in (None, "k"):
            with pytest.raises(TransportError, match="encoded bytes cannot travel"):
                session.write(b"x" * 65_000, key)
        c.run(0.05)  # nothing of it is on its way to the loop either
        assert counts() == before
        # A value just under the limit is written and read back whole.
        largest = b"x" * 64_900
        session.write_sync(largest)
        assert c.session(1).read_sync() == largest
        assert c.check().ok


def _snapshot(c):
    """``stats()``, ``metrics()`` and the ring's count, read at one instant.

    Stragglers (the live third node's acks) may still be on their way
    when the program returns, but no backend advances between two verbs,
    so nothing interleaves with these reads.
    """
    return c.stats(), c.metrics(), c.flight_recorder.total


def _exercise(cluster):
    """A small cross-backend program: traffic, one crash, one recovery."""
    with cluster as c:
        c.session(0).write_sync("a")
        c.crash(0)
        c.recover(0)
        c.session(1).write_sync("b")
        return *_snapshot(c), c.flight_recorder


@pytest.mark.parametrize("backend", ["sim", "kv", "live"])
def test_stats_and_metrics_parity(backend):
    """Every backend populates the same observability surface.

    ``ClusterStats`` fields must be *filled in*, not defaulted (the
    live backend used to report zero drops/crashes/recoveries), and
    the shared metric names must exist in every registry so dashboards
    can be written once.
    """
    seed = None if backend == "live" else 11
    stats, metrics, recorded, recorder = _exercise(
        open_cluster(backend=backend, num_processes=3, seed=seed)
    )
    assert stats.messages_sent > 0
    assert stats.stores_completed > 0
    assert stats.crashes == 1
    assert stats.recoveries == 1
    assert stats.messages_dropped >= 0
    assert stats.kernel_events > 0
    for name in (
        "kernel.clock",
        "kernel.events",
        "net.messages_sent",
        "net.messages_delivered",
        "net.messages_dropped",
        "storage.stores_completed",
        "storage.bytes_logged",
        "storage.footprint_bytes",
        "storage.records",
        "node.crashes",
        "node.recoveries",
        "trace.flight_recorded",
    ):
        assert name in metrics.scalars, name
    assert metrics.scalars["net.messages_sent"] == stats.messages_sent
    assert metrics.scalars["kernel.events"] == stats.kernel_events
    if backend == "live":
        # Nothing on the loopback sockets was anything but ours.
        assert metrics.scalars["net.malformed"] == 0
    # Each node holds at least one record of the write (on live, all in one log).
    assert metrics.scalars["storage.bytes_logged"] > 0
    assert metrics.scalars["storage.footprint_bytes"] > 0
    assert metrics.scalars["storage.records"] >= 3
    assert metrics.scalars["node.crashes"] == 1
    assert metrics.scalars["node.recoveries"] == 1
    # The write fed the uniform per-op latency histogram...
    write_latency = metrics.histograms["op.write.latency"]
    assert write_latency.total >= 2
    assert write_latency.minimum > 0.0
    # ...and the flight recorder retained the run's tail.
    assert recorder is not None
    assert recorder.total >= recorded > 0
    assert metrics.scalars["trace.flight_recorded"] == recorded
    kinds = {event.kind for event in recorder.events()}
    assert "send" in kinds and "deliver" in kinds


@pytest.mark.parametrize("backend", ["sim", "kv", "live"])
def test_a_callback_may_block_on_an_operation(backend):
    """A blocking verb inside a loop callback drives the same queues, nested.

    The callback due beside it runs once, whichever run reaches it.
    """
    seed = None if backend == "live" else 11
    with open_cluster(backend=backend, num_processes=3, seed=seed) as c:
        out, beside = [], []
        c.defer(0.001, lambda: out.append(c.session(0).write_sync("x")))
        c.defer(0.001, beside.append, "ran")
        c.run(0.2)
        assert [handle.done for handle in out] == [True]
        assert beside == ["ran"]
        assert c.session(1).read_sync() == "x"
        assert c.check().ok


@pytest.mark.parametrize("backend", ["sim", "kv", "live"])
def test_a_lone_surrogate_value_round_trips(backend):
    """Pickle carries a lone surrogate, so every backend stores and returns it."""
    seed = None if backend == "live" else 11
    value = "a\udc80b"
    with open_cluster(backend=backend, num_processes=3, seed=seed) as c:
        c.session(0).write_sync(value, timeout=5.0)
        assert c.session(1).read_sync(timeout=5.0) == value
        assert c.check().ok


@pytest.mark.parametrize("backend", ["sim", "kv", "live"])
def test_a_negative_duration_is_refused(backend):
    """No verb moves the clock backwards, and nothing runs."""
    seed = None if backend == "live" else 11
    with open_cluster(backend=backend, num_processes=3, seed=seed) as c:
        c.session(0).write_sync("a")
        before = c.now
        with pytest.raises(ValueError):
            c.run(-1.0)
        with pytest.raises(ValueError):
            c.run_until(lambda: False, timeout=-1.0)
        assert c.now >= before
        c.session(1).write_sync("b")
        assert c.check().ok


@pytest.mark.parametrize("backend", ["sim", "kv", "live"])
def test_a_negative_delay_and_a_zero_stride_are_refused(backend):
    """Every backend's scheduler makes the same checks."""
    seed = None if backend == "live" else 11
    with open_cluster(backend=backend, num_processes=3, seed=seed) as c:
        with pytest.raises(ValueError):
            c.defer(-1.0, lambda: None)
        with pytest.raises(ValueError):
            c.run_until(lambda: True, timeout=1.0, poll_every=0)


def test_a_live_delay_counts_from_the_call():
    """Not from the last event: the caller was away from the loop."""
    with open_cluster(backend="live", num_processes=3) as c:
        c.run(0.01)
        time.sleep(0.1)  # outside every verb: nothing runs
        fired = []
        called = time.monotonic()
        c.defer(0.05, lambda: fired.append(time.monotonic()))
        assert c.run_until(lambda: fired, timeout=1.0)
        assert fired[0] - called >= 0.05


def test_live_declares_no_virtual_time():
    """Live's clock is the loop's wall clock: driven, but neither virtual nor seeded."""
    with open_cluster(backend="live", num_processes=3) as c:
        assert CRASH_INJECTION in c.capabilities
        assert VIRTUAL_TIME not in c.capabilities
        before = c.now
        c.run(0.01)
        assert c.now >= before + 0.01
        fired = []
        c.defer(0.005, fired.append, "deferred")
        c.run(0.05)
        assert fired == ["deferred"]
        c.defer(0.005, fired.append, "again")
        assert c.run_until(lambda: len(fired) == 2, timeout=1.0)
        assert not c.run_until(lambda: False, timeout=0.01)
        with pytest.raises(CapabilityError):
            c.partition([0], [1, 2])


def test_live_runs_the_closed_loop_runner():
    """The facade's one closed-loop runner drives live as it drives sim."""
    with open_cluster(backend="live", num_processes=3) as c:
        report = run_closed_loop(c, operations_per_client=30, seed=1)
        assert (report.completed, report.aborted, report.unissued) == (90, 0, 0)
        assert c.check().ok
