"""Integration: a node that crashes while a crash path of its own is pending.

The crash-recovery model lets a process crash at any instant, including
while it is still recovering or while its batched frames wait out their
window.  Each run here puts a crash inside one such window of
:class:`~repro.protocol.host.NodeCore` and is judged three ways: the
history is atomic (``check().ok``), no node reports its first boot
ready before its initial stores are durable, and the two-round
protocols' structural invariants hold at every trace event.
"""

import pytest

from repro.api import open_cluster
from repro.common.errors import ProcessCrashed
from repro.protocol.messages import MuxBatch
from repro.protocol.registry import PROTOCOLS
from repro.sim.network import SimNetwork
from tests.integration.test_crash_recovery import judge_first_boot_ready
from tests.integration.test_invariants import judge_structural_invariants

#: The egress window of the batching runs, in seconds.
WINDOW = 50e-6


def judged(protocol="persistent", **options):
    """A started 3-node sim cluster, its two judges listening from the first event."""
    cluster = open_cluster("sim", protocol=protocol, num_processes=3, seed=11, **options)
    boot_violations, boot_judged = judge_first_boot_ready(cluster)
    invariant_violations = judge_structural_invariants(cluster)
    cluster.start()

    def verdicts():
        return cluster.check().ok, boot_violations, sorted(boot_judged), invariant_violations

    return cluster, verdicts


JUDGED_CLEAN = (True, [], [0, 1, 2], [])

#: Protocols whose read returns after one round, with no write-back.
ONE_ROUND_READS = {"persistent-fastread", "regular"}


@pytest.mark.parametrize("protocol", ["persistent", "transient"])
@pytest.mark.parametrize("back", ["inside", "after"])
def test_a_crash_during_the_read_back_voids_it(protocol, back):
    """The first read-back completes for a dead incarnation and changes nothing.

    The node recovers again either while that read-back is still under
    way (``inside``) or after it completed (``after``); either way it is
    ready exactly once, one full read-back after its last recover.
    """
    cluster, verdicts = judged(protocol, recovery_scan=True)
    session = cluster.session(0)
    for i in range(5):
        session.write_sync(f"v{i}")
    node = cluster.node(2)
    cluster.crash(2)
    cluster.recover(2, wait=False)
    scan = node.storage.recovery_scan_latency()
    cluster.run(scan / 2)
    cluster.crash(2)
    if back == "inside":
        cluster.recover(2, wait=False)
        began = cluster.now
    cluster.run(scan / 2 + scan / 100)  # past the first read-back's end
    assert not node.ready and node.recovery_times == []
    if back == "after":
        cluster.recover(2, wait=False)
        began = cluster.now
    cluster.run_until(lambda: node.ready, timeout=1.0)
    assert cluster.now - began >= scan
    assert len(node.recovery_times) == 1
    assert cluster.session(2).read_sync() == "v4"
    assert verdicts() == JUDGED_CLEAN


@pytest.fixture
def transmitted(monkeypatch):
    """Every ``(time, src, message)`` the simulated network is handed."""
    sent = []
    transmit = SimNetwork.transmit

    def spy(network, src, dsts, message, depth):
        sent.append((network._kernel.now, src, message))
        transmit(network, src, dsts, message, depth)

    monkeypatch.setattr(SimNetwork, "transmit", spy)
    return sent


@pytest.mark.parametrize("back", [None, "inside", "after"])
def test_frames_queued_by_a_dead_incarnation_never_leave(transmitted, back):
    """A crash inside the egress window drops the window's frames.

    The aborted write's queries, queued for every destination, reach no
    one.  A node back inside the same window (``inside``), or before
    the dead incarnation's flush fires (``after``, half a window on),
    has its own frames flushed one window after it queued them: the
    stale flush takes none of them.
    """
    cluster, verdicts = judged(batch_window=WINDOW, capture_trace=True)
    session = cluster.session(0)
    session.write_sync("a", key="k")
    handle = session.write("b", key="k")
    node = cluster.node(0)
    assert sorted(node._pending_frames) == [0, 1, 2]  # the window holds frames
    crashed_at = recovered_at = cluster.now
    cluster.crash(0)
    if back == "inside":
        cluster.recover(0, wait=False)
    cluster.run(WINDOW / 2)
    if back == "after":
        recovered_at = cluster.now
        cluster.recover(0, wait=False)
    cluster.run(WINDOW)
    assert isinstance(handle.error, ProcessCrashed)
    batches = [
        (time, message)
        for time, src, message in transmitted
        if src == 0 and time >= crashed_at and isinstance(message, MuxBatch)
    ]
    assert not any(
        frame.message.op == handle.op for _, batch in batches for frame in batch.frames
    )
    if back is None:
        assert batches == []
        cluster.recover(0)
    else:
        # The recovery's write-back round, flushed at the end of its own window.
        assert [time for time, _ in batches] == [recovered_at + WINDOW] * 3
    cluster.run_until(lambda: node.ready, timeout=1.0)
    assert cluster.session(1).read_sync(key="k") == "a"
    assert verdicts() == JUDGED_CLEAN


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_a_read_ack_after_its_read_finished_changes_nothing(protocol):
    """A slow replica's answer reaches the reader after the read returned.

    The read at p1 completes on the two fast answers (its own and
    p0's); p2's ``ReadAck``, held on a slow link, then finds no read in
    flight at p1 (nor, for a two-round read, p2's ``WriteAck`` of the
    write-back).  It makes p1 send nothing, and the next read runs as
    usual.  p0 writes, so the single-writer protocols run it too.
    """
    cluster, verdicts = judged(protocol, capture_trace=True)
    cluster.session(0).write_sync("a")
    slow = 1e-3
    cluster.slow_link([(2, 1)], slow)
    handle = cluster.wait(cluster.session(1).read(), expect_done=True)
    returned = cluster.now
    assert handle.result == "a"
    cluster.run(2 * slow)
    late = [
        event
        for event in cluster.trace.events
        if event.kind == "deliver" and event.pid == 1 and event.time > returned
    ]
    expected = [(2, "ReadAck", handle.op)]
    if protocol not in ONE_ROUND_READS:
        expected.append((2, "WriteAck", handle.op))
    assert [(e.detail["src"], e.detail["msg"], e.detail["op"]) for e in late] == expected
    assert not any(
        event.kind == "send" and event.pid == 1 and event.time > returned
        for event in cluster.trace.events
    )
    cluster.slow_link([(2, 1)], -slow)
    assert cluster.session(1).read_sync() == "a"
    assert verdicts() == JUDGED_CLEAN
