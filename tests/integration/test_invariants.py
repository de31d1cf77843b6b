"""Integration: the structural invariants of the two-round protocols, judged as a run goes.

The atomicity checkers judge a run after the fact; this judge watches
it while it happens, so a violation is reported at the trace event
where it first shows, close to its cause (an acknowledgment sent
before durability, say), not as a non-linearizable history thousands
of events later.
"""

import pytest

from repro.api import open_cluster
from repro.common.timestamps import Tag, bottom_tag
from repro.obs import tracing
from repro.protocol.two_round import KEY_WRITTEN, TwoRoundRegisterProtocol
from repro.scenarios.faults import RandomCrashPlan
from repro.workloads.generators import run_closed_loop


def judge_structural_invariants(cluster):
    """Judge every up node's two-round protocol state at every trace event.

    Four invariants, all consequences of the algorithms of Figures 4/5
    and of the model:

    * **tag monotonicity**: a process's volatile tag never decreases
      except by crashing, which wipes it (the watermark resets at the
      process's ``crash`` event);
    * **durability lag**: ``durable_tag <= tag``; stable storage can lag
      volatile state, never lead it;
    * **stable-written consistency** (protocols that log on adopt): the
      ``written`` record in stable storage never trails
      ``durable_tag``, which is only ever set from completed logs of
      that record (it may lead it for an instant: the record lands
      before the completion handler runs);
    * **quorum sanity**: an operation never counts more responders than
      there are processes.

    Returns the violations, filled in as the run goes.
    """
    last_tag = {node.pid: bottom_tag() for node in cluster.nodes}
    violations = []

    def listen(event):
        where = f"at {event.time * 1e6:.1f}us ({event.kind} p{event.pid})"
        for node in cluster.nodes:
            protocol, pid = node.protocol, node.pid
            if not isinstance(protocol, TwoRoundRegisterProtocol):
                continue
            if event.kind == tracing.CRASH and event.pid == pid:
                last_tag[pid] = bottom_tag()
                continue
            if node.crashed:
                continue
            if protocol.durable_tag > protocol.tag:
                violations.append(
                    f"{where}: p{pid}: durable tag {protocol.durable_tag} "
                    f"ahead of volatile tag {protocol.tag}"
                )
            if protocol.tag < last_tag[pid]:
                violations.append(
                    f"{where}: p{pid}: volatile tag went backwards "
                    f"({last_tag[pid]} -> {protocol.tag}) without a crash"
                )
            else:
                last_tag[pid] = protocol.tag
            record = node.storage.retrieve(KEY_WRITTEN) if protocol.LOGS_ON_ADOPT else None
            if record is not None and Tag.from_tuple(record[0]) < protocol.durable_tag:
                violations.append(
                    f"{where}: p{pid}: stable written tag {record[0]} trails "
                    f"durable_tag {protocol.durable_tag}"
                )
            tracker = getattr(protocol, "_tracker", None)
            if tracker is not None and tracker.responders > len(cluster.nodes):
                violations.append(
                    f"{where}: p{pid}: {tracker.responders} responders exceed "
                    f"cluster size"
                )

    cluster.trace.subscribe(listen)
    return violations


def judged_cluster(protocol="persistent", n=3, **kwargs):
    cluster = open_cluster("sim", protocol=protocol, num_processes=n, **kwargs)
    violations = judge_structural_invariants(cluster)
    cluster.start()
    return cluster, violations


class TestCleanRuns:
    @pytest.mark.parametrize(
        "protocol",
        ["crash-stop", "transient", "persistent", "persistent-fastread", "naive"],
    )
    def test_sequential_run_is_clean(self, protocol):
        cluster, violations = judged_cluster(protocol)
        cluster.session(0).write_sync("a")
        cluster.session(1).read_sync()
        cluster.session(0).write_sync("b")
        assert violations == []

    def test_crashy_run_is_clean(self):
        # Every process gets a downtime window inside the run (a
        # minority down at once), so the judge sees crashes and recoveries.
        cluster, violations = judged_cluster("persistent", n=5, seed=41)
        RandomCrashPlan(horizon=0.01, seed=42, crash_rate=1.0).arm(cluster)
        run_closed_loop(cluster, operations_per_client=10, read_fraction=0.5, seed=41)
        assert cluster.stats().recoveries > 0
        assert violations == []


class TestViolationDetection:
    def test_durability_ahead_of_volatile_is_caught(self):
        cluster, violations = judged_cluster()
        cluster.session(0).write_sync("x")
        # Corrupt a node: pretend something is durable beyond volatile.
        cluster.node(1).protocol.durable_tag = Tag(99, 0)
        cluster.session(0).write_sync("y")
        assert violations and "p1: durable tag" in violations[0]
        assert "ahead of" in violations[0]

    def test_tag_regression_is_caught(self):
        cluster, violations = judged_cluster()
        cluster.session(0).write_sync("x")
        protocol = cluster.node(2).protocol
        protocol.tag = bottom_tag()
        protocol.durable_tag = bottom_tag()
        cluster.session(0).write_sync("y")
        assert violations and "p2: volatile tag went backwards" in violations[0]

    def test_crash_resets_the_monotonicity_watermark(self):
        # A crash legitimately resets the volatile tag; the judge must
        # not flag the recovery.
        cluster, violations = judged_cluster()
        cluster.session(0).write_sync("x")
        cluster.crash(1)
        cluster.recover(1)
        cluster.session(0).write_sync("y")
        assert violations == []
