"""The adversarial runs behind the lower bounds (Theorems 1 and 2).

The paper proves two lower bounds by constructing runs no algorithm
with fewer causal logs can survive:

* **Theorem 1** (run rho_1, Figure 2): a persistent atomic write needs
  two causal logs.  With only one -- i.e. without the writer's pre-log
  -- the writer can crash after a single process adopted ``W(v2)``,
  recover with no memory of the attempt, and reuse the same timestamp
  for ``v3``: two values under one tag (*confused values*), which no
  completion can linearize.
* **Theorem 2** (runs rho_2..rho_4, Figure 3): even a transient atomic
  read needs one causal log.  A reader that returns ``v2`` without any
  log can crash, forget, and return ``v1`` afterwards -- a new/old
  inversion across its own crash.

This module replays those runs deterministically.  Each scenario is
parameterized by algorithm so the same adversarial schedule can be
thrown at the paper's algorithms (which survive -- the bounds are
tight) and at the deliberately weakened variants of
:mod:`repro.protocol.broken` (which violate the criteria, demonstrating
the bounds are real).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.api import open_cluster
from repro.common.errors import ReproError
from repro.history.checker import (
    AtomicityVerdict,
    check_persistent_atomicity,
    check_transient_atomicity,
)
from repro.history.history import History
from repro.protocol.messages import WriteRequest


@dataclass
class LowerBoundRun:
    """Outcome of one adversarial run."""

    scenario: str
    algorithm: str
    read_results: List[Any]
    read_causal_logs: List[Optional[int]]
    history: History
    persistent_verdict: AtomicityVerdict
    transient_verdict: AtomicityVerdict

    @property
    def atomic(self) -> bool:
        """Shorthand: does the run satisfy even transient atomicity?"""
        return bool(self.transient_verdict)


def run_rho1(
    algorithm: str = "persistent", seed: Optional[int] = None
) -> LowerBoundRun:
    """Run rho_1 of the Theorem 1 proof (Figure 2), on 5 processes.

    The writer is ``p4`` (the adopters of the interrupted write must
    have the *smallest* ids so that, under the duplicate tags a
    one-log algorithm produces, quorum tie-breaks surface the orphaned
    value -- the run the theorem shows is fatal).

    Schedule: ``W(v1)`` completes everywhere; ``W(v2)`` reaches only
    ``{p0, p1}`` and the writer crashes; the writer recovers and issues
    ``W(v3)`` whose query quorum is steered to ``{p2, p3, p4}``; then
    ``R1`` (quorum ``{p0, p1, p2}``) and ``R2`` (quorum ``{p2, p3,
    p4}``) run after ``W(v3)`` completed.
    """
    cluster = open_cluster(
        "sim", protocol=algorithm, num_processes=5,
        seed=3 if seed is None else seed, include_broken=True
    )
    cluster.start()
    writer = 4

    cluster.session(writer).write_sync("v1")

    # -- W(v2): second round reaches only p0 and p1; writer crashes. ------
    w2 = cluster.session(writer).write("v2")
    remove_w2 = cluster.network.add_filter(
        lambda src, dst, msg: (
            isinstance(msg, WriteRequest) and msg.op == w2.op and dst not in (0, 1)
        )
    )
    ok = cluster.run_until(
        lambda: cluster.node(0).protocol.durable_tag.sn >= 2
        and cluster.node(1).protocol.durable_tag.sn >= 2,
        timeout=1.0,
    )
    if not ok:
        raise ReproError("p0/p1 never adopted the interrupted W(v2)")
    cluster.crash(writer)
    assert w2.aborted
    remove_w2()
    cluster.recover(writer)

    # -- W(v3): the query quorum must avoid the adopters of v2. -----------
    cluster.network.block(0, writer)
    cluster.network.block(1, writer)
    w3 = cluster.session(writer).write("v3")
    ok = cluster.run_until(lambda: w3.settled, timeout=1.0)
    if not ok:
        raise ReproError("W(v3) did not complete")
    cluster.network.heal_all()

    # -- R1 at p0: quorum {p0, p1, p2}. ------------------------------------
    cluster.network.block(3, 0)
    cluster.network.block(4, 0)
    r1 = cluster.wait(cluster.session(0).read())
    cluster.network.heal_all()

    # -- R2 at p2: quorum {p2, p3, p4}. ------------------------------------
    cluster.network.block(0, 2)
    cluster.network.block(1, 2)
    r2 = cluster.wait(cluster.session(2).read())
    cluster.network.heal_all()

    history = cluster.history
    return LowerBoundRun(
        scenario="rho1",
        algorithm=algorithm,
        read_results=[r1.result, r2.result],
        read_causal_logs=[r1.causal_logs, r2.causal_logs],
        history=history,
        persistent_verdict=check_persistent_atomicity(history),
        transient_verdict=check_transient_atomicity(history),
    )


def run_rho4(
    algorithm: str = "persistent", seed: Optional[int] = None
) -> LowerBoundRun:
    """Run rho_4 of the Theorem 2 proof (Figure 3), on 3 processes.

    ``p0`` writes ``v1`` (complete) and then ``v2``, whose second round
    reaches only ``p2`` and stays open.  The reader ``p1`` reads with
    quorum ``{p1, p2}`` (sees ``v2``), crashes, recovers, and reads
    again with quorum ``{p0, p1}``.  A reader that logged -- the
    algorithms' read write-back logs ``v2`` at a majority including the
    reader itself -- returns ``v2`` again; a log-free reader forgets
    and returns ``v1``, an inversion that violates transient atomicity.
    """
    cluster = open_cluster(
        "sim", protocol=algorithm, num_processes=3,
        seed=5 if seed is None else seed, include_broken=True
    )
    cluster.start()

    cluster.session(0).write_sync("v1")

    # -- W(v2): reaches only p2, and stays open (no crash of the writer:
    # in run rho_4 the second write is merely in progress).
    w2 = cluster.session(0).write("v2")
    remove_w2 = cluster.network.add_filter(
        lambda src, dst, msg: (
            isinstance(msg, WriteRequest) and msg.op == w2.op and dst != 2
        )
    )
    ok = cluster.run_until(
        lambda: cluster.node(2).protocol.durable_tag.sn >= 2, timeout=1.0
    )
    if not ok:
        raise ReproError("p2 never adopted W(v2)")

    # -- R1 at p1: quorum {p1, p2} sees v2. --------------------------------
    cluster.network.block(0, 1)
    r1 = cluster.wait(cluster.session(1).read())
    cluster.network.unblock(0, 1)

    # -- reader crashes and recovers. --------------------------------------
    cluster.crash(1)
    cluster.recover(1)

    # -- R2 at p1: quorum {p0, p1}. -----------------------------------------
    cluster.network.block(2, 1)
    r2 = cluster.wait(cluster.session(1).read())
    cluster.network.heal_all()

    # -- let the open W(v2) finish so the history is mostly complete. ------
    remove_w2()
    cluster.wait(w2)

    history = cluster.history
    return LowerBoundRun(
        scenario="rho4",
        algorithm=algorithm,
        read_results=[r1.result, r2.result],
        read_causal_logs=[r1.causal_logs, r2.causal_logs],
        history=history,
        persistent_verdict=check_persistent_atomicity(history),
        transient_verdict=check_transient_atomicity(history),
    )


def run_rho2(
    algorithm: str = "persistent", seed: Optional[int] = None
) -> LowerBoundRun:
    """Run rho_2 (Figure 3): crash-recovered reader sees v1 -- legal.

    ``W(v2)`` is in progress and invisible to the reader's quorum; the
    reader (after a crash/recovery) reads ``v1``.  The run satisfies
    atomicity; it exists to pin down that the *combination* in rho_4 is
    what becomes contradictory.
    """
    cluster = open_cluster(
        "sim", protocol=algorithm, num_processes=3,
        seed=7 if seed is None else seed, include_broken=True
    )
    cluster.start()
    cluster.session(0).write_sync("v1")
    w2 = cluster.session(0).write("v2")
    remove_w2 = cluster.network.add_filter(
        lambda src, dst, msg: (
            isinstance(msg, WriteRequest) and msg.op == w2.op and dst != 2
        )
    )
    cluster.crash(1)
    cluster.recover(1)
    cluster.network.block(2, 1)
    r1 = cluster.wait(cluster.session(1).read())
    cluster.network.heal_all()
    remove_w2()
    cluster.wait(w2)
    history = cluster.history
    return LowerBoundRun(
        scenario="rho2",
        algorithm=algorithm,
        read_results=[r1.result],
        read_causal_logs=[r1.causal_logs],
        history=history,
        persistent_verdict=check_persistent_atomicity(history),
        transient_verdict=check_transient_atomicity(history),
    )


def run_rho3(
    algorithm: str = "persistent", seed: Optional[int] = None
) -> LowerBoundRun:
    """Run rho_3 (Figure 3): reader sees v2 before crashing -- legal."""
    cluster = open_cluster(
        "sim", protocol=algorithm, num_processes=3,
        seed=9 if seed is None else seed, include_broken=True
    )
    cluster.start()
    cluster.session(0).write_sync("v1")
    w2 = cluster.session(0).write("v2")
    remove_w2 = cluster.network.add_filter(
        lambda src, dst, msg: (
            isinstance(msg, WriteRequest) and msg.op == w2.op and dst != 2
        )
    )
    ok = cluster.run_until(
        lambda: cluster.node(2).protocol.durable_tag.sn >= 2, timeout=1.0
    )
    if not ok:
        raise ReproError("p2 never adopted W(v2)")
    cluster.network.block(0, 1)
    r1 = cluster.wait(cluster.session(1).read())
    cluster.network.heal_all()
    cluster.crash(1)
    cluster.recover(1)
    remove_w2()
    cluster.wait(w2)
    history = cluster.history
    return LowerBoundRun(
        scenario="rho3",
        algorithm=algorithm,
        read_results=[r1.result],
        read_causal_logs=[r1.causal_logs],
        history=history,
        persistent_verdict=check_persistent_atomicity(history),
        transient_verdict=check_transient_atomicity(history),
    )


def format_lower_bounds(runs: List[LowerBoundRun]) -> str:
    """Render the adversarial-run outcomes as a table."""
    header = (
        f"{'run':<6s} {'algorithm':<20s} {'reads':<16s} "
        f"{'persistent':>10s} {'transient':>9s}"
    )
    lines = [header, "-" * len(header)]
    for run in runs:
        reads = ",".join(str(r) for r in run.read_results)
        lines.append(
            f"{run.scenario:<6s} {run.algorithm:<20s} {reads:<16s} "
            f"{str(bool(run.persistent_verdict)):>10s} "
            f"{str(bool(run.transient_verdict)):>9s}"
        )
    return "\n".join(lines)
