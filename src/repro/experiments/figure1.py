"""Figure 1: runs of persistent and transient atomic memory emulations.

The paper's Figure 1 contrasts two runs of the same client behaviour:

* process ``p0`` writes ``v1``, crashes in the middle of writing
  ``v2``, recovers, and writes ``v3``;
* process ``p1`` performs two reads concurrent with the third write.

Under the **persistent** algorithm, recovery finishes the interrupted
write (the ``writing`` pre-log is replayed), so by the time the reads
run, ``v2`` is at a majority: both reads return ``v2`` (the schedule
holds ``W(v3)`` back until after them) and the history satisfies both
criteria -- the memory behaves as if no crash happened.

Under the **transient** algorithm nothing is replayed: the interrupted
write "overlaps" the next one.  The first read misses the single copy
of ``v2`` and returns ``v1``; the second read finds it and returns
``v2`` -- both *after* ``W(v3)`` was invoked.  That history weakly
completes to ``W(v1) R(v1) W(v2) R(v2) W(v3)`` (the paper's ``H'_1``):
transient atomic, but **not** persistent atomic, because a read after
``W(v3)``'s invocation returned ``v1`` and a later read returned ``v2``
(property P1 of the Theorem 1 proof).

The schedule is reproduced deterministically with message filters:
the interrupted ``W(v2)`` reaches only ``p2``, the recovered writer's
``W(v3)`` second round is held back during the reads, and the first
read's quorum is steered away from ``p2``.
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
from repro.protocol.quorum import Phase


@dataclass
class Figure1Run:
    """Outcome of one scripted run."""

    algorithm: str
    read_results: List[Any]
    history: History
    persistent_verdict: AtomicityVerdict
    transient_verdict: AtomicityVerdict


def _interrupted_write_scenario(
    algorithm: str, seed: Optional[int] = None
) -> Figure1Run:
    """Drive the Figure 1 schedule against ``algorithm``.

    Processes: p0 = writer, p1 = reader, p2 = the only process that
    receives the interrupted ``W(v2)``.
    """
    cluster = open_cluster(
        "sim", protocol=algorithm, num_processes=3, seed=1 if seed is None else seed
    )
    cluster.start()
    writer = cluster.node(0)

    # -- W(v1): completes normally at every process. ----------------------
    cluster.session(0).write_sync("v1")

    # -- W(v2): second round reaches only p2; writer crashes mid-write. ---
    w2 = cluster.session(0).write("v2")
    remove_w2_filter = cluster.network.add_filter(
        lambda src, dst, msg: (
            isinstance(msg, WriteRequest) and msg.op == w2.op and dst != 2
        )
    )
    # Let p2 durably log v2, then crash the writer before it can ever
    # assemble a majority of acknowledgments.
    ok = cluster.run_until(
        lambda: cluster.node(2).protocol.durable_tag.sn >= 2, timeout=1.0
    )
    if not ok:
        raise ReproError("p2 never adopted the interrupted W(v2)")
    cluster.crash(0)
    assert w2.aborted
    remove_w2_filter()

    # -- recovery: persistent replays v2, transient only bumps `rec`. -----
    cluster.recover(0)

    # -- W(v3): keep p2 out of the query quorum (the transient writer
    # must not learn v2's sequence number through it), then hold the
    # second round back so the reads below run concurrently with the
    # write, as in Figure 1.
    cluster.network.block(2, 0)
    w3 = cluster.session(0).write("v3")
    # The filter must be in place before the writer's second round
    # starts broadcasting, i.e. immediately at invocation time.
    remove_w3_filter = cluster.network.add_filter(
        lambda src, dst, msg: isinstance(msg, WriteRequest) and msg.op == w3.op
    )
    ok = cluster.run_until(
        lambda: writer.protocol.phase == Phase.PROPAGATE, timeout=1.0
    )
    if not ok:
        raise ReproError("W(v3) never reached its propagate round")
    cluster.network.unblock(2, 0)

    # -- R1 by p1: quorum {p0, p1} -- p2's answer is withheld, so the
    # single copy of v2 stays invisible.
    cluster.network.block(2, 1)
    r1 = cluster.wait(cluster.session(1).read())

    # -- R2 by p1: p2 may answer now (p0's answers are withheld instead,
    # so the quorum is {p1, p2}); if p2 holds v2, v2 surfaces.
    cluster.network.unblock(2, 1)
    cluster.network.block(0, 1)
    r2 = cluster.wait(cluster.session(1).read())
    cluster.network.unblock(0, 1)

    # -- release W(v3) and let it finish. ----------------------------------
    remove_w3_filter()
    cluster.network.heal_all()
    cluster.wait(w3)

    history = cluster.history
    return Figure1Run(
        algorithm=algorithm,
        read_results=[r1.result, r2.result],
        history=history,
        persistent_verdict=check_persistent_atomicity(history),
        transient_verdict=check_transient_atomicity(history),
    )


def run_persistent(seed: Optional[int] = None) -> Figure1Run:
    """The left-hand run of Figure 1 (persistent atomicity)."""
    return _interrupted_write_scenario("persistent", seed=seed)


def run_transient(seed: Optional[int] = None) -> Figure1Run:
    """The right-hand run of Figure 1 (transient atomicity)."""
    return _interrupted_write_scenario("transient", seed=seed)


def format_figure1(persistent: Figure1Run, transient: Figure1Run) -> str:
    """Summarize both runs the way the paper's figure does."""
    lines = [
        "Figure 1: W(v1); crash during W(v2); recover; W(v3) with two",
        "concurrent reads by another process.",
        "",
        f"{'algorithm':<12s} {'R1':>5s} {'R2':>5s} "
        f"{'persistent-atomic':>18s} {'transient-atomic':>17s}",
    ]
    for run in (persistent, transient):
        lines.append(
            f"{run.algorithm:<12s} {str(run.read_results[0]):>5s} "
            f"{str(run.read_results[1]):>5s} "
            f"{str(bool(run.persistent_verdict)):>18s} "
            f"{str(bool(run.transient_verdict)):>17s}"
        )
    return "\n".join(lines)
