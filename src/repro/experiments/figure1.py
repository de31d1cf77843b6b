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

The schedule is built from the moves of
:mod:`repro.experiments.lower_bounds`: an interrupted write whose
``W(v2)`` reaches only ``p2``, the recovered writer's ``W(v3)`` held
back from invocation until it reaches its propagate round, and two
reads whose quorums are steered away from ``p2`` and then onto it.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ReproError
from repro.experiments.lower_bounds import (
    AdversarialRun,
    hold,
    interrupted_write,
    read_via,
    scripted_cluster,
)
from repro.protocol.quorum import Phase


def _interrupted_write_scenario(
    algorithm: str, seed: Optional[int] = None
) -> AdversarialRun:
    """Drive the Figure 1 schedule against ``algorithm``.

    Processes: p0 = writer, p1 = reader, p2 = the only process that
    receives the interrupted ``W(v2)``.
    """
    cluster = scripted_cluster(algorithm, 3, 1 if seed is None else seed)
    interrupted_write(cluster, 0, (2,))

    # -- W(v3): keep p2 out of the query quorum (the transient writer
    # must not learn v2's sequence number through it), then hold the
    # second round back -- from invocation on, before the writer starts
    # broadcasting it -- so the reads below run concurrently with the
    # write, as in Figure 1.
    writer = cluster.node(0)
    cluster.network.block(2, 0)
    w3 = cluster.session(0).write("v3")
    release = hold(cluster, w3)
    if not cluster.run_until(
        lambda: writer.protocol.phase == Phase.PROPAGATE, timeout=1.0
    ):
        raise ReproError("W(v3) never reached its propagate round")
    cluster.network.unblock(2, 0)

    # -- R1 by p1 with quorum {p0, p1}: the single copy of v2 stays
    # invisible.  R2 with quorum {p1, p2}: if p2 holds v2, v2 surfaces.
    reads = [read_via(cluster, 1, (0, 1)), read_via(cluster, 1, (1, 2))]
    release()
    cluster.wait(w3)
    return AdversarialRun.of(cluster, "figure1", algorithm, reads)


def run_persistent(seed: Optional[int] = None) -> AdversarialRun:
    """The left-hand run of Figure 1 (persistent atomicity)."""
    return _interrupted_write_scenario("persistent", seed=seed)


def run_transient(seed: Optional[int] = None) -> AdversarialRun:
    """The right-hand run of Figure 1 (transient atomicity)."""
    return _interrupted_write_scenario("transient", seed=seed)


def format_figure1(persistent: AdversarialRun, transient: AdversarialRun) -> str:
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
