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

This module replays those runs deterministically.  Every scripted run
of the package (these, Figure 1, the ablations and Section VI's
inversion) is built from four moves -- :func:`hold`, :func:`adopted`,
:func:`read_via` and :func:`interrupted_write` -- and the two proofs'
runs are two schedules over them: :func:`confused_values` (Theorem 1)
and :func:`reader_across_write` (Theorem 2).  Each schedule is
parameterized by algorithm so the same adversary can be thrown at the
paper's algorithms (which survive -- the bounds are tight) and at the
deliberately weakened variants of :mod:`repro.protocol.broken` (which
violate the criteria, demonstrating the bounds are real).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.api import open_cluster
from repro.common.errors import ReproError
from repro.history.checker import (
    AtomicityVerdict,
    check_persistent_atomicity,
    check_transient_atomicity,
)
from repro.history.history import History
from repro.history.regular_checker import check_regularity, check_safety
from repro.protocol.messages import WriteRequest


@dataclass
class AdversarialRun:
    """Outcome of one scripted run; each verdict is checked on first use."""

    scenario: str
    algorithm: str
    read_results: List[Any]
    read_causal_logs: List[Optional[int]]
    history: History

    @classmethod
    def of(cls, cluster, scenario: str, algorithm: str, reads) -> "AdversarialRun":
        return cls(
            scenario=scenario,
            algorithm=algorithm,
            read_results=[read.result for read in reads],
            read_causal_logs=[read.causal_logs for read in reads],
            history=cluster.history,
        )

    @cached_property
    def persistent_verdict(self) -> AtomicityVerdict:
        return check_persistent_atomicity(self.history)

    @cached_property
    def transient_verdict(self) -> AtomicityVerdict:
        return check_transient_atomicity(self.history)

    @property
    def atomic(self) -> bool:
        """Shorthand: does the run satisfy even transient atomicity?"""
        return bool(self.transient_verdict)

    @cached_property
    def regular(self) -> bool:
        return bool(check_regularity(self.history))

    @cached_property
    def safe(self) -> bool:
        return bool(check_safety(self.history))


def scripted_cluster(algorithm: str, num_processes: int, seed: int):
    """A started simulated cluster that accepts the broken variants too."""
    return open_cluster(
        "sim", protocol=algorithm, num_processes=num_processes, seed=seed,
        include_broken=True,
    ).start()


# -- the four moves ----------------------------------------------------------


def hold(cluster, write, reach: Iterable[int] = ()) -> Callable[[], None]:
    """Drop ``write``'s ``WriteRequest``s to every process outside ``reach``.

    Returns the release.  Everything else flows, so the write's query
    round completes and its second round reaches ``reach`` only.
    """
    op, reach = write.op, frozenset(reach)
    return cluster.network.add_filter(
        lambda src, dst, msg: (
            isinstance(msg, WriteRequest) and msg.op == op and dst not in reach
        )
    )


def adopted(cluster, pids: Sequence[int], what: str) -> None:
    """Run until each of ``pids`` has durably logged the second write."""
    nodes = [cluster.node(pid) for pid in pids]
    if not cluster.run_until(
        lambda: all(node.protocol.durable_tag.sn >= 2 for node in nodes),
        timeout=1.0,
    ):
        names = "/".join(f"p{pid}" for pid in pids)
        raise ReproError(f"{names} never adopted {what}")


def read_via(cluster, reader: int, quorum: Sequence[int]):
    """Read at ``reader`` hearing only from ``quorum``; returns the handle.

    Each other process's link *to* the reader is blocked for the read
    and unblocked after it; the reader's own messages still reach
    everyone, so its write-back lands outside the quorum too.
    """
    network = cluster.network
    others = [pid for pid in range(cluster.num_processes) if pid not in quorum]
    for pid in others:
        network.block(pid, reader)
    read = cluster.wait(cluster.session(reader).read())
    for pid in others:
        network.unblock(pid, reader)
    return read


def interrupted_write(cluster, writer: int, adopters: Sequence[int]) -> None:
    """``W(v1)`` completes; ``W(v2)`` reaches only ``adopters``; the writer
    crashes (before it can assemble a majority of acknowledgments) and
    recovers -- the persistent algorithm replays ``v2``, the transient
    one only bumps its recovery counter."""
    session = cluster.session(writer)
    session.write_sync("v1")
    w2 = session.write("v2")
    release = hold(cluster, w2, adopters)
    adopted(cluster, adopters, "the interrupted W(v2)")
    cluster.crash(writer)
    assert w2.aborted
    release()
    cluster.recover(writer)


# -- Theorem 1 -----------------------------------------------------------------


def confused_values(
    algorithm: str,
    n: int,
    writer: int,
    adopters: Sequence[int],
    seed: int,
    scenario: str,
) -> AdversarialRun:
    """The Theorem 1 schedule on ``n`` processes.

    After an interrupted write, ``W(v3)`` runs with the adopters' links
    to the writer blocked, so its query quorum never sees ``v2``'s
    sequence number.  Then the lowest majority reads at ``p0`` and the
    non-adopters read at the lowest of them.  The adopters need the
    *smallest* ids: under the duplicate tags a one-log writer produces,
    quorum tie-breaks then surface the orphaned ``v2`` at ``p0``.
    """
    cluster = scripted_cluster(algorithm, n, seed)
    interrupted_write(cluster, writer, adopters)
    for pid in adopters:
        cluster.network.block(pid, writer)
    w3 = cluster.session(writer).write("v3")
    if not cluster.run_until(lambda: w3.settled, timeout=1.0):
        raise ReproError("W(v3) did not complete")
    for pid in adopters:
        cluster.network.unblock(pid, writer)
    others = [pid for pid in range(n) if pid not in adopters]
    reads = [
        read_via(cluster, 0, range(n // 2 + 1)),
        read_via(cluster, others[0], others),
    ]
    return AdversarialRun.of(cluster, scenario, algorithm, reads)


def run_rho1(
    algorithm: str = "persistent", seed: Optional[int] = None
) -> AdversarialRun:
    """Run rho_1 of the Theorem 1 proof (Figure 2), on 5 processes.

    Writer ``p4``; ``W(v2)`` reaches only ``{p0, p1}``; ``W(v3)``'s
    query quorum is ``{p2, p3, p4}``; then ``R1`` (quorum ``{p0, p1,
    p2}``) and ``R2`` (quorum ``{p2, p3, p4}``).
    """
    return confused_values(
        algorithm, 5, 4, (0, 1), 3 if seed is None else seed, "rho1"
    )


# -- Theorem 2 -----------------------------------------------------------------

#: The quorum through which reader ``p1`` sees each value of the write.
_SEES = {"new": (1, 2), "old": (0, 1)}


def reader_across_write(
    algorithm: str,
    moves: Sequence[str],
    seed: int,
    scenario: str,
    values: Sequence[Any] = ("v1", "v2"),
) -> AdversarialRun:
    """The Theorem 2 schedule on 3 processes.

    ``p0`` writes ``values[0]`` (complete) and then ``values[1]``,
    whose second round reaches only ``p2`` and stays open while the
    reader ``p1`` makes ``moves``: ``"new"`` reads with quorum ``{p1,
    p2}`` once ``p2`` adopted the write, ``"crash"`` crashes and
    recovers the reader, ``"old"`` reads with quorum ``{p0, p1}``.
    Then the write is released and finishes.
    """
    cluster = scripted_cluster(algorithm, 3, seed)
    writer = cluster.session(0)
    writer.write_sync(values[0])
    w2 = writer.write(values[1])
    release = hold(cluster, w2, (2,))
    reads = []
    for move in moves:
        if move == "crash":
            cluster.crash(1)
            cluster.recover(1)
            continue
        if move == "new":
            adopted(cluster, (2,), f"W({values[1]})")
        reads.append(read_via(cluster, 1, _SEES[move]))
    release()
    cluster.wait(w2)
    return AdversarialRun.of(cluster, scenario, algorithm, reads)


def run_rho4(
    algorithm: str = "persistent", seed: Optional[int] = None
) -> AdversarialRun:
    """Run rho_4 of the Theorem 2 proof (Figure 3): new, crash, old.

    A reader that logged -- the algorithms' read write-back logs ``v2``
    at a majority including the reader itself -- returns ``v2`` again;
    a log-free reader forgets and returns ``v1``, an inversion that
    violates transient atomicity.
    """
    return reader_across_write(
        algorithm, ("new", "crash", "old"), 5 if seed is None else seed, "rho4"
    )


def run_rho2(
    algorithm: str = "persistent", seed: Optional[int] = None
) -> AdversarialRun:
    """Run rho_2 (Figure 3): crash, then old -- legal.

    The run satisfies atomicity; it exists to pin down that the
    *combination* in rho_4 is what becomes contradictory.
    """
    return reader_across_write(
        algorithm, ("crash", "old"), 7 if seed is None else seed, "rho2"
    )


def run_rho3(
    algorithm: str = "persistent", seed: Optional[int] = None
) -> AdversarialRun:
    """Run rho_3 (Figure 3): new, then crash -- legal."""
    return reader_across_write(
        algorithm, ("new", "crash"), 9 if seed is None else seed, "rho3"
    )


def format_lower_bounds(runs: List[AdversarialRun]) -> str:
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
