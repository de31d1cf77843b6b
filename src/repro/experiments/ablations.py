"""Ablations: remove one design ingredient, observe the paper's anomaly.

Section I-C of the paper names the failure mode each log prevents; the
model section adds the majority-quorum requirement.  Each ablation here
runs a deliberately weakened protocol (from
:mod:`repro.protocol.broken`) under a deterministic adversarial
schedule, checks that the promised anomaly appears (the atomicity
checkers reject the history), and runs the *correct* counterpart under
the same schedule to show the anomaly is the ablation's fault:

=====================  ====================  ==========================
ablation               anomaly               paper's name
=====================  ====================  ==========================
writer pre-log         duplicate tag, reads  confused-values /
removed                flip between values   orphan-value  (Theorem 1)
read write-back        value forgotten       new/old inversion
removed                across reader crash   (Theorem 2)
recovery counter       duplicate tag after   confused-values
removed (transient)    writer recovery       (Section IV-C)
majority quorum        completed write       forgotten-value
shrunk to one ack      lost after crash      (Sections I-C, II)
=====================  ====================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.lower_bounds import (
    AdversarialRun,
    confused_values,
    hold,
    run_rho1,
    run_rho4,
    scripted_cluster,
)
from repro.history.checker import AtomicityVerdict, check_persistent_atomicity


@dataclass
class AblationResult:
    """One ablation/control pair."""

    name: str
    anomaly: str
    broken_algorithm: str
    control_algorithm: str
    #: Verdict of the *promised* criterion on the broken run.
    broken_verdict: AtomicityVerdict
    #: Same criterion on the control run (same schedule, correct code).
    control_verdict: AtomicityVerdict

    @property
    def demonstrated(self) -> bool:
        """Anomaly present with the ablation, absent without it."""
        return (not self.broken_verdict.ok) and self.control_verdict.ok


def ablate_writer_prelog(seed: Optional[int] = None) -> AblationResult:
    """Remove Figure 4's ``writing`` pre-log: run rho_1 becomes fatal."""
    broken = run_rho1("broken-no-prelog", seed=seed)
    control = run_rho1("persistent", seed=seed)
    return AblationResult(
        name="writer-prelog",
        anomaly="confused/orphan values",
        broken_algorithm="broken-no-prelog",
        control_algorithm="persistent",
        broken_verdict=broken.persistent_verdict,
        control_verdict=control.persistent_verdict,
    )


def ablate_read_writeback(seed: Optional[int] = None) -> AblationResult:
    """Remove the read's write-back round: run rho_4 becomes fatal."""
    broken = run_rho4("broken-no-writeback", seed=seed)
    control = run_rho4("persistent", seed=seed)
    return AblationResult(
        name="read-writeback",
        anomaly="new/old inversion across reader crash",
        broken_algorithm="broken-no-writeback",
        control_algorithm="persistent",
        broken_verdict=broken.transient_verdict,
        control_verdict=control.transient_verdict,
    )


def _rec_counter_scenario(
    algorithm: str, seed: Optional[int] = None
) -> AdversarialRun:
    """Duplicate-tag schedule for the transient recovery counter.

    Run rho_1's schedule on 3 processes.  Writer is ``p2`` so the single
    adopter of the interrupted write (``p0``) wins quorum tie-breaks
    under duplicate tags.  Without the recovery counter, ``W(v3)``'s
    query quorum ``{p1, p2}`` never saw ``v2``'s sequence number and
    re-issues the same tag for ``v3``; ``R1`` at ``p0`` (quorum ``{p0,
    p1}``) then surfaces ``v2`` and ``R2`` at ``p1`` sees only ``v3``.
    """
    return confused_values(
        algorithm, 3, 2, (0,), 11 if seed is None else seed, "rec-counter"
    )


def ablate_recovery_counter(seed: Optional[int] = None) -> AblationResult:
    """Remove Figure 5's ``rec`` counter: recovered writer reuses a tag."""
    broken = _rec_counter_scenario("broken-no-rec", seed=seed)
    control = _rec_counter_scenario("transient", seed=seed)
    return AblationResult(
        name="recovery-counter",
        anomaly="duplicate timestamp after writer recovery",
        broken_algorithm="broken-no-rec",
        control_algorithm="transient",
        broken_verdict=broken.transient_verdict,
        control_verdict=control.transient_verdict,
    )


def _submajority_scenario(algorithm: str, seed: Optional[int] = None):
    """Forgotten-value schedule: complete a write, crash the writer."""
    cluster = scripted_cluster(algorithm, 3, 13 if seed is None else seed)
    # The sub-majority writer returns after its own loopback ack, i.e.
    # before any other process durably holds v1.  To keep the schedule
    # identical for the control, hold the write's second round away
    # from everyone but the writer itself.
    w1 = cluster.session(0).write("v1")
    release = hold(cluster, w1, (0,))
    cluster.run_until(lambda: w1.settled, timeout=1.0)
    release()
    completed = w1.done
    if not completed:
        # The correct algorithm keeps retransmitting; the write finishes
        # once the hold is gone and a majority logs it.  Then even
        # losing the writer forever loses nothing.
        cluster.wait(w1)
    # The broken variant declared the write done at once; now its only
    # copy disappears forever.
    cluster.crash(0)
    read = cluster.wait(cluster.session(1).read())
    return completed, read.result, check_persistent_atomicity(cluster.history)


def ablate_majority_quorum(seed: Optional[int] = None) -> AblationResult:
    """Shrink the write quorum to one ack: completed writes can vanish."""
    _, _, broken_verdict = _submajority_scenario("broken-submajority", seed=seed)
    _, _, control_verdict = _submajority_scenario("persistent", seed=seed)
    return AblationResult(
        name="majority-quorum",
        anomaly="forgotten value after minority crash",
        broken_algorithm="broken-submajority",
        control_algorithm="persistent",
        broken_verdict=broken_verdict,
        control_verdict=control_verdict,
    )


ALL_ABLATIONS = (
    ablate_writer_prelog,
    ablate_read_writeback,
    ablate_recovery_counter,
    ablate_majority_quorum,
)


def run_all_ablations(seed: Optional[int] = None) -> List[AblationResult]:
    """Run every ablation/control pair (``seed`` overrides each curated seed)."""
    return [ablation(seed=seed) for ablation in ALL_ABLATIONS]


def format_ablations(results: List[AblationResult]) -> str:
    """Render the ablation outcomes as a table."""
    header = (
        f"{'ablation':<18s} {'anomaly':<42s} "
        f"{'broken ok?':>10s} {'control ok?':>11s} {'shown':>6s}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        lines.append(
            f"{result.name:<18s} {result.anomaly:<42s} "
            f"{str(result.broken_verdict.ok):>10s} "
            f"{str(result.control_verdict.ok):>11s} "
            f"{'yes' if result.demonstrated else 'NO':>6s}"
        )
    return "\n".join(lines)
