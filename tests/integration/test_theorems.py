"""Integration: the lower-bound runs of Theorems 1 and 2.

These tests execute the adversarial schedules from the paper's proofs
(runs rho_1..rho_4, Figures 2 and 3) and verify both directions:

* the paper's algorithms *survive* the adversary (the bounds are
  tight: 2 causal logs per persistent write, 1 per transient write,
  1 per read suffice);
* algorithms below the bound *fail* exactly as the proofs predict.
"""

import pytest

from repro.experiments.lower_bounds import (
    adopted,
    hold,
    read_via,
    run_rho1,
    run_rho2,
    run_rho3,
    run_rho4,
    scripted_cluster,
)


class TestTheorem1:
    """Persistent atomic writes need two causal logs."""

    def test_persistent_algorithm_survives_rho1(self):
        run = run_rho1("persistent")
        assert run.persistent_verdict.ok, run.history.format()
        # Recovery replayed v2, and W(v3) picked a higher tag, so both
        # reads see v3.
        assert run.read_results == ["v3", "v3"]

    def test_transient_algorithm_survives_rho1_transiently(self):
        run = run_rho1("transient")
        assert run.transient_verdict.ok, run.history.format()

    def test_one_log_writer_violates_persistent_atomicity(self):
        run = run_rho1("broken-no-prelog")
        assert not run.persistent_verdict.ok
        # The orphaned v2 and the new v3 share one timestamp; quorum
        # choice decides which surfaces -- reads flip between them.
        assert run.read_results == ["v2", "v3"]

    def test_one_log_writer_violates_even_transient_atomicity(self):
        # Confused values are fatal under weak completion too.
        run = run_rho1("broken-no-prelog")
        assert not run.transient_verdict.ok


class TestTheorem2:
    """Even transient atomic reads need one causal log."""

    def test_rho2_alone_is_atomic(self):
        run = run_rho2("persistent")
        assert run.persistent_verdict.ok
        assert run.read_results == ["v1"]

    def test_rho3_alone_is_atomic(self):
        run = run_rho3("persistent")
        assert run.persistent_verdict.ok
        assert run.read_results == ["v2"]

    @pytest.mark.parametrize("algorithm", ["persistent", "transient"])
    def test_logging_reader_survives_rho4(self, algorithm):
        run = run_rho4(algorithm)
        assert run.transient_verdict.ok, run.history.format()
        assert run.persistent_verdict.ok
        # The reader's write-back made v2 durable at a majority that
        # includes the reader itself, so it remembers across its crash.
        assert run.read_results == ["v2", "v2"]

    @pytest.mark.parametrize("algorithm", ["persistent", "transient"])
    def test_first_read_costs_exactly_one_causal_log(self, algorithm):
        # The bound is tight: R1 propagates the freshly observed v2 and
        # pays one causal log; R2 finds it already durable and pays none.
        run = run_rho4(algorithm)
        assert run.read_causal_logs == [1, 0]

    def test_log_free_reader_violates_transient_atomicity(self):
        run = run_rho4("broken-no-writeback")
        assert not run.transient_verdict.ok
        # v2 then v1: the inversion of the indistinguishability proof.
        assert run.read_results == ["v2", "v1"]

    def test_log_free_reader_reads_without_logs(self):
        run = run_rho4("broken-no-writeback")
        assert run.read_causal_logs == [0, 0]


class TestAdversaryMoves:
    """The moves every scripted run is built from, on their own."""

    @staticmethod
    def _held_second_write():
        # p0's W(v2) reaches only p2, which durably adopts it.
        cluster = scripted_cluster("persistent", 3, seed=5)
        session = cluster.session(0)
        session.write_sync("v1")
        w2 = session.write("v2")
        release = hold(cluster, w2, (2,))
        adopted(cluster, (2,), "W(v2)")
        return cluster, w2, release

    def test_read_via_sees_the_quorum_and_unblocks_after(self):
        cluster, _, _ = self._held_second_write()
        assert read_via(cluster, 1, (1, 2)).result == "v2"
        assert not any(
            cluster.network.is_blocked(src, dst)
            for src in range(3)
            for dst in range(3)
        )

    def test_read_via_cuts_only_the_links_to_the_reader(self):
        # p0's answers never reach the reader, but the reader's
        # write-back still reaches p0, which adopts v2.
        cluster, _, _ = self._held_second_write()
        read_via(cluster, 1, (1, 2))
        cluster.run(0.001)
        assert cluster.node(0).protocol.durable_tag.sn == 2

    def test_held_write_settles_only_after_the_release(self):
        cluster, w2, release = self._held_second_write()
        assert not cluster.run_until(lambda: w2.settled, timeout=0.05)
        release()
        cluster.wait(w2)
        assert w2.done
