"""Figure 1: the persistent vs. transient demonstration runs.

Runs the scripted Figure 1 schedule against both algorithms and
records the observed reads plus both checkers' verdicts -- the paper's
figure as a regenerable table.
"""

from repro.experiments.figure1 import format_figure1, run_persistent, run_transient


def test_persistent_run():
    run = run_persistent()
    assert run.read_results == ["v2", "v2"]
    assert run.persistent_verdict.ok
    assert run.transient_verdict.ok


def test_transient_run():
    run = run_transient()
    assert run.read_results == ["v1", "v2"]
    assert not run.persistent_verdict.ok
    assert run.transient_verdict.ok


def test_full_figure(write_result):
    write_result("figure1", format_figure1(run_persistent(), run_transient()))
