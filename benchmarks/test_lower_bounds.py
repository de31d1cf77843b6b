"""Theorems 1 and 2: the lower-bound runs (Figures 2 and 3).

Regenerates the adversarial runs rho_1..rho_4 against the paper's
algorithms (which must survive) and the below-bound variants (which
must fail), producing the verdict table in ``results/lower_bounds.txt``.
"""

import pytest

from repro.experiments.lower_bounds import (
    format_lower_bounds,
    run_rho1,
    run_rho2,
    run_rho3,
    run_rho4,
)

RHO1_ALGORITHMS = ("persistent", "transient", "broken-no-prelog")
RHO4_ALGORITHMS = ("persistent", "transient", "broken-no-writeback")


@pytest.mark.parametrize("algorithm", RHO1_ALGORITHMS)
def test_rho1(algorithm):
    run = run_rho1(algorithm)
    if algorithm == "broken-no-prelog":
        assert not run.persistent_verdict.ok
    else:
        assert run.transient_verdict.ok


@pytest.mark.parametrize("algorithm", RHO4_ALGORITHMS)
def test_rho4(algorithm):
    run = run_rho4(algorithm)
    if algorithm == "broken-no-writeback":
        assert not run.transient_verdict.ok
    else:
        assert run.transient_verdict.ok
        assert run.read_causal_logs == [1, 0]


def test_full_table(write_result):
    runs = [run_rho1(a) for a in RHO1_ALGORITHMS]
    runs += [run_rho4(a) for a in RHO4_ALGORITHMS]
    runs.append(run_rho2("persistent"))
    runs.append(run_rho3("persistent"))
    write_result("lower_bounds", format_lower_bounds(runs))
