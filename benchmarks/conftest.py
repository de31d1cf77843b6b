"""Shared helpers for the paper-fidelity suite.

Every test here regenerates one of the paper's tables/figures, asserts
the paper's claims about it, and writes the reproduced rows/series to
``benchmarks/results/<name>.txt`` for a reader to compare against the
paper.  Nothing here is timed: ``bench/run.py`` measures engine speed.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    def writer(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")

    return writer
