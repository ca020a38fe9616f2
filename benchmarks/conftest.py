"""Shared fixtures for the figure-reproduction benchmarks.

``bench_figures.py`` regenerates every table and figure of the paper from
:data:`repro.figures.FIGURES`: it computes each figure's data from the
models (timed under pytest-benchmark), prints the figure's table and its
paper-vs-model claim rows, and asserts every claim so a calibration
regression fails loudly.  The other ``bench_*.py`` files gate extensions,
ablations and the simulator's own performance.

Run them with::

    pytest benchmarks/ --benchmark-only -s
"""

import pytest

from repro.core.evaluator import Evaluator


@pytest.fixture(scope="session")
def evaluator() -> Evaluator:
    """One evaluator (Maia node + post-update software) for all benches."""
    return Evaluator()


def emit(text: str) -> None:
    """Print a rendered table (kept visible under pytest -s)."""
    print()
    print(text)
