"""Table 1 and Figures 4–27: every entry of :data:`repro.figures.FIGURES`.

For each figure the bench times its one data function under
pytest-benchmark, prints its data table and its claim rows (paper next
to model), and asserts every ``repro validate`` claim plus the stricter
bench gates, naming each claim that fails.

Run with::

    pytest benchmarks/bench_figures.py --benchmark-only -s
"""

import pytest

from benchmarks.conftest import emit
from repro.figures import FIGURES
from repro.validation import ClaimSet, render_report


@pytest.mark.parametrize("key", list(FIGURES))
def test_figure(benchmark, key):
    fig = FIGURES[key]
    data = benchmark(fig.data)
    cs = ClaimSet()
    fig.claims(data, cs, gates=cs)
    emit(fig.render(data))
    emit(render_report(cs))
    failed = [
        f"{c.figure}: {c.statement} (paper {c.expected}, model {c.measured})"
        for c in cs.failures()
    ]
    assert not failed, failed
