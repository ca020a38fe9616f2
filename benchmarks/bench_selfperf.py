"""Self-benchmark harness: times the simulator itself, not the models.

Runs the :mod:`repro.perf.selfbench` campaigns (simulated allreduce at
16/64/256 ranks, the NPB MG Class C sweep through the evaluation cache,
the ``fig22`` decomposition campaign exactly as ``repro campaign run
fig22`` runs it, the batched Fig-22 lattice, an engine spawn/join
storm, and — with ``--scale`` — a P=4096 allreduce through the analytic
collective fast path) and writes ``BENCH_selfperf.json`` so the
simulator's own performance trajectory is tracked across PRs.

Run as a script; it is ``python -m repro bench`` with the same flags,
report and exit status (non-zero iff
:func:`repro.perf.selfbench.report_failures` names a failed check)::

    PYTHONPATH=src python benchmarks/bench_selfperf.py --quick
    PYTHONPATH=src python benchmarks/bench_selfperf.py --parallel 4

With ``--parallel N > 1`` the Fig-22 campaign is timed serially *and*
on the pool; the report records the wall-clock speedup and whether the
two result payloads are byte-identical.  (Speedup needs real cores and a
campaign long enough to amortise pool start-up: the fig22 campaign is
tens of milliseconds, so the recorded speedup may be below 1.)

Under pytest (collected with the other ``bench_*`` figures) it runs the
quick campaigns as a smoke test.
"""

from __future__ import annotations

import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cli import main as cli_main

    return cli_main(["bench", *(sys.argv[1:] if argv is None else argv)])


def test_selfperf_quick(tmp_path):
    """Smoke: quick campaigns complete, report well-formed, sims correct."""
    from repro.perf.selfbench import report_failures, run_selfperf

    out = tmp_path / "BENCH_selfperf.json"
    report = run_selfperf(workers=2, quick=True, output=str(out), scale=True)
    assert out.exists()
    assert report_failures(report) == []
    c = report["campaigns"]
    assert c["mg_sweep"]["identical"]
    assert c["fig22"]["identical"]
    assert c["fig22"]["points"] == 9
    assert c["engine_storm"]["engine_steps"] > 0
    assert c["scale"]["ranks"] == 512


if __name__ == "__main__":
    sys.exit(main())
