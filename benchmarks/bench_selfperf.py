"""Self-benchmark: how fast is the simulator itself?

Times representative workloads of the simulator (not of the modeled
machine) and writes ``BENCH_selfperf.json``, so the simulator's own
performance trajectory is tracked across changes and diffed by
``benchmarks/benchdiff.py``:

* ``allreduce`` — discrete-event MPI_Allreduce simulations at 16, 64
  and 256 ranks (the simcore + MPI-runtime hot path).
* ``mg_sweep`` — the NPB OpenMP Class C evaluation grid (Figs 19/25)
  priced twice through a shared :class:`~repro.perf.cache.EvalCache`,
  reporting the hit rate and the cached-pass speedup.
* ``fig22`` — the OVERFLOW (I MPI ranks × J OpenMP threads)
  decomposition campaign exactly as ``repro campaign run fig22`` runs
  it: every point prices the step and its compiled halo+allreduce
  exchange at I × J ranks, journaled through the campaign runner.
* ``engine_storm`` — a spawn/join storm on the raw engine (the O(1)
  process-retirement regression guard).
* ``cold_start`` — a fresh interpreter imports
  :mod:`repro.mpi.compile` and prices one P=16 allreduce (best of 5),
  recording the wall and every ``repro`` module it loaded.
* ``scale`` — (opt-in via ``--scale``) MPI_Allreduce at 4096 ranks on
  the Phi fabric, stepped hop by hop: the stepped engine's large-P leg.

Every campaign runs serially and deterministically.
:func:`report_failures` is the one pass/fail rule over a report; the
script exits non-zero iff it names a failed check::

    PYTHONPATH=src python benchmarks/bench_selfperf.py            # full
    PYTHONPATH=src python benchmarks/bench_selfperf.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_selfperf.py --scale --output report.json

Under pytest it runs the quick campaigns as a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

# Imported before any timer starts, so no campaign's wall time carries
# the library's import cost.  The numpy-backed models (``repro.apps``,
# ``repro.npb.characterization``) are imported where they are used, so
# this module, and the engine storm with it, imports without numpy;
# :func:`run_selfperf` loads them before its first timer.
from repro.campaign import run_campaign
from repro.campaign.experiments import build_spec, reset_job_stats
from repro.core import Evaluator
from repro.core.report import render_table
from repro.core.sweep import INFEASIBLE_ERRORS
from repro.machine.node import Device
from repro.mpi.fabrics import phi_fabric
from repro.mpi.runtime import mpiexec
from repro.perf.cache import EvalCache
from repro.simcore import Engine, Timeout, WaitEvent


# ==========================================================================
# Campaign 1: simulated MPI_Allreduce (simcore + MPI runtime hot path)
# ==========================================================================


def _allreduce_main(nbytes: int, comm):
    total = yield from comm.allreduce(comm.rank, nbytes=nbytes)
    return total


def _allreduce_point(point: Tuple[int, int]) -> Dict[str, Any]:
    ranks, nbytes = point
    engine = Engine()
    job = mpiexec(ranks, phi_fabric(2), partial(_allreduce_main, nbytes), engine=engine)
    expected = ranks * (ranks - 1) // 2
    return {
        "ranks": ranks,
        "nbytes": nbytes,
        "sim_elapsed": job.elapsed,
        "engine_steps": engine.timeline(),
        "correct": all(r == expected for r in job.returns),
    }


def allreduce_points(quick: bool = False) -> List[Tuple[int, int]]:
    if quick:
        return [(16, 8), (64, 8)]
    return [(16, 8), (16, 65536), (64, 8), (64, 65536), (256, 8), (256, 65536)]


def allreduce_campaign(quick: bool = False) -> List[Dict[str, Any]]:
    """Simulated allreduce runs (16/64/256 ranks × small/large messages)."""
    return [_allreduce_point(point) for point in allreduce_points(quick)]


# ==========================================================================
# Campaign 2: NPB MG / OpenMP suite sweep through the evaluation cache
# ==========================================================================


def mg_cache_campaign(quick: bool = False) -> Dict[str, Any]:
    """Price the Figs 19/25 evaluation grid twice through one cache.

    The second pass should be all hits; the report carries the measured
    hit rate and the cold/warm pass times.
    """
    from repro.npb.characterization import OPENMP_BENCHMARKS, class_c_kernel

    benches = ["MG"] if quick else list(OPENMP_BENCHMARKS)
    cache = EvalCache()
    ev = Evaluator(cache=cache)
    grid = [
        (b, dev, t)
        for b in benches
        for dev, counts in ((Device.HOST, (16,)), (Device.PHI0, (59, 118, 177, 236)))
        for t in counts
    ]

    def run_pass() -> List[Optional[float]]:
        out: List[Optional[float]] = []
        for b, dev, t in grid:
            try:
                out.append(ev.native(dev, class_c_kernel(b), t).gflops)
            except INFEASIBLE_ERRORS:
                out.append(None)
        return out

    t0 = time.perf_counter()
    cold = run_pass()
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = run_pass()
    warm_s = time.perf_counter() - t0
    return {
        "points": len(grid),
        "identical": cold == warm,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cache_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "cache": cache.stats.as_dict(),
    }


# ==========================================================================
# Campaign 3: the Fig-22 decomposition campaign
# ==========================================================================


def fig22_campaign(quick: bool = False):
    """Run the ``fig22`` campaign users run, from a cold job memo.

    This is :func:`~repro.campaign.experiments.build_spec`'s ``fig22``
    spec — the one ``repro campaign run fig22`` executes — journaled
    into a throwaway directory.  The fig22 job memo is dropped first, so
    every run prices from the same cold state.  Returns the
    :class:`~repro.campaign.runner.CampaignRun`.
    """
    reset_job_stats()
    with tempfile.TemporaryDirectory() as tmp:
        return run_campaign(
            build_spec("fig22", quick=quick),
            os.path.join(tmp, "fig22.jsonl"),
        )


# ==========================================================================
# Campaign 5: large-P scaling (the stepped engine, hop by hop)
# ==========================================================================


def scale_campaign(quick: bool = False) -> Dict[str, Any]:
    """Step one MPI_Allreduce at large P through the event engine.

    ``mpiexec`` walks the allreduce's algorithm hop by hop: O(P log P)
    point-to-point messages, each a handful of engine steps.  P = 4096
    takes about a second (151,552 engine steps) on a 2-vCPU host; the
    quick leg runs P = 512.  ``engine_steps`` is deterministic, so the
    committed report pins it.  Correctness is asserted on every rank's
    reduction payload.
    """
    ranks = 512 if quick else 4096
    nbytes = 65536
    engine = Engine()
    t0 = time.perf_counter()
    job = mpiexec(
        ranks, phi_fabric(2), partial(_allreduce_main, nbytes), engine=engine
    )
    wall = time.perf_counter() - t0
    expected = ranks * (ranks - 1) // 2
    return {
        "ranks": ranks,
        "nbytes": nbytes,
        "wall_s": wall,
        "sim_elapsed": job.elapsed,
        "engine_steps": engine.timeline(),
        "correct": all(r == expected for r in job.returns),
    }


# ==========================================================================
# Campaign 4: engine spawn/join storm (O(1) retirement guard)
# ==========================================================================


def spawn_join_storm(n_procs: int) -> Tuple[float, int]:
    """Spawn ``n_procs`` short-lived processes plus joiners; run to empty.

    Returns (final simulated time, engine steps).  With O(1) process
    retirement the step count and wall time scale linearly in
    ``n_procs``; the old ``list.remove`` retirement made this quadratic.
    """
    eng = Engine()

    def worker(k: int):
        yield Timeout(float(k % 7) * 1e-6)
        return k

    def joiner(proc):
        v = yield WaitEvent(proc.done)
        return v

    for k in range(n_procs):
        p = eng.spawn(worker(k), name=f"w{k}")
        eng.spawn(joiner(p), name=f"j{k}")
    eng.run()
    return eng.now, eng.timeline()


def engine_storm(quick: bool = False) -> Dict[str, Any]:
    n = 1000 if quick else 5000
    t0 = time.perf_counter()
    _, steps = spawn_join_storm(n)
    wall = time.perf_counter() - t0
    return {"processes": 2 * n, "engine_steps": steps, "wall_s": wall}


# ==========================================================================
# Campaign 5: cold start (what a fresh process loads to price one job)
# ==========================================================================

#: Run by a fresh interpreter: import the compiled entry, price one
#: P=16 allreduce, print the wall, the path and the modules loaded.
COLD_START = """
import json, sys, time
t0 = time.perf_counter()
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric

def main(comm):
    total = yield from comm.allreduce(comm.rank, nbytes=8)
    return total

stats = CompileStats()
job = compiled_mpiexec(16, host_fabric(), main, stats=stats)
wall = time.perf_counter() - t0
print(json.dumps({
    "wall_s": wall, "path": stats.path,
    "correct": all(r == 16 * 15 // 2 for r in job.returns),
    "modules": sorted(m for m in sys.modules
                      if m == "repro" or m.startswith("repro.")),
}))
"""


def cold_start() -> Dict[str, Any]:
    """Import :mod:`repro.mpi.compile` and price one P=16 allreduce in a
    fresh interpreter, best wall of five.

    Every fresh process that prices MPI jobs, such as a perfsuite round,
    pays this set-up.  The wall covers the imports and the job, not the
    interpreter's own start; ``modules`` is every ``repro`` module the
    process loaded, which benchdiff compares exactly.
    """
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    repeats = 5
    # A file, not ``-c``: lowering reads the rank program's source, as it
    # does in every real process.
    with tempfile.TemporaryDirectory() as tmp:
        probe = os.path.join(tmp, "cold_start.py")
        with open(probe, "w") as fh:
            fh.write(COLD_START)
        runs = [
            json.loads(subprocess.run(
                [sys.executable, probe], capture_output=True,
                text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
            ).stdout)
            for _ in range(repeats)
        ]
    best = min(runs, key=lambda r: r["wall_s"])
    return {"ranks": 16, "repeats": repeats, **best}


# ==========================================================================
# The harness
# ==========================================================================


def _host_cpus() -> int:
    """The CPUs this process may use (recorded to interpret wall times)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def run_selfperf(
    quick: bool = False,
    output: Optional[str] = "BENCH_selfperf.json",
    scale: bool = False,
) -> Dict[str, Any]:
    """Run all campaigns; optionally write the JSON report to ``output``.

    ``scale`` adds the large-P scaling campaign (P = 4096 allreduce,
    stepped hop by hop).
    """
    import repro.apps  # noqa: F401  (numpy-backed; see the imports above)
    import repro.npb.characterization  # noqa: F401

    report: Dict[str, Any] = {
        "schema": 1,
        "host_cpus": _host_cpus(),
        "quick": quick,
        "campaigns": {},
    }

    t0 = time.perf_counter()
    points = allreduce_campaign(quick)
    report["campaigns"]["allreduce"] = {
        "wall_s": time.perf_counter() - t0,
        "points": points,
    }

    t0 = time.perf_counter()
    report["campaigns"]["mg_sweep"] = mg_cache_campaign(quick)
    report["campaigns"]["mg_sweep"]["wall_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    run = fig22_campaign(quick)
    report["campaigns"]["fig22"] = {
        "serial_wall_s": time.perf_counter() - t0,
        "points": len(run.records),
        "feasible": sum(1 for r in run.records if r.status == "ok"),
        "results": run.results_payload()["points"],
    }

    report["campaigns"]["engine_storm"] = engine_storm(quick)
    report["campaigns"]["cold_start"] = cold_start()

    if scale:
        report["campaigns"]["scale"] = scale_campaign(quick)

    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2)
    return report


def report_failures(report: Dict[str, Any]) -> List[str]:
    """Every check a self-perf report fails, as one message each.

    The script exits non-zero iff this list is non-empty.
    """
    c = report["campaigns"]
    fig22 = c["fig22"]
    checks = [
        (all(p["correct"] for p in c["allreduce"]["points"]),
         "simulated allreduce returned wrong sums"),
        (fig22["feasible"] == fig22["points"],
         f"Fig-22 priced {fig22['feasible']}/{fig22['points']} points"),
        (c.get("scale", {}).get("correct", True),
         "scaled allreduce returned wrong sums"),
        (c["cold_start"]["correct"], "cold-start allreduce returned wrong sums"),
    ]
    return [message for ok, message in checks if not ok]


def render_report(report: Dict[str, Any]) -> str:
    """A terminal summary of a self-perf report."""
    c = report["campaigns"]
    rows = [
        ("allreduce sims", f"{c['allreduce']['wall_s']:.3f}",
         f"{len(c['allreduce']['points'])} runs"),
        ("MG/NPB sweep (cached)", f"{c['mg_sweep']['wall_s']:.3f}",
         f"hit rate {c['mg_sweep']['cache']['hit_rate']:.0%}"),
        ("Fig-22 campaign (serial)", f"{c['fig22']['serial_wall_s']:.3f}",
         f"{c['fig22']['feasible']}/{c['fig22']['points']} feasible"),
    ]
    rows.append(
        ("engine storm", f"{c['engine_storm']['wall_s']:.3f}",
         f"{c['engine_storm']['processes']} procs, "
         f"{c['engine_storm']['engine_steps']} steps")
    )
    cs = c["cold_start"]
    rows.append(
        (f"cold start: allreduce P={cs['ranks']}", f"{cs['wall_s']:.3f}",
         f"best of {cs['repeats']}, {cs['path']}, "
         f"{len(cs['modules'])} repro modules")
    )
    sc = c.get("scale")
    if sc is not None:
        rows.append(
            (f"scale: allreduce P={sc['ranks']}", f"{sc['wall_s']:.3f}",
             f"{sc['engine_steps']} steps, correct={sc['correct']}")
        )
    return render_table(("campaign", "wall (s)", "notes"), rows,
                        title="simulator self-benchmark")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Self-benchmark the simulator; writes BENCH_selfperf.json."
    )
    parser.add_argument(
        "--quick", action="store_true", help="small grids (CI smoke mode)"
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="add the large-P scaling campaign (P=4096 allreduce, stepped "
        "hop by hop)",
    )
    parser.add_argument(
        "--output", "--out", dest="output",
        default="BENCH_selfperf.json", metavar="PATH",
        help="JSON report path ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    output = None if args.output == "-" else args.output
    report = run_selfperf(quick=args.quick, output=output, scale=args.scale)
    print(render_report(report))
    if output:
        print(f"\nreport written to {output}")
    failures = report_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


# ==========================================================================
# Smoke tests (collected by pytest with the other bench_* modules)
# ==========================================================================


def test_selfperf_quick(tmp_path):
    """Quick campaigns complete, the report is well-formed, sims correct."""
    out = tmp_path / "BENCH_selfperf.json"
    report = run_selfperf(quick=True, output=str(out), scale=True)
    assert json.loads(out.read_text()) == json.loads(json.dumps(report))
    assert report_failures(report) == []
    c = report["campaigns"]
    assert set(c) == {
        "allreduce", "mg_sweep", "fig22", "engine_storm",
        "cold_start", "scale",
    }
    assert c["mg_sweep"]["identical"]
    assert c["fig22"]["points"] == 9
    assert c["engine_storm"]["engine_steps"] > 0
    assert c["scale"]["correct"] and c["scale"]["ranks"] == 512
    assert c["cold_start"]["path"] == "replay"
    assert "repro.mpi.compile" in c["cold_start"]["modules"]


def test_scale_campaign_is_opt_in_and_failures_are_named():
    report = run_selfperf(quick=True, output=None)
    assert "scale" not in report["campaigns"]
    assert report_failures(report) == []
    fig22 = report["campaigns"]["fig22"]
    fig22["feasible"] -= 1
    report["campaigns"]["scale"] = {"correct": False}
    report["campaigns"]["cold_start"]["correct"] = False
    assert len(report_failures(report)) == 3


def test_allreduce_sums_are_correct():
    points = allreduce_campaign(quick=True)
    assert len(points) == 2
    assert all(p["correct"] for p in points)
    assert all(p["sim_elapsed"] > 0 for p in points)


def test_allreduce_time_grows_with_ranks():
    points = {p["ranks"]: p["sim_elapsed"] for p in allreduce_campaign(quick=True)}
    assert points[64] > points[16]


def test_mg_cache_campaign_all_hits_on_second_pass():
    report = mg_cache_campaign(quick=True)
    assert report["identical"]
    # Two passes over the same grid: the second pass is all hits.
    assert report["cache"]["hits"] == report["cache"]["misses"]
    assert report["cache"]["hit_rate"] == 0.5


def test_engine_storm_linear_steps():
    report = engine_storm(quick=True)
    assert report["engine_steps"] == 2 * report["processes"]


def test_spawn_join_storm_deterministic():
    assert spawn_join_storm(200) == spawn_join_storm(200)


if __name__ == "__main__":
    sys.exit(main())
