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
* ``fig22_batch`` — the 64×64 decomposition lattice priced per-point
  vs through the vectorized batch path
  (:meth:`~repro.apps.overflow.OverflowModel.decomposition_sweep` with
  ``batch=True``) on both devices, asserting point-by-point identity
  and reporting the speedup.
* ``engine_storm`` — a spawn/join storm on the raw engine (the O(1)
  process-retirement regression guard).
* ``scale`` — (opt-in via ``--scale``) MPI_Allreduce at 4096 ranks on
  the Phi fabric through the analytic collective fast path, the large-P
  scalability headline.

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
from repro.perf.batch import HAVE_NUMPY
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
# Campaign 3b: batched Fig-22 lattice (vectorized vs per-point pricing)
# ==========================================================================


def fig22_batch_campaign(quick: bool = False) -> Dict[str, Any]:
    """Price a full I × J Fig-22 lattice per-point and vectorized.

    The grid is the complete ``side × side`` decomposition lattice on
    both devices (64 × 64 = 4096 points each by default); the batched
    path prices every feasible point in a handful of array operations
    and must return *identical* measurements in identical order.  Both
    paths are timed best-of-``reps`` so the reported speedup is stable
    on noisy runners.
    """
    from repro.apps import OverflowModel, dataset

    side = 16 if quick else 64
    reps = 1 if quick else 3
    grid = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]
    model = OverflowModel(dataset("DLRF6-Medium"))
    devices = (Device.HOST, Device.PHI0)

    report: Dict[str, Any] = {
        "side": side,
        "points": len(grid) * len(devices),
        "numpy": HAVE_NUMPY,
        "devices": {},
    }
    serial_total = 0.0
    batch_total = 0.0
    identical = True
    feasible = 0
    for dev in devices:
        serial_best = batch_best = float("inf")
        r_serial = r_batch = None
        for _ in range(reps):
            t0 = time.perf_counter()
            r_serial = model.decomposition_sweep(dev, grid, batch=False)
            serial_best = min(serial_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            r_batch = model.decomposition_sweep(dev, grid, batch=True)
            batch_best = min(batch_best, time.perf_counter() - t0)
        same = r_batch == r_serial
        identical = identical and same
        feasible += len(r_serial)
        serial_total += serial_best
        batch_total += batch_best
        report["devices"][dev.value] = {
            "feasible": len(r_serial),
            "serial_wall_s": serial_best,
            "batch_wall_s": batch_best,
            "speedup": serial_best / batch_best if batch_best > 0 else float("inf"),
            "identical": same,
        }
    report["feasible"] = feasible
    report["serial_wall_s"] = serial_total
    report["batch_wall_s"] = batch_total
    report["speedup"] = (
        serial_total / batch_total if batch_total > 0 else float("inf")
    )
    report["identical"] = identical
    return report


# ==========================================================================
# Campaign 5: large-P scaling (analytic collective fast path)
# ==========================================================================


def scale_campaign(quick: bool = False) -> Dict[str, Any]:
    """Simulate MPI_Allreduce at large P through the analytic fast path.

    The stepped discrete-event algorithms make P = 4096 a multi-minute
    run; the analytic schedules (:mod:`repro.mpi.fastpath`) resolve the
    whole collective from the per-rank arrival times, so the same
    simulation is a sub-second rendezvous.  Correctness is asserted on
    every rank's reduction payload.
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

    ``scale`` adds the large-P scaling campaign (P = 4096 allreduce
    through the analytic fast path).
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

    t0 = time.perf_counter()
    report["campaigns"]["fig22_batch"] = fig22_batch_campaign(quick)
    report["campaigns"]["fig22_batch"]["wall_s"] = time.perf_counter() - t0

    report["campaigns"]["engine_storm"] = engine_storm(quick)

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
    fig22, batch = c["fig22"], c["fig22_batch"]
    checks = [
        (all(p["correct"] for p in c["allreduce"]["points"]),
         "simulated allreduce returned wrong sums"),
        (fig22["feasible"] == fig22["points"],
         f"Fig-22 priced {fig22['feasible']}/{fig22['points']} points"),
        (batch["identical"], "batched Fig-22 results differ from per-point"),
        (batch["feasible"] > 0, "batched Fig-22 priced no feasible point"),
        (c.get("scale", {}).get("correct", True),
         "scaled allreduce returned wrong sums"),
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
    fb = c.get("fig22_batch")
    if fb is not None:
        rows.append(
            (f"Fig-22 batched ({fb['side']}x{fb['side']})",
             f"{fb['batch_wall_s']:.3f}",
             f"speedup {fb['speedup']:.1f}x vs per-point "
             f"({fb['serial_wall_s']:.3f}s), identical={fb['identical']}")
        )
    rows.append(
        ("engine storm", f"{c['engine_storm']['wall_s']:.3f}",
         f"{c['engine_storm']['processes']} procs, "
         f"{c['engine_storm']['engine_steps']} steps")
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
        help="add the large-P scaling campaign (P=4096 allreduce via the "
        "analytic collective fast path)",
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
        "allreduce", "mg_sweep", "fig22", "fig22_batch", "engine_storm", "scale",
    }
    assert c["mg_sweep"]["identical"]
    assert c["fig22"]["points"] == 9
    assert c["fig22_batch"]["identical"]
    assert c["engine_storm"]["engine_steps"] > 0
    assert c["scale"]["correct"] and c["scale"]["ranks"] == 512


def test_scale_campaign_is_opt_in_and_failures_are_named():
    report = run_selfperf(quick=True, output=None)
    assert "scale" not in report["campaigns"]
    assert report_failures(report) == []
    fig22 = report["campaigns"]["fig22"]
    fig22["feasible"] -= 1
    report["campaigns"]["scale"] = {"correct": False}
    assert len(report_failures(report)) == 2


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
