"""Self-benchmark campaigns: how fast is the simulator itself?

The ROADMAP's north star is a system that runs as fast as the hardware
allows; this module is how we know whether we are getting there.  It
times representative workloads and writes ``BENCH_selfperf.json`` so
the performance trajectory is tracked across PRs:

* ``allreduce`` — discrete-event MPI_Allreduce simulations at 16, 64
  and 256 ranks (the simcore + MPI-runtime hot path).
* ``mg_sweep`` — the NPB OpenMP Class C evaluation grid (Figs 19/25)
  priced twice through a shared :class:`~repro.perf.cache.EvalCache`,
  reporting the hit rate and the cached-pass speedup.
* ``fig22`` — the OVERFLOW (I MPI ranks × J OpenMP threads)
  decomposition campaign exactly as ``repro campaign run fig22`` runs
  it: every point prices the step and its compiled halo+allreduce
  exchange at I × J ranks, journaled through the campaign runner.
  With ``workers > 1`` it runs serially and on the pool, and the two
  result payloads must be byte-identical.
* ``fig22_batch`` — the 64×64 decomposition lattice priced per-point
  vs through the vectorized batch path
  (:meth:`~repro.apps.overflow.OverflowModel.decomposition_sweep` with
  ``batch=True``) on both devices, asserting point-by-point identity
  and reporting the speedup.
* ``engine_storm`` — a spawn/join storm on the raw engine (the O(1)
  process-retirement regression guard).
* ``scale`` — (opt-in via ``scale=True`` / ``--scale``) MPI_Allreduce
  at 4096 ranks on the Phi fabric through the analytic collective fast
  path, the large-P scalability headline.

All campaigns are deterministic: a parallel run must produce exactly
the same points as a serial run, and :func:`run_selfperf` checks that
whenever it measures a speedup.  :func:`report_failures` is the one
pass/fail rule over a report.
"""

from __future__ import annotations

import json
import time
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.parallel import parallel_map

__all__ = [
    "allreduce_campaign",
    "engine_storm",
    "fig22_batch_campaign",
    "fig22_campaign",
    "mg_cache_campaign",
    "report_failures",
    "run_selfperf",
    "scale_campaign",
    "spawn_join_storm",
]


# ==========================================================================
# Campaign 1: simulated MPI_Allreduce (simcore + MPI runtime hot path)
# ==========================================================================


def _allreduce_main(nbytes: int, comm):
    total = yield from comm.allreduce(comm.rank, nbytes=nbytes)
    return total


def _allreduce_point(point: Tuple[int, int]) -> Dict[str, Any]:
    from repro.mpi.fabrics import phi_fabric
    from repro.mpi.runtime import mpiexec
    from repro.simcore import Engine

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


def allreduce_campaign(
    quick: bool = False, workers: Optional[int] = None
) -> List[Dict[str, Any]]:
    """Simulated allreduce runs (16/64/256 ranks × small/large messages)."""
    return parallel_map(_allreduce_point, allreduce_points(quick), workers=workers)


# ==========================================================================
# Campaign 2: NPB MG / OpenMP suite sweep through the evaluation cache
# ==========================================================================


def mg_cache_campaign(quick: bool = False) -> Dict[str, Any]:
    """Price the Figs 19/25 evaluation grid twice through one cache.

    The second pass should be all hits; the report carries the measured
    hit rate and the cold/warm pass times.
    """
    from repro.core import Evaluator
    from repro.core.sweep import INFEASIBLE_ERRORS
    from repro.machine.node import Device
    from repro.npb.characterization import OPENMP_BENCHMARKS, class_c_kernel
    from repro.perf.cache import EvalCache

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
# Campaign 3: the Fig-22 decomposition campaign (the parallel showcase)
# ==========================================================================


def fig22_campaign(quick: bool = False, workers: Optional[int] = None):
    """Run the ``fig22`` campaign users run, from a cold job memo.

    This is :func:`~repro.campaign.experiments.build_spec`'s ``fig22``
    spec — the one ``repro campaign run fig22`` executes — journaled
    into a throwaway directory.  The fig22 job memo is dropped first, so
    every pass, serial or on a fork-started pool, prices from the same
    cold state.  Returns the :class:`~repro.campaign.runner.CampaignRun`.
    """
    import os
    import tempfile

    from repro.campaign import run_campaign
    from repro.campaign.experiments import build_spec, reset_job_stats

    reset_job_stats()
    with tempfile.TemporaryDirectory() as tmp:
        return run_campaign(
            build_spec("fig22", quick=quick),
            os.path.join(tmp, "fig22.jsonl"),
            workers=workers,
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
    from repro.machine.node import Device
    from repro.perf.batch import HAVE_NUMPY

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
            r_serial = model.decomposition_sweep(dev, grid, batch=False, workers=1)
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
    from repro.mpi.fabrics import phi_fabric
    from repro.mpi.runtime import mpiexec
    from repro.simcore import Engine

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
    from repro.simcore import Engine, Timeout, WaitEvent

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


def run_selfperf(
    workers: int = 1,
    quick: bool = False,
    output: Optional[str] = "BENCH_selfperf.json",
    scale: bool = False,
) -> Dict[str, Any]:
    """Run all campaigns; optionally write the JSON report to ``output``.

    With ``workers > 1`` the Fig-22 campaign is run both serially and in
    parallel: the report records the wall-clock speedup and whether the
    two result payloads are byte-identical.  ``scale`` adds the large-P scaling
    campaign (P = 4096 allreduce through the analytic fast path).
    """
    from repro.perf.parallel import default_workers

    report: Dict[str, Any] = {
        "schema": 1,
        "workers": workers,
        "host_cpus": default_workers(),
        "quick": quick,
        "campaigns": {},
    }

    t0 = time.perf_counter()
    points = allreduce_campaign(quick, workers=workers)
    report["campaigns"]["allreduce"] = {
        "wall_s": time.perf_counter() - t0,
        "points": points,
    }

    t0 = time.perf_counter()
    report["campaigns"]["mg_sweep"] = mg_cache_campaign(quick)
    report["campaigns"]["mg_sweep"]["wall_s"] = time.perf_counter() - t0

    fig22: Dict[str, Any] = {}
    t0 = time.perf_counter()
    serial = fig22_campaign(quick, workers=1)
    fig22["serial_wall_s"] = time.perf_counter() - t0
    payload = serial.results_payload()
    fig22["points"] = len(serial.records)
    fig22["feasible"] = sum(1 for r in serial.records if r.status == "ok")
    if workers > 1:
        t0 = time.perf_counter()
        par = fig22_campaign(quick, workers=workers)
        fig22["parallel_wall_s"] = time.perf_counter() - t0
        fig22["identical"] = json.dumps(par.results_payload()) == json.dumps(payload)
        if fig22["parallel_wall_s"] > 0:
            fig22["speedup"] = fig22["serial_wall_s"] / fig22["parallel_wall_s"]
    fig22["results"] = payload["points"]
    report["campaigns"]["fig22"] = fig22

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

    ``repro bench`` (and so ``benchmarks/bench_selfperf.py``) exits
    non-zero iff this list is non-empty.
    """
    c = report["campaigns"]
    fig22, batch = c["fig22"], c["fig22_batch"]
    checks = [
        (all(p["correct"] for p in c["allreduce"]["points"]),
         "simulated allreduce returned wrong sums"),
        (fig22.get("identical", True),
         "parallel Fig-22 payload differs from serial"),
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
    from repro.core.report import render_table

    c = report["campaigns"]
    rows = [
        ("allreduce sims", f"{c['allreduce']['wall_s']:.3f}",
         f"{len(c['allreduce']['points'])} runs"),
        ("MG/NPB sweep (cached)", f"{c['mg_sweep']['wall_s']:.3f}",
         f"hit rate {c['mg_sweep']['cache']['hit_rate']:.0%}"),
        ("Fig-22 campaign (serial)", f"{c['fig22']['serial_wall_s']:.3f}",
         f"{c['fig22']['feasible']}/{c['fig22']['points']} feasible"),
    ]
    if "parallel_wall_s" in c["fig22"]:
        rows.append(
            (f"Fig-22 campaign (x{report['workers']})",
             f"{c['fig22']['parallel_wall_s']:.3f}",
             f"speedup {c['fig22']['speedup']:.2f}x on "
             f"{report.get('host_cpus', '?')} cpu(s), "
             f"identical={c['fig22']['identical']}")
        )
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
