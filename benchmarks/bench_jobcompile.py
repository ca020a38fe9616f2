"""Whole-job compilation benchmark: stepped vs replay vs vector vs memo.

Times the same static jobs through the execution paths of
:mod:`repro.mpi.compile`:

* **stepped** — the full discrete-event run, every collective hop by
  hop, on its own engine, recording how many events it stepped;
* **replay** — the cold max-plus replay (no events stepped at all);
* **vector** — :mod:`repro.mpi.phasec`'s array-form phase recurrences
  (one numpy update per communication phase over the whole clock
  vector);
* **memo** — a warm :class:`~repro.perf.cache.EvalCache` hit (no events,
  no replay: an O(1) dictionary lookup).

Campaigns:

* a CG-style halo job (two ring sendrecvs + barrier per iteration) at
  P ∈ {64, 1024, 16384} (quick: {64, 256}), gating the headline claim:
  at P=16384 the replay agrees with the stepped engine to 1e-9 while
  running ≥ 20x faster — and at *every* P the replay beats the stepped
  wall (the small-P crossover gate).  Each point also replays the job
  under a :class:`~repro.obs.Tracer` and records its wall and
  ``trace_overhead`` (traced ÷ untraced replay wall, both uncached,
  each the best of three runs); its elapsed must equal the untraced
  replay's;
* the vector path at P ∈ {4096, 65536, 65537, 100000} (quick: {4096}),
  gating ≤ 1e-9 agreement with the stepped engine at P=4096, ≥ 100x over
  the scalar replay at P=65536, and a < 10 s wall at P=100,000 — the
  "price a 100k-rank decomposition in seconds" claim (needs numpy).
  Each vector wall is the best of five runs, with the minor page faults
  of that run.  P=65536 takes the rounds' one-scalar branch, so the
  clock arrays only churn off powers of two (P=65537);
* the NPB EP and CG solvers at P ∈ {4, 8} with official verification,
  gating bit-identical returns and warm memo hits;
* the lowering layer alone: :func:`repro.mpi.phasec.lower` of a
  3-iteration ring-shift + allgather job and of the 3-iteration halo
  job at P=65536 (quick too), best of five each.  Its cost depends on
  the probe ranks and ops, not on P.  Each point records its phase
  count and the sha256 of the lowered program's ``to_dict()`` JSON,
  which ``benchdiff`` requires to equal the baseline's;
* the small-collective leg: every collective kind at P ∈ {3, 5, 7}
  (quick too), the µs to resolve one occurrence (finish times and
  results, as the compiled replay does), best of five runs of 100
  occurrences.  Each occurrence has its
  own message size, as a fresh job's has, and arrivals alternate
  between equal and skewed.  Each point records the sha256 of its
  outcomes, which ``benchdiff`` requires to equal the baseline's.

Writes ``BENCH_jobcompile.json`` so CI can gate regressions::

    PYTHONPATH=src python benchmarks/bench_jobcompile.py
    PYTHONPATH=src python benchmarks/bench_jobcompile.py --quick

Under pytest it runs the quick campaign as a smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

HALO_RANKS = (64, 1024, 16384)
HALO_RANKS_QUICK = (64, 256)
#: (ranks, run the stepped reference too?) for the vector campaign.
VECTOR_RANKS = ((4096, True), (65536, False), (65537, False), (100000, False))
VECTOR_RANKS_QUICK = ((4096, True),)
#: Vector runs per point (best kept).
VECTOR_REPEATS = 5
#: The ≥100x-vs-scalar-replay gate applies from this rank count up.
VECTOR_SPEEDUP_RANKS = 65536
VECTOR_SPEEDUP_MIN = 100.0
#: The absolute wall ceiling for the largest vector point (seconds).
VECTOR_WALL_CEILING_S = 10.0
#: Runs on each side of a halo point's ``trace_overhead``; each side
#: keeps its best.
TRACE_REPEATS = 3
HALO_NBYTES = 4096
HALO_ITERS = 2
NPB_RANKS = (4, 8)
#: The lowering leg: ranks, iterations and lowerings (best kept).
LOWER_RANKS = 65536
LOWER_ITERS = 3
LOWER_REPEATS = 5
#: The small-collective leg: rank counts, occurrences per timed run,
#: runs per point (best kept) and the first run's first message size.
SMALL_RANKS = (3, 5, 7)
SMALL_OCCURRENCES = 100
SMALL_REPEATS = 5
SMALL_FIRST_NBYTES = 512
TOL = 1e-9


def _halo_main(nbytes, iters, comm):
    """The CG/MG iteration skeleton the compiler targets: halo
    exchange, local compute, then a synchronizing collective."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    acc = 0.0
    for _ in range(iters):
        yield from comm.sendrecv(right, left, nbytes=nbytes)
        yield from comm.sendrecv(left, right, nbytes=nbytes)
        yield from comm.compute(1e-7)
        acc = yield from comm.allreduce(acc + comm.rank, nbytes=8)
    yield from comm.barrier()
    return acc


def _allgather_main(nbytes, iters, comm):
    """Ring shift, compute, allgather: a job whose collective hands
    every rank a P-element list."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    out = None
    for _ in range(iters):
        yield from comm.sendrecv(right, left, nbytes=nbytes)
        yield from comm.compute(1e-7)
        out = yield from comm.allgather(comm.rank, nbytes=nbytes)
    return out


#: The lowering leg's jobs: a list-valued collective, and two
#: ``sendrecv`` shifts per iteration.
LOWER_JOBS = {"allgather": _allgather_main, "halo": _halo_main}


def _same(a: Any, b: Any) -> bool:
    """Recursive equality that tolerates numpy arrays inside returns."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "dtype") and hasattr(a, "tobytes"):
        return (
            hasattr(b, "dtype")
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    return type(a) is type(b) and a == b


def _warm_replay() -> None:
    """Run the halo job once, small and untimed, before the halo loop.

    The first compiled call of a process pays one-time costs (imports,
    the rank program's static profile); without this run the first
    point's ``replay`` leg carries them and understates its speedup.
    """
    from repro.mpi.compile import compiled_mpiexec
    from repro.mpi.fabrics import phi_fabric

    compiled_mpiexec(4, phi_fabric(2),
                     partial(_halo_main, HALO_NBYTES, HALO_ITERS),
                     vector=False)


def _best_of(run: Callable[[], Any]) -> Tuple[float, Any]:
    """The least wall of TRACE_REPEATS calls of ``run``, and the last
    call's result: one slow sample on a shared host cannot set a ratio."""
    best = float("inf")
    for _ in range(TRACE_REPEATS):
        t0 = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _halo_point(p: int) -> Dict[str, Any]:
    from repro.mpi.compile import CompileStats, compiled_mpiexec
    from repro.mpi.fabrics import phi_fabric
    from repro.mpi.runtime import MpiJob
    from repro.obs import Tracer
    from repro.perf.cache import EvalCache
    from repro.simcore import Engine

    fabric = phi_fabric(2)
    main = partial(_halo_main, HALO_NBYTES, HALO_ITERS)

    engine = Engine()
    job = MpiJob(p, fabric, engine=engine)
    job.launch(main)
    t0 = time.perf_counter()
    stepped = job.run()
    stepped_wall = time.perf_counter() - t0

    cache = EvalCache()
    point: Dict[str, Any] = {
        "ranks": p,
        "nbytes": HALO_NBYTES,
        "iters": HALO_ITERS,
        "stepped": {
            "wall": stepped_wall,
            "elapsed": stepped.elapsed,
            "engine_steps": engine.timeline(),
        },
    }
    for label in ("replay", "memo"):
        st = CompileStats()
        t0 = time.perf_counter()
        res = compiled_mpiexec(
            p, fabric, main, cache=cache, stats=st, vector=False
        )
        wall = time.perf_counter() - t0
        point[label] = {
            "wall": wall,
            "elapsed": res.elapsed,
            "engine_steps": st.engine_steps,
            "path": st.path,
            "rel_err": abs(res.elapsed - stepped.elapsed) / stepped.elapsed,
            "identical_returns": _same(res.returns, stepped.returns),
            "speedup": stepped_wall / max(wall, 1e-12),
        }
    # The overhead's base is an uncached untraced replay run just before,
    # so neither side pays the first call's static profile or memo key.
    untraced_wall, _ = _best_of(
        lambda: compiled_mpiexec(p, fabric, main, vector=False))

    def traced_run():
        tracer, st = Tracer(), CompileStats()
        res = compiled_mpiexec(p, fabric, main, tracer=tracer, stats=st)
        return res, tracer, st

    wall, (res, tracer, st) = _best_of(traced_run)
    point["traced"] = {
        "wall": wall,
        "untraced_wall": untraced_wall,
        "elapsed": res.elapsed,
        "path": st.path,
        "events": len(tracer),
        "trace_overhead": wall / max(untraced_wall, 1e-12),
    }
    return point


def _vector_point(p: int, with_stepped: bool) -> Dict[str, Any]:
    from repro.mpi.compile import CompileStats, compiled_mpiexec, replay
    from repro.mpi.fabrics import phi_fabric
    from repro.mpi.runtime import MpiJob
    from repro.simcore import Engine

    fabric = phi_fabric(2)
    main = partial(_halo_main, HALO_NBYTES, HALO_ITERS)
    point: Dict[str, Any] = {
        "ranks": p,
        "nbytes": HALO_NBYTES,
        "iters": HALO_ITERS,
    }
    if with_stepped:
        engine = Engine()
        job = MpiJob(p, fabric, engine=engine)
        job.launch(main)
        t0 = time.perf_counter()
        stepped = job.run()
        point["stepped"] = {
            "wall": time.perf_counter() - t0,
            "elapsed": stepped.elapsed,
            "engine_steps": engine.timeline(),
        }

    t0 = time.perf_counter()
    rep = replay(p, fabric, main)
    replay_wall = time.perf_counter() - t0
    point["replay"] = {"wall": replay_wall, "elapsed": rep.elapsed}

    wall, faults = float("inf"), 0
    for _ in range(VECTOR_REPEATS):
        st = CompileStats()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        res = compiled_mpiexec(p, fabric, main, stats=st, vector=True)
        run_wall = time.perf_counter() - t0
        if run_wall < wall:
            wall = run_wall
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    vec: Dict[str, Any] = {
        "wall": wall,
        "minor_faults": faults,
        "elapsed": res.elapsed,
        "engine_steps": st.engine_steps,
        "path": st.path,
        "phases": st.phases,
        "rel_err_replay": abs(res.elapsed - rep.elapsed) / rep.elapsed,
        "speedup_vs_replay": replay_wall / max(wall, 1e-12),
    }
    if with_stepped:
        vec["rel_err"] = (
            abs(res.elapsed - point["stepped"]["elapsed"])
            / point["stepped"]["elapsed"]
        )
    point["vector"] = vec
    return point


def _lower_point(p: int, job: str) -> Dict[str, Any]:
    """The best of LOWER_REPEATS ``lower`` calls of one LOWER_JOBS job
    (only the first pays the static veto's source scan), with the sha256
    of the lowered program."""
    from repro.mpi.fabrics import phi_fabric
    from repro.mpi.phasec import lower

    fabric = phi_fabric(2)
    main = partial(LOWER_JOBS[job], HALO_NBYTES, LOWER_ITERS)
    best = float("inf")
    for _ in range(LOWER_REPEATS):
        t0 = time.perf_counter()
        program = lower(main, p, fabric=fabric)
        best = min(best, time.perf_counter() - t0)
    blob = json.dumps(program.to_dict(), sort_keys=True).encode()
    return {
        "ranks": p,
        "job": job,
        "iters": LOWER_ITERS,
        "lower": {"wall": best, "phases": len(program.phases),
                  "digest": hashlib.sha256(blob).hexdigest()},
    }


def _small_occurrences(kind: str, p: int, first: int) -> List[Any]:
    """SMALL_OCCURRENCES occurrences of collective ``kind`` on ``p``
    ranks, every rank arrived, of sizes ``first``, ``first + 1``, …;
    odd occurrences arrive skewed."""
    from repro.mpi.collectives import ROOTED
    from repro.mpi.compile import _Instance

    root = p // 2 if kind in ROOTED else None
    out = []
    for i in range(SMALL_OCCURRENCES):
        inst = _Instance(p, kind, first + i, root, None)
        for r in range(p):
            value = (list(range(p)) if kind in ("alltoall", "scatter")
                     else float(r))
            inst.arrive(r, 1e-6 * (r % 3) * (i % 2), value)
        out.append(inst)
    return out


def _small_point(kind: str, p: int) -> Dict[str, Any]:
    """The least wall of SMALL_REPEATS runs resolving SMALL_OCCURRENCES
    fresh occurrences (each run its own sizes), and the sha256 of the
    first run's outcomes."""
    from repro.mpi.fabrics import phi_fabric

    fabric = phi_fabric(2)
    best = float("inf")
    digest = ""
    for k in range(SMALL_REPEATS):
        insts = _small_occurrences(
            kind, p, SMALL_FIRST_NBYTES + k * SMALL_OCCURRENCES)
        t0 = time.perf_counter()
        for inst in insts:
            inst.resolve(fabric)
        best = min(best, time.perf_counter() - t0)
        if k == 0:
            blob = repr([inst.outcome for inst in insts]).encode()
            digest = hashlib.sha256(blob).hexdigest()
    return {
        "kind": kind,
        "ranks": p,
        "occurrences": SMALL_OCCURRENCES,
        "resolve": {"wall": best, "us": best / SMALL_OCCURRENCES * 1e6,
                    "digest": digest},
    }


def _npb_point(bench: str, p: int) -> Dict[str, Any]:
    from repro.mpi.compile import CompileStats
    from repro.mpi.fabrics import host_fabric
    from repro.npb.mpi_versions import run_cg_mpi, run_ep_mpi
    from repro.perf.cache import EvalCache

    runner = run_ep_mpi if bench == "ep" else run_cg_mpi
    t0 = time.perf_counter()
    stepped = runner(p, host_fabric())
    stepped_wall = time.perf_counter() - t0

    cache = EvalCache()
    point: Dict[str, Any] = {
        "bench": bench,
        "ranks": p,
        "stepped": {"wall": stepped_wall, "elapsed": stepped.elapsed},
    }
    for label in ("replay", "memo"):
        st = CompileStats()
        t0 = time.perf_counter()
        res = runner(p, host_fabric(), compiled=True, cache=cache, stats=st)
        wall = time.perf_counter() - t0
        point[label] = {
            "wall": wall,
            "elapsed": res.elapsed,
            "engine_steps": st.engine_steps,
            "path": st.path,
            "rel_err": abs(res.elapsed - stepped.elapsed) / stepped.elapsed,
            "identical_returns": _same(res.returns, stepped.returns),
        }
    return point


def run_jobcompile(
    quick: bool = False, output: Optional[str] = "BENCH_jobcompile.json"
) -> Dict[str, Any]:
    """Run both campaigns and (optionally) write the JSON report."""
    from repro.mpi.collectives import KINDS

    _warm_replay()
    report: Dict[str, Any] = {
        "name": "jobcompile",
        "quick": quick,
        "halo": {
            "points": [
                _halo_point(p)
                for p in (HALO_RANKS_QUICK if quick else HALO_RANKS)
            ]
        },
        "lower": {"points": [_lower_point(LOWER_RANKS, job)
                             for job in LOWER_JOBS]},
        "small": {"points": [_small_point(kind, p) for kind in KINDS
                             for p in SMALL_RANKS]},
    }
    try:
        import numpy  # noqa: F401

        have_numpy = True
    except ImportError:  # pragma: no cover - the no-numpy CI leg
        have_numpy = False
    if have_numpy:
        report["vector"] = {
            "points": [
                _vector_point(p, with_stepped)
                for p, with_stepped in (
                    VECTOR_RANKS_QUICK if quick else VECTOR_RANKS
                )
            ]
        }
        report["npb"] = {
            "points": [
                _npb_point(bench, p)
                for bench in ("ep", "cg")
                for p in NPB_RANKS
            ]
        }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report


def check_report(report: Dict[str, Any]) -> List[str]:
    """The regression gates; returns a list of violations (empty = pass)."""
    bad: List[str] = []
    for pt in report["halo"]["points"]:
        tag = f"halo P={pt['ranks']}"
        if pt["stepped"]["engine_steps"] <= 0:
            bad.append(f"{tag}: stepped run stepped no events")
        for label in ("replay", "memo"):
            r = pt[label]
            if r["path"] != label:
                bad.append(f"{tag}: {label} ran via {r['path']!r} "
                           f"({r.get('rel_err')})")
            if r["rel_err"] > TOL:
                bad.append(f"{tag}: {label} rel_err {r['rel_err']:.2e}")
            if not r["identical_returns"]:
                bad.append(f"{tag}: {label} returns differ")
            if r["engine_steps"] != 0:
                bad.append(f"{tag}: {label} stepped {r['engine_steps']} events")
        traced = pt["traced"]
        if traced["path"] != "replay":
            bad.append(f"{tag}: traced job ran via {traced['path']!r}")
        if traced["elapsed"] != pt["replay"]["elapsed"]:
            bad.append(f"{tag}: traced elapsed {traced['elapsed']!r} != "
                       f"replay {pt['replay']['elapsed']!r}")
        if pt["ranks"] >= 16384 and pt["replay"]["speedup"] < 20.0:
            bad.append(
                f"{tag}: replay speedup {pt['replay']['speedup']:.1f}x < 20x"
            )
        # The small-P crossover gate: the compiled path must never lose
        # to the stepped engine at any benchmarked rank count.
        if pt["replay"]["speedup"] < 1.0:
            bad.append(
                f"{tag}: replay slower than stepped "
                f"({pt['replay']['speedup']:.2f}x)"
            )
    for pt in report.get("vector", {}).get("points", ()):
        tag = f"vector P={pt['ranks']}"
        v = pt["vector"]
        if v["path"] != "vector":
            bad.append(f"{tag}: priced via {v['path']!r}, not the vector path")
        if v["engine_steps"] != 0:
            bad.append(f"{tag}: stepped {v['engine_steps']} events")
        if v["rel_err_replay"] > TOL:
            bad.append(
                f"{tag}: rel_err vs scalar replay {v['rel_err_replay']:.2e}"
            )
        if "rel_err" in v and v["rel_err"] > TOL:
            bad.append(f"{tag}: rel_err vs stepped {v['rel_err']:.2e}")
        if (
            pt["ranks"] >= VECTOR_SPEEDUP_RANKS
            and v["speedup_vs_replay"] < VECTOR_SPEEDUP_MIN
        ):
            bad.append(
                f"{tag}: speedup vs replay {v['speedup_vs_replay']:.1f}x "
                f"< {VECTOR_SPEEDUP_MIN:.0f}x"
            )
        if pt["ranks"] >= 100000 and v["wall"] > VECTOR_WALL_CEILING_S:
            bad.append(
                f"{tag}: wall {v['wall']:.2f}s > "
                f"{VECTOR_WALL_CEILING_S:.0f}s ceiling"
            )
    for pt in report.get("npb", {}).get("points", ()):
        tag = f"npb {pt['bench']} P={pt['ranks']}"
        for label in ("replay", "memo"):
            r = pt[label]
            if r["path"] != label:
                bad.append(f"{tag}: {label} ran via {r['path']!r}")
            if r["rel_err"] > TOL:
                bad.append(f"{tag}: {label} rel_err {r['rel_err']:.2e}")
            if not r["identical_returns"]:
                bad.append(f"{tag}: {label} returns differ")
            if r["engine_steps"] != 0:
                bad.append(f"{tag}: {label} stepped {r['engine_steps']} events")
    return bad


def render_report(report: Dict[str, Any]) -> str:
    lines = ["jobcompile: stepped vs replay vs memo", ""]
    lines.append(f"{'point':>16} {'path':>7} {'wall (s)':>9} "
                 f"{'elapsed (s)':>12} {'steps':>7} {'rel err':>8}")
    for pt in report["halo"]["points"]:
        tag = f"halo P={pt['ranks']}"
        s = pt["stepped"]
        lines.append(f"{tag:>16} {'stepped':>7} {s['wall']:>9.3f} "
                     f"{s['elapsed']:>12.4e} {s['engine_steps']:>7} {'-':>8}")
        for label in ("replay", "memo"):
            r = pt[label]
            lines.append(
                f"{'':>16} {label:>7} {r['wall']:>9.3f} "
                f"{r['elapsed']:>12.4e} {r['engine_steps']:>7} "
                f"{r['rel_err']:>8.1e}"
            )
        t = pt["traced"]
        lines.append(f"{'':>16} {'traced':>7} {t['wall']:>9.3f} "
                     f"{t['elapsed']:>12.4e} {0:>7} {'-':>8}")
        lines.append(f"{'':>16} replay speedup: "
                     f"{pt['replay']['speedup']:.1f}x, trace overhead "
                     f"{t['trace_overhead']:.2f}x ({t['events']} events)")
    for pt in report.get("vector", {}).get("points", ()):
        tag = f"vector P={pt['ranks']}"
        if "stepped" in pt:
            s = pt["stepped"]
            lines.append(
                f"{tag:>16} {'stepped':>7} {s['wall']:>9.3f} "
                f"{s['elapsed']:>12.4e} {s['engine_steps']:>7} {'-':>8}"
            )
            tag = ""
        r = pt["replay"]
        lines.append(f"{tag:>16} {'replay':>7} {r['wall']:>9.3f} "
                     f"{r['elapsed']:>12.4e} {'0':>7} {'-':>8}")
        v = pt["vector"]
        lines.append(
            f"{'':>16} {'vector':>7} {v['wall']:>9.3f} "
            f"{v['elapsed']:>12.4e} {v['engine_steps']:>7} "
            f"{v['rel_err_replay']:>8.1e}"
        )
        lines.append(f"{'':>16} vector speedup vs replay: "
                     f"{v['speedup_vs_replay']:.1f}x "
                     f"({v['phases']} phases, "
                     f"{v['minor_faults']} minor faults)")
    for pt in report.get("lower", {}).get("points", ()):
        tag = f"lower P={pt['ranks']}"
        low = pt["lower"]
        lines.append(f"{tag:>16} {'lower':>7} {low['wall']:>9.4f} "
                     f"({pt['job']}, {low['phases']} phases)")
    for pt in report.get("small", {}).get("points", ()):
        tag = f"{pt['kind']} P={pt['ranks']}"
        lines.append(f"{tag:>16} {'resolve':>7} "
                     f"{pt['resolve']['us']:>9.2f} µs per occurrence")
    for pt in report.get("npb", {}).get("points", ()):
        tag = f"npb-{pt['bench']} P={pt['ranks']}"
        for label in ("replay", "memo"):
            r = pt[label]
            lines.append(
                f"{tag:>16} {label:>7} {r['wall']:>9.3f} "
                f"{r['elapsed']:>12.4e} {r['engine_steps']:>7} "
                f"{r['rel_err']:>8.1e}"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark whole-job compilation vs the stepped engine."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small rank counts (CI smoke mode)",
    )
    parser.add_argument(
        "--output", "--out", dest="output",
        default="BENCH_jobcompile.json", metavar="PATH",
        help="JSON report path ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    output = None if args.output == "-" else args.output
    report = run_jobcompile(quick=args.quick, output=output)
    print(render_report(report))
    if output:
        print(f"\nreport written to {output}")
    bad = check_report(report)
    for line in bad:
        print(f"GATE FAILED: {line}")
    return 1 if bad else 0


def test_jobcompile_quick(tmp_path):
    """Smoke: quick campaign passes every gate, report is well-formed."""
    out = tmp_path / "BENCH_jobcompile.json"
    report = run_jobcompile(quick=True, output=str(out))
    assert out.exists()
    assert check_report(report) == []
    assert report["halo"]["points"][0]["memo"]["path"] == "memo"


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
