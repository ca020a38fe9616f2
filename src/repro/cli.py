"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``            Maia system characteristics vs the paper's Table 1.
``figure N``          Regenerate figure N's data table (4–27).
``figures``           All figures, one after another.
``npb [--problem S]`` Run the real NPB suite with official verification.
``stream``            Model STREAM curves + a real NumPy STREAM on this host.
``modes``             NPB MG under the four programming modes.
``faults``            Run an experiment under a fault plan (``--plan file.json``).
``check``             MPI correctness: static lint of rank programs
                      (``repro check examples``) or dynamic verification
                      (``repro check allreduce --dynamic``).
``compile``           Whole-job compilation: stepped vs max-plus replay vs
                      warm memoization (``repro compile halo --ranks 1024``).
``campaign``          Distributed, resumable campaign execution
                      (``repro campaign run fig22 --journal j.jsonl``;
                      ``resume`` continues a killed run, ``status`` reads
                      the journal without executing anything and exits
                      0/1/2 for complete/incomplete/complete-with-failures,
                      ``run --serve HOST:PORT`` + ``worker --connect``
                      fan shards over remote hosts, and ``merge``
                      reconciles the journals they wrote).

``table1``, ``figure N``, ``figures``, ``stream`` and ``modes`` render the
entries of :data:`repro.figures.FIGURES`, the one definition of every
figure's data, table and claims; ``validate`` checks those claims, and
``benchmarks/bench_figures.py`` asserts them plus the bench-only gates.
The simulator's self-benchmark is a script, not a command:
``benchmarks/bench_selfperf.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
from functools import partial
from typing import List, Optional

from repro.core.report import fmt_rate, fmt_size, render_table
from repro.figures import FIGURES, NUMBERS
from repro.units import KiB


def _print(text: str) -> None:
    print(text)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _cmd_npb(problem: str, benchmarks: Optional[List[str]]) -> int:
    from repro.npb.suite import run_real

    results = run_real(benchmarks, problem=problem)
    rows = [
        (
            name,
            "VERIFIED" if r.verified else "FAILED",
            f"{r.wall_seconds:.3f}",
            f"{r.mops:.1f}",
        )
        for name, r in results.items()
    ]
    _print(render_table(("benchmark", "verification", "seconds", "Mop/s"), rows,
                        title=f"NPB class {problem} (real NumPy implementations)"))
    return 0 if all(r.verified for r in results.values()) else 1


def _cmd_stream() -> int:
    from repro.microbench.stream import numpy_stream_triad

    _print(FIGURES["4"].render())
    _print(f"\nThis machine's NumPy triad: {fmt_rate(numpy_stream_triad())}")
    return 0


def _cmd_modes() -> int:
    _print(FIGURES["25"].render())
    _print(FIGURES["26-27"].render())
    return 0


#: Experiments the ``trace`` command can record.
TRACE_EXPERIMENTS = (
    "allreduce",
    "bcast",
    "allgather",
    "alltoall",
    "halo",
    "cg",
    "offload",
)


def _trace_main(experiment: str, nbytes: int):
    """Rank main for the MPI trace experiments."""

    def main(comm):
        with comm.phase(experiment):
            if experiment == "allreduce":
                yield from comm.allreduce(comm.rank, nbytes=nbytes)
            elif experiment == "bcast":
                yield from comm.bcast(comm.rank, nbytes=nbytes)
            elif experiment == "allgather":
                yield from comm.allgather(comm.rank, nbytes=nbytes)
            elif experiment == "alltoall":
                yield from comm.alltoall(list(range(comm.size)), nbytes=nbytes)
            elif experiment == "halo":
                right = (comm.rank + 1) % comm.size
                left = (comm.rank - 1) % comm.size
                yield from comm.sendrecv(right, left, nbytes=nbytes)
                yield from comm.sendrecv(left, right, nbytes=nbytes)
        yield from comm.barrier()

    return main


def _cmd_trace(args) -> int:
    from repro.obs import (
        Tracer,
        render_comm_matrix,
        render_timeline,
        trace_digest,
        write_chrome_trace,
    )

    tracer = Tracer()
    if args.experiment == "offload":
        from repro.core import Evaluator
        from repro.npb.mg_offload import offload_regions

        ev = Evaluator()
        for region in offload_regions("C").values():
            ev.offload(region, tracer=tracer)
        _print("experiment: offload (MG Class C regions)")
    else:
        from repro.mpi.compile import compiled_mpiexec
        from repro.mpi.fabrics import host_fabric, phi_fabric

        fabric = host_fabric() if args.fabric == "host" else phi_fabric(args.tpc)
        if args.experiment == "cg":
            from repro.npb.mpi_versions import cg_main

            main = cg_main(args.ranks)
        else:
            main = _trace_main(args.experiment, args.nbytes)
        res = compiled_mpiexec(args.ranks, fabric, main, tracer=tracer)
        _print(
            f"experiment: {args.experiment}  ranks={args.ranks}  "
            f"fabric={args.fabric}  elapsed={res.elapsed:.6e}s"
        )
    write_chrome_trace(tracer, args.out)
    _print(f"events: {len(tracer)}")
    if args.timeline:
        _print(render_timeline(tracer))
        matrix = render_comm_matrix(tracer)
        if matrix:
            _print(matrix)
    _print(f"trace written to {args.out}")
    _print(f"digest: {trace_digest(tracer)}")
    return 0


#: Experiments the ``faults`` command can degrade.  ``crash`` demos a
#: mid-collective rank kill; ``sweep`` runs a message-size campaign with
#: per-point failure capture; the rest compare a healthy baseline against
#: the same run under the plan.
FAULT_EXPERIMENTS = (
    "allreduce",
    "bcast",
    "allgather",
    "alltoall",
    "halo",
    "crash",
    "sweep",
)


def _faulted_alltoall_point(ranks: int, fabric_name: str, tpc: int, plan,
                            stats: list, nbytes: int):
    """One degraded-sweep point: the alltoall under ``plan``, compiled.

    A static plan replays; a windowed or crashing one steps.  The
    point's :class:`~repro.mpi.compile.CompileStats` is appended to
    ``stats`` before it runs, so a point that fails is counted too.
    """
    from repro.core.results import Measurement
    from repro.mpi.compile import CompileStats, compiled_mpiexec
    from repro.mpi.fabrics import host_fabric, phi_fabric

    fabric = host_fabric() if fabric_name == "host" else phi_fabric(tpc)
    st = CompileStats()
    stats.append(st)
    res = compiled_mpiexec(ranks, fabric, _trace_main("alltoall", nbytes),
                           fault_plan=plan, stats=st)
    return Measurement(name="alltoall", time=res.elapsed, config={"nbytes": nbytes})


def _path_summary(stats) -> str:
    """One line: the points per compiled path, then each stepped reason
    with its count, in order of first appearance."""
    from collections import Counter

    paths = Counter(st.path for st in stats)
    reasons = Counter(st.reason for st in stats if st.path == "stepped")
    line = "paths: " + ", ".join(f"{p} {n}" for p, n in paths.items())
    if reasons:
        line += "; stepped because: " + ", ".join(
            f"{r} ({n})" for r, n in reasons.items()
        )
    return line


def _cmd_faults(args) -> int:
    from repro.core.sweep import grid_sweep, message_size_sweep
    from repro.errors import ReproError
    from repro.faults import (
        FaultPlan,
        LinkDegradation,
        MemoryPressure,
        RankCrash,
        Straggler,
    )
    from repro.mpi.fabrics import host_fabric, phi_fabric
    from repro.mpi.runtime import mpiexec
    from repro.obs import Tracer, render_timeline

    exp = args.experiment
    fabric = host_fabric() if args.fabric == "host" else phi_fabric(args.tpc)
    plan = FaultPlan.from_file(args.plan) if args.plan else None
    victim = min(1, args.ranks - 1)

    if exp == "sweep":
        if plan is None:
            # Demo: shrink the card so Fig 14-style alltoall OOMs fire
            # mid-axis; the campaign records them and keeps going.
            plan = FaultPlan(
                [MemoryPressure(capacity_factor=0.02, label="demo-pressure")]
            )
        _print("fault plan:")
        _print(plan.describe())
        sizes = message_size_sweep(1024, 4 * 1024 * KiB)[::2]
        stats: list = []
        results = grid_sweep(
            partial(_faulted_alltoall_point, args.ranks, args.fabric, args.tpc,
                    plan, stats),
            sizes,
            capture_failures=True,
        )
        rows = [
            (fmt_size(int(m.config["nbytes"])), f"{m.time:.3e}") for m in results
        ]
        _print(render_table(("size", "elapsed (s)"), rows,
                            title=f"alltoall sweep, {args.ranks} ranks, under faults"))
        _print(_path_summary(stats))
        if results.failures:
            _print(f"\n{len(results.failures)} point(s) failed "
                   "(campaign continued):")
            for f in results.failures:
                _print(f"  {fmt_size(int(f.point))}: {f.error}: {f.message}")
        return 0

    base_exp = "allreduce" if exp == "crash" else exp
    main = _trace_main(base_exp, args.nbytes)
    baseline = mpiexec(args.ranks, fabric, main)
    if plan is None:
        if exp == "crash":
            plan = FaultPlan(
                [RankCrash(rank=victim, at=baseline.elapsed / 2, label="demo-crash")]
            )
        else:
            plan = FaultPlan([
                LinkDegradation(
                    latency_factor=2.0, bandwidth_factor=0.25, label="demo-link"
                ),
                Straggler(rank=victim, slowdown=3.0, label="demo-straggler"),
            ])
    _print("fault plan:")
    _print(plan.describe())
    _print(f"\nbaseline elapsed: {baseline.elapsed:.6e}s")
    tracer = Tracer() if args.timeline else None
    try:
        faulted = mpiexec(args.ranks, fabric, main, fault_plan=plan, tracer=tracer)
    except ReproError as exc:
        _print(f"faulted run died: {type(exc).__name__}: {exc}")
        if tracer is not None:
            _print(render_timeline(tracer))
        return 0
    _print(
        f"faulted  elapsed: {faulted.elapsed:.6e}s  "
        f"(x{faulted.elapsed / baseline.elapsed:.2f})"
    )
    if tracer is not None:
        _print(render_timeline(tracer))
    return 0


#: Experiments the ``check --dynamic`` verifier can run.  The first five
#: mirror the ``trace`` experiments (Fig 10-13 collectives + halo) and
#: verify clean; ``race`` and ``leak`` are purpose-built demos that the
#: verifier flags.
VERIFY_EXPERIMENTS = (
    "allreduce",
    "bcast",
    "allgather",
    "alltoall",
    "halo",
    "race",
    "leak",
)


def _verify_main(experiment: str, nbytes: int):
    """Rank main for the ``check --dynamic`` experiments."""
    if experiment == "race":

        def race(comm):
            # Ranks 1..P-1 all send the same tag; rank 0 drains them with
            # ANY_SOURCE receives -> every match is a wildcard race.
            if comm.rank == 0:
                order = []
                for _ in range(comm.size - 1):
                    env = yield from comm.recv()
                    order.append(env.source)
                return order
            yield from comm.send(0, nbytes=nbytes, tag=7)

        return race
    if experiment == "leak":

        def leak(comm):
            # Rank 0 posts an irecv it never waits; the verifier reports
            # the handle at finalize.
            if comm.rank == 0:
                comm.irecv(source=1)
                yield from comm.compute(1e-6)
                return None
            if comm.rank == 1:
                yield from comm.send(0, nbytes=nbytes)
            yield from comm.compute(1e-6)

        return leak
    return _trace_main(experiment, nbytes)


def _load_baseline(path: str):
    """Baseline keys (code, file, message) accepted as pre-existing."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return {
        (d["code"], d["file"], d["message"]) for d in data.get("diagnostics", [])
    }


def _cmd_check(args) -> int:
    from repro.analyze import (
        check_paths,
        check_units_paths,
        render_diagnostics,
        verify_mpiexec,
    )

    paths = [t for t in args.targets if os.path.exists(t)]
    experiments = [t for t in args.targets if t not in paths]
    if args.dynamic:
        experiments = list(args.targets)
        paths = []
    bad = [e for e in experiments if e not in VERIFY_EXPERIMENTS]
    if bad:
        _print(
            f"unknown target(s) {bad}: not a path and not one of "
            f"{', '.join(VERIFY_EXPERIMENTS)}"
        )
        return 2

    failures = 0
    json_payload: dict = {}

    if paths:
        checker = check_units_paths if args.units else check_paths
        diags = checker(paths)
        if args.baseline:
            accepted = _load_baseline(args.baseline)
            diags = [d for d in diags if d.key() not in accepted]
        _print(f"static check: {' '.join(paths)}")
        _print(render_diagnostics(diags))
        json_payload["diagnostics"] = [
            {
                "code": d.code,
                "file": d.file,
                "line": d.line,
                "message": d.message,
                "hint": d.hint,
            }
            for d in diags
        ]
        failures += len(diags)

    if experiments:
        from repro.mpi.fabrics import host_fabric, phi_fabric

        fabric = host_fabric() if args.fabric == "host" else phi_fabric(args.tpc)
        json_payload["experiments"] = {}
        for exp in experiments:
            main = _verify_main(exp, args.nbytes)
            _print(f"dynamic check: {exp}  ranks={args.ranks}  "
                   f"fabric={args.fabric}")
            _result, report = verify_mpiexec(args.ranks, fabric, main)
            _print(report.render())
            json_payload["experiments"][exp] = json.loads(report.to_json())
            failures += len(report.issues)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(json_payload, fh, indent=2, sort_keys=True)
        _print(f"report written to {args.json}")
    return 1 if failures else 0


#: Experiments the ``compile`` command can replay (halo + Fig 10-13
#: collectives + the CG solver; all recognized static patterns).
COMPILE_EXPERIMENTS = (
    "allreduce",
    "bcast",
    "allgather",
    "alltoall",
    "halo",
    "cg",
)


def _cmd_compile(args) -> int:
    import time

    from repro.mpi.compile import CompileStats, compiled_mpiexec
    from repro.mpi.fabrics import host_fabric, phi_fabric
    from repro.mpi.runtime import MpiJob
    from repro.perf.cache import EvalCache
    from repro.simcore import Engine

    fabric = host_fabric() if args.fabric == "host" else phi_fabric(args.tpc)
    if args.experiment == "cg":
        from repro.npb.mpi_versions import cg_main

        main = cg_main(args.ranks)
    else:
        main = _trace_main(args.experiment, args.nbytes)

    engine = Engine()
    job = MpiJob(args.ranks, fabric, engine=engine)
    job.launch(main)
    t0 = time.perf_counter()
    stepped = job.run()
    stepped_wall = time.perf_counter() - t0
    rows = [
        (
            "stepped",
            f"{stepped.elapsed:.6e}",
            f"{stepped_wall:.3f}",
            str(engine.timeline()),
            "-",
        )
    ]

    cache = EvalCache()
    ok = True
    last_wall = stepped_wall
    for label in ("compiled (cold)", "memo (warm)"):
        st = CompileStats()
        t0 = time.perf_counter()
        res = compiled_mpiexec(args.ranks, fabric, main, cache=cache, stats=st)
        wall = time.perf_counter() - t0
        last_wall = wall
        rel = abs(res.elapsed - stepped.elapsed) / stepped.elapsed
        ok = (
            ok
            and res.elapsed == stepped.elapsed
            and st.path in ("replay", "vector", "memo")
        )
        shown = st.path or "stepped"
        if st.path == "vector":
            shown = f"vector, {st.phases} phases"
        rows.append(
            (
                f"{label} [{shown}]",
                f"{res.elapsed:.6e}",
                f"{wall:.3f}",
                str(st.engine_steps),
                f"{rel:.1e}",
            )
        )
        if st.path == "stepped":
            _print(f"fell back to stepped engine: {st.reason}")
    _print(
        render_table(
            ("path", "elapsed (s)", "wall (s)", "engine steps", "rel err"),
            rows,
            title=(
                f"{args.experiment}, {args.ranks} ranks, {args.fabric} fabric"
            ),
        )
    )
    speedup = stepped_wall / max(last_wall, 1e-9)
    _print(f"warm-memo wall speedup vs stepped: {speedup:.1f}x")
    return 0 if ok else 1


def _cmd_campaign(args) -> int:
    from repro.campaign import Journal, RetryPolicy, run_campaign
    from repro.campaign.experiments import EXPERIMENTS, build_spec, demo_plan
    from repro.faults import FaultPlan

    if args.action == "status":
        read = Journal.read(args.journal)
        if read.header is None and not read.entries:
            _print(f"{args.journal}: no journal (campaign never started)")
            return 1
        by_key = read.by_key()
        counts = {"ok": 0, "failure": 0, "infeasible": 0}
        retried = 0
        for entry in by_key.values():
            counts[entry.status] += 1
            if entry.attempts > 1:
                retried += 1
        header = read.header or {}
        total = header.get("total")
        _print(f"journal:   {args.journal}")
        _print(f"campaign:  {header.get('name', '?')} "
               f"({header.get('campaign', 'missing header')})")
        done = len(by_key)
        progress = f"{done}/{total}" if total is not None else str(done)
        _print(f"points:    {progress} journaled "
               f"(ok={counts['ok']} failure={counts['failure']} "
               f"infeasible={counts['infeasible']} retried={retried})")
        if read.skipped:
            _print(f"damaged:   {read.skipped} line(s) skipped")
        # Exit codes CI can gate on: 0 = every point landed and the
        # campaign is healthy; 1 = still resumable; 2 = all points
        # landed but the results contain failures (or nothing priced).
        if total is None or done < total:
            _print("state:     resumable (repro campaign resume ...)")
            return 1
        if counts["failure"] > 0 or counts["ok"] == 0:
            _print(f"state:     complete (with {counts['failure']} failure(s), "
                   f"{counts['ok']} ok)")
            return 2
        _print("state:     complete")
        return 0

    if args.action == "worker":
        from repro.campaign.net import parse_address, run_worker

        host, port = parse_address(args.connect)
        name = args.name or f"{socket.gethostname()}-{os.getpid()}"
        executed = run_worker(host, port, name=name,
                              heartbeat_s=args.heartbeat_s)
        _print(f"worker {name}: {executed} shard(s) executed")
        return 0

    if args.action == "merge":
        merged = Journal.merge(*args.journals, out=args.journal)
        by_key = merged.by_key()
        counts = {"ok": 0, "failure": 0, "infeasible": 0}
        for entry in by_key.values():
            counts[entry.status] += 1
        header = merged.header or {}
        _print(f"merged:    {len(args.journals)} journal(s), "
               f"{len(by_key)} distinct point(s) "
               f"(ok={counts['ok']} failure={counts['failure']} "
               f"infeasible={counts['infeasible']})")
        _print(f"campaign:  {header.get('name', '?')} "
               f"({header.get('campaign', '?')})")
        if merged.skipped:
            _print(f"damaged:   {merged.skipped} line(s) skipped")
        if args.journal:
            _print(f"merged journal written to {args.journal}")
        return 0

    if args.experiment is None:
        _print(f"campaign {args.action} needs an experiment "
               f"({', '.join(EXPERIMENTS)})")
        return 2
    plan = None
    if args.faults == "demo":
        plan = demo_plan(args.experiment)
    elif args.faults:
        plan = FaultPlan.from_file(args.faults)
    spec = build_spec(
        args.experiment,
        quick=args.quick,
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=args.retries),
        grid_name=args.grid,
        fabric=args.fabric,
        tpc=args.tpc,
    )

    def on_shard(shard_set, stats) -> None:
        _print(
            f"  shard landed: +{len(shard_set)} ok "
            f"+{len(shard_set.failures)} failed "
            f"({stats.executed} executed, {stats.retried} retried)"
        )

    executor = None
    if args.serve:
        from repro.campaign.net import SocketShardExecutor, parse_address

        host, port = parse_address(args.serve)
        executor = SocketShardExecutor(
            spec,
            host=host,
            port=port,
            min_workers=args.min_workers,
            lease_timeout_s=args.lease_timeout_s,
            throttle_s=args.throttle_ms / 1000.0,
        )
        _print(f"serving shards on {executor.address[0]}:{executor.address[1]} "
               f"(waiting for {args.min_workers} worker(s))")

    run = run_campaign(
        spec,
        args.journal,
        workers=args.workers,
        shard_size=args.shard_size,
        resume=True if args.action == "resume" else None,
        on_shard=on_shard,
        throttle_s=args.throttle_ms / 1000.0,
        executor=executor,
    )
    s = run.stats
    _print(render_table(
        ("stat", "value"),
        [(k, str(v)) for k, v in s.as_dict().items()],
        title=f"campaign {spec.name} ({run.spec_fingerprint[:16]})",
    ))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(run.results_payload(), fh, indent=2, sort_keys=True)
        _print(f"results written to {args.out}")
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(s.as_dict(), fh, indent=2, sort_keys=True)
        _print(f"stats written to {args.stats}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the SC'13 Maia / Xeon Phi evaluation from its models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: system characteristics")
    p_fig = sub.add_parser("figure", help="print one figure's data table")
    p_fig.add_argument("number", type=int, choices=sorted(NUMBERS))
    sub.add_parser("figures", help="print every figure")
    p_npb = sub.add_parser("npb", help="run the real NPB suite")
    p_npb.add_argument("--problem", default="S", choices=list("SWABC"))
    p_npb.add_argument(
        "--benchmarks", default=None,
        help="comma-separated subset, e.g. EP,CG,MG",
    )
    sub.add_parser("stream", help="STREAM model + a real NumPy measurement")
    sub.add_parser("modes", help="MG under the four programming modes")
    sub.add_parser("validate", help="run the full paper-claim battery")
    p_trace = sub.add_parser(
        "trace", help="record a Chrome trace of one simulated experiment"
    )
    p_trace.add_argument("experiment", choices=TRACE_EXPERIMENTS)
    p_trace.add_argument("--ranks", type=int, default=8, help="MPI ranks (default 8)")
    p_trace.add_argument(
        "--nbytes", type=int, default=1024, help="message size (default 1024)"
    )
    p_trace.add_argument("--fabric", default="host", choices=("host", "phi"))
    p_trace.add_argument(
        "--tpc", type=int, default=3, choices=(1, 2, 3, 4),
        help="threads/core for the phi fabric",
    )
    p_trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="Chrome trace-event JSON output (load in Perfetto)",
    )
    p_trace.add_argument(
        "--timeline", action="store_true", help="also render the ASCII timeline"
    )
    p_faults = sub.add_parser(
        "faults", help="run one experiment under a fault-injection plan"
    )
    p_faults.add_argument("experiment", choices=FAULT_EXPERIMENTS)
    p_faults.add_argument(
        "--plan", default=None, metavar="FILE",
        help="JSON fault plan (see docs/ROBUSTNESS.md); a demo plan is "
        "used when omitted",
    )
    p_faults.add_argument("--ranks", type=int, default=8, help="MPI ranks (default 8)")
    p_faults.add_argument(
        "--nbytes", type=int, default=1024, help="message size (default 1024)"
    )
    p_faults.add_argument("--fabric", default="host", choices=("host", "phi"))
    p_faults.add_argument(
        "--tpc", type=int, default=3, choices=(1, 2, 3, 4),
        help="threads/core for the phi fabric",
    )
    p_faults.add_argument(
        "--timeline", action="store_true",
        help="render the faulted run's ASCII timeline (fault instants as '!')",
    )
    p_check = sub.add_parser(
        "check", help="MPI correctness checks (static lint / dynamic verifier)"
    )
    p_check.add_argument(
        "targets", nargs="+", metavar="TARGET",
        help="files/directories to lint, or experiment names "
        f"({', '.join(VERIFY_EXPERIMENTS)}) to verify dynamically",
    )
    p_check.add_argument(
        "--static", action="store_true",
        help="static AST lint (the default for path targets)",
    )
    p_check.add_argument(
        "--dynamic", action="store_true",
        help="run targets as experiments under the vector-clock verifier",
    )
    p_check.add_argument(
        "--units", action="store_true",
        help="units lint (mixed seconds/bytes arithmetic) instead of MPI lint",
    )
    p_check.add_argument("--ranks", type=int, default=8, help="MPI ranks (default 8)")
    p_check.add_argument(
        "--nbytes", type=int, default=1024, help="message size (default 1024)"
    )
    p_check.add_argument("--fabric", default="host", choices=("host", "phi"))
    p_check.add_argument(
        "--tpc", type=int, default=3, choices=(1, 2, 3, 4),
        help="threads/core for the phi fabric",
    )
    p_check.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="JSON baseline of accepted diagnostics; only new ones fail",
    )
    p_check.add_argument(
        "--json", default=None, metavar="PATH", help="write a JSON report"
    )
    p_compile = sub.add_parser(
        "compile",
        help="compare stepped vs compiled (max-plus replay + memo) runs",
    )
    p_compile.add_argument("experiment", choices=COMPILE_EXPERIMENTS)
    p_compile.add_argument(
        "--ranks", type=int, default=64, help="MPI ranks (default 64)"
    )
    p_compile.add_argument(
        "--nbytes", type=int, default=1024, help="message size (default 1024)"
    )
    p_compile.add_argument("--fabric", default="host", choices=("host", "phi"))
    p_compile.add_argument(
        "--tpc", type=int, default=3, choices=(1, 2, 3, 4),
        help="threads/core for the phi fabric",
    )

    p_campaign = sub.add_parser(
        "campaign",
        help="distributed, resumable campaign execution over a journal",
    )
    campaign_sub = p_campaign.add_subparsers(dest="action", required=True)

    def _campaign_exec_parser(action: str, help_text: str):
        p = campaign_sub.add_parser(action, help=help_text)
        p.add_argument(
            "experiment", nargs="?", default=None,
            help="campaign to execute (fig22, halo)",
        )
        p.add_argument(
            "--journal", default="campaign.jsonl", metavar="PATH",
            help="append-only checkpoint journal (default campaign.jsonl)",
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="process-pool workers (default: serial)",
        )
        p.add_argument(
            "--shard-size", type=int, default=4, metavar="K",
            help="points per work unit (default 4)",
        )
        p.add_argument(
            "--out", default=None, metavar="PATH",
            help="write the canonical results payload as JSON",
        )
        p.add_argument(
            "--stats", default=None, metavar="PATH",
            help="write the run stats as JSON",
        )
        p.add_argument(
            "--throttle-ms", type=float, default=0.0, metavar="MS",
            help="sleep per point (execution pacing for kill tests; "
            "never affects results)",
        )
        p.add_argument(
            "--faults", default=None, metavar="demo|FILE",
            help="fault plan: 'demo' for the experiment's built-in plan, "
            "or a JSON plan file",
        )
        p.add_argument(
            "--retries", type=int, default=2, metavar="N",
            help="max attempts per failing point (default 2); retries run "
            "under a progressively relaxed fault plan",
        )
        p.add_argument(
            "--quick", action="store_true", help="small grids (CI smoke mode)"
        )
        p.add_argument(
            "--grid", default="DLRF6-Medium", metavar="NAME",
            help="OVERFLOW dataset for fig22 (default DLRF6-Medium)",
        )
        p.add_argument("--fabric", default="host", choices=("host", "phi"))
        p.add_argument(
            "--tpc", type=int, default=3, choices=(1, 2, 3, 4),
            help="threads/core for the phi fabric (halo experiment)",
        )
        p.add_argument(
            "--serve", default=None, metavar="HOST:PORT",
            help="serve shards to remote 'repro campaign worker' processes "
            "instead of executing locally (port 0 picks a free port)",
        )
        p.add_argument(
            "--min-workers", type=int, default=1, metavar="N",
            help="with --serve: hold dispatch until N workers registered",
        )
        p.add_argument(
            "--lease-timeout-s", type=float, default=30.0, metavar="S",
            help="with --serve: reassign a shard whose worker neither "
            "finishes nor heartbeats for S seconds (default 30)",
        )
        return p

    _campaign_exec_parser("run", "execute a campaign (fresh or resumed)")
    _campaign_exec_parser("resume", "resume a campaign (requires a journal)")

    p_status = campaign_sub.add_parser(
        "status",
        help="inspect a journal: exit 0 complete-ok, 1 incomplete, "
        "2 complete-with-failures",
    )
    p_status.add_argument(
        "--journal", default="campaign.jsonl", metavar="PATH",
        help="journal to inspect (default campaign.jsonl)",
    )

    p_worker = campaign_sub.add_parser(
        "worker", help="serve shards for a remote campaign server"
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="campaign server to pull shards from",
    )
    p_worker.add_argument(
        "--name", default=None, metavar="NAME",
        help="worker name in server logs and trace lanes (default: host+pid)",
    )
    p_worker.add_argument(
        "--heartbeat-s", type=float, default=2.0, metavar="S",
        help="lease-renewal heartbeat period while executing (default 2)",
    )

    p_merge = campaign_sub.add_parser(
        "merge", help="reconcile journals from several runners of one spec"
    )
    p_merge.add_argument(
        "journals", nargs="+", metavar="JOURNAL",
        help="input journals (first-write-wins in argument order)",
    )
    p_merge.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write the merged journal here (resumable/status-able); "
        "omit to just validate and summarize",
    )

    args = parser.parse_args(argv)
    if args.command == "table1":
        _print(FIGURES["table1"].render())
        return 0
    if args.command == "figure":
        _print(FIGURES[NUMBERS[args.number]].render())
        return 0
    if args.command == "figures":
        for fig in FIGURES.values():
            _print(fig.render())
        return 0
    if args.command == "npb":
        benchmarks = args.benchmarks.split(",") if args.benchmarks else None
        return _cmd_npb(args.problem, benchmarks)
    if args.command == "stream":
        return _cmd_stream()
    if args.command == "modes":
        return _cmd_modes()
    if args.command == "validate":
        from repro.validation import render_report, validate_all

        cs = validate_all()
        _print(render_report(cs))
        return 0 if cs.all_passed else 1
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
