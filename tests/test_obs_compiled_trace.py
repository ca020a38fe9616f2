"""Traces recorded on the compiled path (:mod:`repro.mpi.compile`).

A job with an active tracer prices on the max-plus replay, which emits
the spans itself.  Five contracts are gated here:

* **Structure** — the compiled trace holds exactly the stepped trace's
  canonical subset: every ``mpi.rank``, ``mpi.coll`` and ``app.phase``
  span, plus the ``mpi.p2p`` spans the rank program itself issued (the
  point-to-point traffic inside a collective is priced by its schedule
  and leaves no span), with equal names, lanes, depths and args.
* **Timing** — span timestamps and durations agree with the stepped
  trace to 1e-9 relative for every collective kind.  A traced stepped
  job never takes the fast path, and the replay prices each collective
  with the schedule of the algorithm that job steps.  Traced elapsed is
  bit-equal to untraced compiled elapsed everywhere.
* **Fallback hygiene** — a replay abandoned mid-job leaves no span or
  message-matrix entry behind: the stepped rerun's trace is the whole
  trace.
* **Static fault plans** — a traced job under a static plan replays:
  its trace is the stepped traced run's canonical subset plus the
  plan's ``fault.<kind>`` start instants at t=0.  Windowed and crashing
  plans still step.
* **Cost** — an untraced replay builds no span object, and the traced
  replay's bytes over a fixed grid of jobs are pinned by one digest.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import partial

import pytest

from repro.faults import (
    FaultPlan,
    LinkDegradation,
    MemoryPressure,
    RankCrash,
    Straggler,
)
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.runtime import MpiJob, mpiexec
from repro.obs import NULL_TRACER, Tracer, trace_digest
from repro.perf.batch import HAVE_NUMPY

TOL = 1e-9

RANKS = (1, 2, 3, 8, 13, 64)

#: Eager on both fabrics, and above both eager limits (rendezvous).
SIZES = (64, 1 << 20)

FABRICS = {"host": host_fabric, "phi": lambda: phi_fabric(2)}


# --------------------------------------------------------------- rank mains


def _coll_main(kind, nbytes, comm):
    """One collective after a rank-dependent compute skew."""
    yield from comm.compute(1e-7 * (comm.rank % 3))
    root = comm.size // 2
    if kind == "barrier":
        yield from comm.barrier()
        return None
    if kind == "allreduce":
        return (yield from comm.allreduce(comm.rank, nbytes=nbytes))
    if kind == "bcast":
        return (yield from comm.bcast(comm.rank, root=root, nbytes=nbytes))
    if kind == "reduce":
        return (yield from comm.reduce(comm.rank, root=root, nbytes=nbytes))
    if kind == "gather":
        return (yield from comm.gather(comm.rank, root=root, nbytes=nbytes))
    if kind == "allgather":
        return (yield from comm.allgather(comm.rank, nbytes=nbytes))
    if kind == "alltoall":
        return (yield from comm.alltoall(list(range(comm.size)), nbytes=nbytes))
    if kind == "scatter":
        return (yield from comm.scatter(list(range(comm.size)), root=root,
                                        nbytes=nbytes))
    raise ValueError(kind)


def _halo_loop(nbytes, comm, iters=2):
    """The perfsuite halo loop: both ring directions, compute, allreduce."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    total = 0
    for _ in range(iters):
        yield from comm.sendrecv(right, left, nbytes=nbytes)
        yield from comm.sendrecv(left, right, nbytes=nbytes)
        yield from comm.compute(2e-6)
        total = yield from comm.allreduce(comm.rank, nbytes=8)
    return total


def _phase_ring(nbytes, comm):
    """A ring exchange and blocking pair traffic inside nested phases."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    partner = comm.rank ^ 1
    with comm.phase("ring"):
        env = yield from comm.sendrecv(right, left, nbytes=nbytes,
                                       payload=comm.rank)
        with comm.phase("pairs", cat="app.step"):
            if partner < comm.size:
                if comm.rank % 2 == 0:
                    yield from comm.send(partner, nbytes, tag=3)
                    yield from comm.recv(source=partner, tag=4)
                else:
                    yield from comm.recv(source=partner, tag=3)
                    yield from comm.send(partner, nbytes, tag=4)
    return env.payload


def _isend_burst(nbytes, comm):
    """Overlapping isends: the second opens a level deeper on the .nb lane."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    reqs = [comm.isend(right, nbytes, tag=k) for k in range(3)]
    for k in range(3):
        yield from comm.recv(source=left, tag=k)
    for req in reqs:
        yield from req.wait()


def _unwaited_isend(nbytes, comm):
    """A ring of isends that are received but never waited, in a phase."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    with comm.phase("post"):
        comm.isend(right, nbytes, tag=5)
        yield from comm.compute(1e-7 * (comm.rank % 2))
    yield from comm.recv(source=left, tag=5)


def _main(kind, nbytes):
    if kind == "halo":
        return partial(_halo_loop, nbytes)
    if kind == "phase-ring":
        return partial(_phase_ring, nbytes)
    if kind == "isend-burst":
        return partial(_isend_burst, nbytes)
    if kind == "unwaited-isend":
        return partial(_unwaited_isend, nbytes)
    return partial(_coll_main, kind, nbytes)


# ------------------------------------------------------------------ helpers


def _canonical(tracer):
    """The spans a compiled trace must reproduce, keyed for comparison.

    A point-to-point span belongs to a collective when it lies inside one
    of that rank's ``mpi.coll`` spans: deeper on the rank lane, or on the
    rank's ``.nb`` lane, where isends run.
    """
    colls = [e for e in tracer.events if e.cat == "mpi.coll"]
    spans = []
    for e in tracer.events:
        if e.cat == "mpi.p2p":
            lane = e.tid[:-len(".nb")] if e.tid.endswith(".nb") else e.tid
            slack = TOL * e.end  # ``ts + dur`` rounds off the true end
            if any(
                c.tid == lane and c.ts <= e.ts and e.end <= c.end + slack
                and (e.tid != lane or c.depth < e.depth)
                for c in colls
            ):
                continue
        elif e.cat not in ("mpi.rank", "mpi.coll", "app.phase", "app.step"):
            continue
        args = tuple(sorted((e.args or {}).items()))
        spans.append(((e.ph, e.cat, e.name, e.pid, e.tid, e.depth, args), e))
    return spans


def _structure(spans):
    return Counter(key for key, _ in spans)


def _by_key(spans):
    return sorted(spans, key=lambda s: (repr(s[0]), s[1].ts))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(abs(a), abs(b))


def _run_pair(kind, p, nbytes, fabric_name):
    make = FABRICS[fabric_name]
    main = _main(kind, nbytes)
    compiled, stepped = Tracer(), Tracer()
    st = CompileStats()
    res = compiled_mpiexec(p, make(), main, tracer=compiled, stats=st)
    assert st.path == "replay", (kind, p, nbytes, st.reason)
    ref = mpiexec(p, make(), main, tracer=stepped)
    untraced = compiled_mpiexec(p, make(), main)
    assert res.elapsed == untraced.elapsed, (kind, p, nbytes)
    assert res.returns == ref.returns
    return compiled, stepped, main


# -------------------------------------------------------------- equivalence


KINDS = ("allreduce", "allgather", "alltoall", "gather", "scatter", "barrier",
         "halo", "phase-ring", "isend-burst", "bcast", "reduce")

#: Every rank main above, the unwaited isends included.
ALL_KINDS = KINDS + ("unwaited-isend",)


@pytest.mark.parametrize("fabric_name", sorted(FABRICS))
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_trace_matches_stepped(kind, fabric_name):
    for p in RANKS:
        for nbytes in SIZES:
            compiled, stepped, main = _run_pair(kind, p, nbytes, fabric_name)
            case = (kind, p, nbytes, fabric_name)
            ours, theirs = _canonical(compiled), _canonical(stepped)
            # Nothing outside the canonical subset is emitted.
            assert len(ours) == len(compiled.events), case
            assert _structure(ours) == _structure(theirs), case
            for (key, a), (_, b) in zip(_by_key(ours), _by_key(theirs)):
                assert _close(a.ts, b.ts), (case, key, a.ts, b.ts)
                assert _close(a.dur, b.dur), (case, key, a.dur, b.dur)


def test_user_messages_fill_the_matrix():
    """Only the rank program's own messages reach the message matrix."""
    compiled, stepped, _ = _run_pair("phase-ring", 8, 64, "host")
    assert compiled.comm_matrix() == stepped.comm_matrix() != {}
    compiled, stepped, _ = _run_pair("allreduce", 8, 64, "host")
    assert compiled.comm_matrix() == {} != stepped.comm_matrix()


def test_inactive_tracer_counts_as_none():
    st = CompileStats()
    compiled_mpiexec(8, host_fabric(), _main("halo", 64), tracer=NULL_TRACER,
                     stats=st)
    assert st.path == "replay"
    disabled = Tracer()
    disabled.enabled = False
    st = CompileStats()
    compiled_mpiexec(256, host_fabric(), _main("halo", 64), tracer=disabled,
                     stats=st)
    assert st.path == ("vector" if HAVE_NUMPY else "replay")
    assert len(disabled) == 0


def test_job_run_compiled_traces_on_its_lane():
    """``MpiJob(tracer=...).run(compiled=True)`` gets the traced replay."""
    tracer = Tracer()
    job = MpiJob(8, host_fabric(), name="cgjob", tracer=tracer)
    main = _main("phase-ring", 64)
    job.launch(main)
    st = CompileStats()
    res = job.run(compiled=True, stats=st)
    assert st.path == "replay", st.reason
    assert res.elapsed == compiled_mpiexec(8, host_fabric(), main).elapsed
    spans = [e for e in tracer.events if e.ph == "X"]
    assert spans and {e.pid for e in spans} == {"cgjob"}


# ---------------------------------------------------------- fallback hygiene


def _post_irecv(comm, source, tag):
    # Kept out of the rank main so the static pre-screen cannot see the
    # irecv: the replay meets it mid-job and falls back.
    return comm.irecv(source=source, tag=tag)


def _p2p_then_irecv(nbytes, comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    with comm.phase("exchange"):
        yield from comm.sendrecv(right, left, nbytes=nbytes)
        yield from comm.allreduce(comm.rank)
    req = _post_irecv(comm, left, 7)
    yield from comm.send(right, nbytes, tag=7)
    yield from req.wait()


@pytest.mark.parametrize("nbytes", SIZES)
def test_fallback_leaves_no_replay_spans(nbytes):
    main = partial(_p2p_then_irecv, nbytes)
    tracer = Tracer()
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, tracer=tracer, stats=st)
    assert st.path == "stepped" and "irecv" in st.reason, st.reason
    ref_tracer = Tracer()
    ref = mpiexec(8, host_fabric(), main, tracer=ref_tracer)
    assert res.elapsed == ref.elapsed
    assert trace_digest(tracer) == trace_digest(ref_tracer)
    assert tracer.comm_matrix() == ref_tracer.comm_matrix()


def _unmatched_isend(comm):
    if comm.rank == 0:
        comm.isend(1, 1 << 20)  # rendezvous, never received or waited
    yield from comm.barrier()


def test_unmatched_traced_isend_raises_like_stepped():
    """The stepped isend worker blocks forever under a tracer, so the
    traced replay hands the job to the engine, which reports it."""
    from repro.errors import DeadlockError

    st = CompileStats()
    with pytest.raises(DeadlockError):
        compiled_mpiexec(2, host_fabric(), _unmatched_isend, tracer=Tracer(),
                         stats=st)
    assert st.path == "stepped" and st.reason == "isend never matched"
    with pytest.raises(DeadlockError):
        mpiexec(2, host_fabric(), _unmatched_isend, tracer=Tracer())


# -------------------------------------------------------- static fault plans


#: name -> plan factory; every fault active over [0, inf).
STATIC_PLANS = {
    "link+straggler": lambda: FaultPlan([
        LinkDegradation(latency_factor=2.3, bandwidth_factor=0.45),
        Straggler(rank=1, slowdown=2.7),
        Straggler(rank=1, slowdown=1.5, label="second-straggler"),
    ]),
    "memory-pressure": lambda: FaultPlan([
        MemoryPressure(capacity_factor=0.5),
    ]),
}


def _with_fault_instants(tracer):
    """The canonical subset plus the ``faults/plan`` lane's instants."""
    spans = _canonical(tracer)
    for e in tracer.events:
        if e.cat.startswith("fault."):
            args = tuple(sorted((e.args or {}).items()))
            spans.append(((e.ph, e.cat, e.name, e.pid, e.tid, e.depth, args),
                          e))
    return spans


@pytest.mark.parametrize("plan_name", sorted(STATIC_PLANS))
@pytest.mark.parametrize("fabric_name", sorted(FABRICS))
@pytest.mark.parametrize("kind", KINDS)
def test_traced_static_plan_matches_stepped(kind, fabric_name, plan_name):
    """A traced job under a static plan replays.  Its trace is the
    stepped traced run's canonical subset plus the plan's ``start``
    instants at t=0, and its elapsed is the untraced replay's, bit for
    bit."""
    make, make_plan = FABRICS[fabric_name], STATIC_PLANS[plan_name]
    for p in (1, 2, 3, 8, 13):
        for nbytes in SIZES:
            case = (kind, p, nbytes, fabric_name, plan_name)
            main = _main(kind, nbytes)
            compiled, stepped = Tracer(), Tracer()
            st = CompileStats()
            res = compiled_mpiexec(p, make(), main, tracer=compiled,
                                   fault_plan=make_plan(), stats=st)
            assert st.path == "replay", (case, st.reason)
            untraced = compiled_mpiexec(p, make(), main,
                                        fault_plan=make_plan())
            assert res.elapsed == untraced.elapsed, case
            ref = mpiexec(p, make(), main, tracer=stepped,
                          fault_plan=make_plan())
            assert res.returns == ref.returns, case
            ours = _with_fault_instants(compiled)
            theirs = _with_fault_instants(stepped)
            assert len(ours) == len(compiled.events), case
            assert _structure(ours) == _structure(theirs), case
            instants = [e for _, e in ours if e.ph == "i"]
            assert len(instants) == len(make_plan().link_faults
                                        + make_plan().stragglers), case
            assert all(e.ts == 0.0 for e in instants), case
            for (key, a), (_, b) in zip(_by_key(ours), _by_key(theirs)):
                assert _close(a.ts, b.ts), (case, key, a.ts, b.ts)
                assert _close(a.dur, b.dur), (case, key, a.dur, b.dur)


@pytest.mark.parametrize("plan", [
    FaultPlan([Straggler(rank=1, slowdown=2.0, end=1e-6)]),
    FaultPlan([LinkDegradation(latency_factor=2.0, start=1e-6)]),
    FaultPlan([RankCrash(rank=1, at=1.0)]),
], ids=["windowed-straggler", "windowed-link", "crash"])
def test_traced_dynamic_plans_still_step(plan):
    """Windowed and crashing plans change cost mid-job: traced or not,
    they step, and the trace is the stepped run's own."""
    main = _main("halo", 64)
    tracer, ref_tracer = Tracer(), Tracer()
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, tracer=tracer,
                           fault_plan=plan, stats=st)
    assert st.path == "stepped" and "fault plan" in st.reason, st.reason
    ref = mpiexec(8, host_fabric(), main, tracer=ref_tracer, fault_plan=plan)
    assert res.elapsed == ref.elapsed
    assert trace_digest(tracer) == trace_digest(ref_tracer)


# ---------------------------------------------------------- untraced guard


def test_untraced_replay_builds_no_span(monkeypatch):
    """Without a tracer the replay builds no span object at all: every
    kind, a static fault plan included, runs with ``TraceEvent`` made to
    raise."""
    import repro.mpi.compile as compile_mod

    def _no_spans(*args, **kwargs):
        raise AssertionError("untraced replay built a TraceEvent")

    monkeypatch.setattr(compile_mod, "TraceEvent", _no_spans)
    for kind in ALL_KINDS:
        for nbytes in SIZES:
            main = _main(kind, nbytes)
            for p in (1, 3, 8):
                compile_mod.replay(p, phi_fabric(2), main)
                for plan in (None, STATIC_PLANS["link+straggler"]()):
                    st = CompileStats()
                    compiled_mpiexec(p, host_fabric(), main, fault_plan=plan,
                                     stats=st, vector=False)
                    assert st.path == "replay", (kind, p, st.reason)


# ------------------------------------------------------------ golden bytes


GOLDEN_RANKS = RANKS + (127,)

#: sha256 over every golden job's trace digest, message matrix and
#: elapsed time, in grid order.  Any change to what a traced replay
#: emits, or in what order, changes it.
GOLDEN_TRACE_SHA256 = (
    "403a87fb9ac167a4fdb0f72d2f1e10055c7e36a5a4e6cee4822e8715877e444a"
)


def _golden_digest() -> str:
    h = hashlib.sha256()
    for fabric_name in sorted(FABRICS):
        for kind in ALL_KINDS:
            for p in GOLDEN_RANKS:
                for nbytes in SIZES:
                    main = _main(kind, nbytes)
                    tr = Tracer()
                    st = CompileStats()
                    res = compiled_mpiexec(p, FABRICS[fabric_name](), main,
                                           tracer=tr, stats=st)
                    assert st.path == "replay", (kind, p, nbytes, st.reason)
                    h.update(repr((fabric_name, kind, p, nbytes,
                                   trace_digest(tr),
                                   sorted(tr.comm_matrix().items()),
                                   res.elapsed)).encode())
    return h.hexdigest()


def test_golden_trace_bytes():
    """The traced replay's output over a fixed grid is pinned byte for
    byte: every collective kind and the halo loop, phases, waited and
    unwaited isends, P in {1, 2, 3, 8, 13, 64, 127}, eager and
    rendezvous sizes, on the host and a Phi fabric."""
    assert _golden_digest() == GOLDEN_TRACE_SHA256
