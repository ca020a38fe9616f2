"""Phase compilation (:mod:`repro.mpi.phasec`) and its job integration.

Four contracts are gated here:

* **IR integrity** — :class:`~repro.mpi.phasec.PhaseProgram` round-trips
  through ``to_dict``/``from_dict``, run-length-compresses repeated
  phases, rejects malformed phases, and its ``op_estimate`` matches the
  scalar replay's trampoline cost model.
* **Lowering refusals** — every construct outside the phase vocabulary
  (wildcard receives, rank-dependent branches, payload-dependent
  control flow, blocking sends, ``irecv``, rank-divergent streams)
  raises :class:`~repro.mpi.phasec.LowerFallback`; selection-level
  vetoes (fault plans, time-varying fabrics) route the whole job to the
  stepped engine, and a tracer routes it to the scalar replay.
* **Backend equivalence** — the numpy and scalar pricing backends agree
  to 1e-9 relative (bit-exact in practice) with each other, with the
  scalar replay, and with the stepped engine, over seeded-random
  ``(P, nbytes, iters)`` draws; without numpy the scalar backend warns
  once and produces identical numbers.
* **Job routing** — ``compiled_mpiexec``/``MpiJob.run(compiled=True)``
  pick the vector path when asked, materialize per-rank returns lazily
  through the replay, and memoize elapsed-only entries.
"""

from __future__ import annotations

import functools
import random
from functools import partial

import pytest

import repro.mpi.compile as compile_mod
import repro.mpi.phasec as phasec_mod
from repro.errors import ConfigError
from repro.mpi.compile import CompileStats, compiled_mpiexec, replay
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.phasec import (
    LowerFallback,
    Phase,
    PhaseProgram,
    clocks,
    lower,
    price,
)
from repro.mpi.runtime import JobResult, MpiJob, mpiexec
from repro.perf.batch import HAVE_NUMPY, reset_fallback_warning
from repro.perf.cache import EvalCache

TOL = 1e-9

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / b if b else abs(a - b)


# --------------------------------------------------------------- rank mains


def _halo_main(nbytes, iters, comm):
    """The fig22 exchange skeleton: ring shifts + allreduce, iterated."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for _ in range(iters):
        yield from comm.sendrecv(right, left, nbytes=nbytes)
        yield from comm.sendrecv(left, right, nbytes=nbytes)
        yield from comm.compute(1e-7)
        yield from comm.allreduce(0.0, nbytes=8)
    return comm.rank


def _coll_loop_main(comm):
    for _ in range(4):
        yield from comm.barrier()
    yield from comm.reduce(1.0, nbytes=8, root=1)
    return None


def _wildcard_main(comm):
    env = yield from comm.recv()
    return env.source


def _rank_branch_main(comm):
    if comm.rank == 0:
        yield from comm.barrier()
    else:
        yield from comm.barrier()
    return None


def _payload_branch_main(comm):
    v = yield from comm.allreduce(1.0, nbytes=8)
    if v > 0.0:  # observes an opaque reduction result
        yield from comm.barrier()
    return None


def _blocking_send_main(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.send(right, nbytes=64)
    env = yield from comm.recv(left)
    return env.payload


def _irecv_main(comm):
    req = comm.irecv(source=(comm.rank + 1) % comm.size)
    yield from req.wait()
    return None


def _hub_main(comm):
    """Every rank isends to rank 0: not one uniform ring offset."""
    req = comm.isend(0, 64)
    env = yield from comm.recv(0)
    yield from req.wait()
    return env.payload


def _star_main(comm):
    """Rank 0 exchanges with every other rank: replayable (static peers,
    no wildcards) but nowhere near phase-uniform."""
    if comm.rank == 0:
        total = 0
        for src in range(1, comm.size):
            req = comm.isend(src, 64, payload=0)
            env = yield from comm.recv(src)
            yield from req.wait()
            total += env.payload
        return total
    req = comm.isend(0, 64, payload=comm.rank)
    env = yield from comm.recv(0)
    yield from req.wait()
    return env.payload


# ------------------------------------------------------------- IR integrity


def test_phase_program_roundtrip():
    program = lower(partial(_halo_main, 4096, 2), 16, fabric=host_fabric())
    clone = PhaseProgram.from_dict(program.to_dict())
    assert clone == program
    assert clone.phases == program.phases
    assert clone.op_estimate == program.op_estimate


def test_run_length_compression_and_op_estimate():
    program = lower(_coll_loop_main, 8, fabric=host_fabric())
    # Four consecutive barriers fold into one count=4 phase.
    assert program.phases == (
        Phase(kind="coll", coll="barrier", count=4),
        Phase(kind="coll", coll="reduce", nbytes=8, root=1),
    )
    # A collective costs one trampoline resumption per rank.
    assert program.op_estimate == 5 * 8


def test_phase_program_rejects_malformed_phases():
    with pytest.raises(ValueError, match="unknown phase kind"):
        PhaseProgram(n_ranks=4, phases=(Phase(kind="teleport"),))
    with pytest.raises(ValueError, match="count"):
        PhaseProgram(n_ranks=4, phases=(Phase(kind="compute", count=0),))


def test_compressed_pricing_matches_uncompressed():
    """count=N pricing must match N unrolled count=1 phases exactly."""
    fabric = phi_fabric(2)
    rolled = lower(_coll_loop_main, 8, fabric=fabric)
    unrolled = PhaseProgram(
        n_ranks=8,
        phases=tuple(
            ph
            for phase in rolled.phases
            for ph in [phase.__class__(**{**phase.to_dict(), "count": 1})]
            * phase.count
        ),
    )
    assert clocks(rolled, fabric, use_numpy=False) == clocks(
        unrolled, fabric, use_numpy=False
    )


# --------------------------------------------------------- lowering refusals


@pytest.mark.parametrize(
    "main, needle",
    (
        (_wildcard_main, "wildcard"),
        (_rank_branch_main, "rank-dependent control flow"),
        (_payload_branch_main, "payload-dependent"),
        (_blocking_send_main, "blocking send"),
        (_irecv_main, "irecv"),
        (_hub_main, "rank-divergent op stream"),
    ),
)
def test_lower_refuses(main, needle):
    with pytest.raises(LowerFallback, match=needle):
        lower(main, 8, fabric=host_fabric())


def test_lower_refuses_trivial_jobs():
    with pytest.raises(LowerFallback, match="P < 2"):
        lower(partial(_halo_main, 64, 1), 1, fabric=host_fabric())


def test_lower_refuses_sourceless_mains():
    code = compile(
        "def _stdin_main(comm):\n    yield from comm.barrier()\n",
        "<string>", "exec",
    )
    ns = {}
    exec(code, ns)
    with pytest.raises(LowerFallback, match="source unavailable"):
        lower(ns["_stdin_main"], 8, fabric=host_fabric())


def test_static_veto_is_memoized_per_code_object():
    phasec_mod._code_veto.cache_clear()
    for _ in range(2):  # the memoized verdict still refuses
        with pytest.raises(LowerFallback, match="rank-dependent"):
            lower(_rank_branch_main, 8, fabric=host_fabric())
    lower(partial(_halo_main, 64, 1), 8, fabric=host_fabric())
    lower(partial(_halo_main, 4096, 2), 8, fabric=host_fabric())
    info = phasec_mod._code_veto.cache_info()
    assert (info.currsize, info.hits, info.misses) == (2, 2, 2)


def test_static_veto_memo_keys_the_source_file():
    """Equal code objects from two files are two entries: one file's
    source is readable, the other's is not."""
    import linecache

    src = "def _twin_main(comm):\n    yield from comm.barrier()\n"
    mains = {}
    for name in ("<twin-readable>", "<twin-missing>"):
        ns = {}
        exec(compile(src, name, "exec"), ns)
        mains[name] = ns["_twin_main"]
    assert mains["<twin-readable>"].__code__ == mains["<twin-missing>"].__code__
    linecache.cache["<twin-readable>"] = (
        len(src), None, src.splitlines(True), "<twin-readable>"
    )
    try:
        lower(mains["<twin-readable>"], 8, fabric=host_fabric())
        with pytest.raises(LowerFallback, match="source unavailable"):
            lower(mains["<twin-missing>"], 8, fabric=host_fabric())
    finally:
        del linecache.cache["<twin-readable>"]


def _passthrough(fn):
    """A decorator: every main it wraps shares the wrapper's code."""
    @functools.wraps(fn)
    def wrapper(comm):
        return (yield from fn(comm))
    return wrapper


@_passthrough
def _wrapped_barrier_main(comm):
    yield from comm.barrier()


@_passthrough
def _wrapped_rank_branch_main(comm):
    if comm.rank == 0:
        yield from comm.barrier()
    else:
        yield from comm.barrier()


def test_static_veto_memo_sees_through_decorators():
    assert (_wrapped_barrier_main.__code__
            is _wrapped_rank_branch_main.__code__)
    lower(_wrapped_barrier_main, 8, fabric=host_fabric())
    with pytest.raises(LowerFallback, match="rank-dependent"):
        lower(_wrapped_rank_branch_main, 8, fabric=host_fabric())


class _CallableMain:
    """A rank main with no ``__code__`` of its own: never memoized."""

    def __call__(self, comm):
        yield from comm.barrier()


def test_static_veto_scans_callables_without_code_every_time():
    phasec_mod._code_veto.cache_clear()
    for _ in range(2):
        with pytest.raises(LowerFallback, match="source unavailable"):
            lower(_CallableMain(), 8, fabric=host_fabric())
    assert phasec_mod._code_veto.cache_info().currsize == 0
    stepped = mpiexec(8, host_fabric(), _CallableMain())
    compiled = compiled_mpiexec(8, host_fabric(), _CallableMain(),
                                vector=True)
    assert compiled.elapsed == stepped.elapsed


def test_selection_vetoes_route_to_stepped():
    from repro.faults import FaultPlan, Straggler
    from repro.faults.inject import DegradedFabric
    from repro.obs import Tracer

    main = partial(_halo_main, 256, 1)
    # A static plan skips the vector path, whose schedules are not the
    # stepped algorithms a faulted job runs, and replays exactly.
    plan = FaultPlan([Straggler(rank=1, slowdown=2.0)])
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, stats=st, vector=True,
                           fault_plan=plan)
    assert st.path == "replay", (st.path, st.reason)
    ref = mpiexec(8, host_fabric(), main, fault_plan=plan)
    assert res.elapsed == ref.elapsed
    assert res.returns == ref.returns
    st = CompileStats()
    compiled_mpiexec(8, host_fabric(), main, stats=st, vector=True,
                     fault_plan=FaultPlan([Straggler(rank=1, slowdown=2.0,
                                                     start=1e-6)]))
    assert st.path == "stepped", st.path
    assert "fault plan" in st.reason
    st = CompileStats()
    degraded = DegradedFabric(host_fabric(), [])
    compiled_mpiexec(8, degraded, main, stats=st, vector=True)
    assert st.path == "stepped"
    assert "time-varying" in st.reason
    # Traced P=256 with vector=True prices via replay, not vector: the
    # vector path keeps no per-op clocks to emit spans from.
    tracer = Tracer()
    st = CompileStats()
    res = compiled_mpiexec(256, host_fabric(), main, stats=st, vector=True,
                           tracer=tracer)
    assert st.path == "replay", (st.path, st.reason)
    assert len(tracer) > 0
    assert res.elapsed == compiled_mpiexec(256, host_fabric(), main).elapsed


# ------------------------------------------------------- backend equivalence


def test_scalar_price_matches_replay_and_stepped():
    for fabric in (host_fabric(), phi_fabric(2)):
        for nbytes in (256, 1 << 20):  # eager and rendezvous regimes
            main = partial(_halo_main, nbytes, 2)
            program = lower(main, 13, fabric=fabric)
            elapsed = price(program, fabric, use_numpy=False)
            rep = replay(13, fabric, main)
            des = mpiexec(13, fabric, main, fast_collectives=False)
            assert _rel(elapsed, rep.elapsed) <= TOL
            assert _rel(elapsed, des.elapsed) <= TOL


@needs_numpy
def test_vector_matches_scalar_random_draws():
    """Property-style: seeded (P, nbytes, iters) draws, elementwise."""
    rnd = random.Random(0x5C13)
    for fabric in (host_fabric(), phi_fabric(2)):
        for _ in range(5):
            p = rnd.randrange(2, 300)
            nbytes = rnd.choice((64, 4096, 128 * 1024, 1 << 20))
            iters = rnd.randrange(1, 4)
            main = partial(_halo_main, nbytes, iters)
            program = lower(main, p, fabric=fabric)
            vec = clocks(program, fabric, use_numpy=True)
            scal = clocks(program, fabric, use_numpy=False)
            tag = f"P={p} nbytes={nbytes} iters={iters}"
            assert len(vec) == len(scal) == p
            for v, s in zip(vec, scal):
                assert _rel(v, s) <= TOL, tag
            assert _rel(
                price(program, fabric, use_numpy=True),
                replay(p, fabric, main).elapsed,
            ) <= TOL, tag


def test_scalar_fallback_warns_once_without_numpy(monkeypatch):
    monkeypatch.setattr(phasec_mod, "get_numpy", lambda: None)
    program = lower(partial(_halo_main, 256, 1), 8, fabric=host_fabric())
    reset_fallback_warning()
    try:
        with pytest.warns(UserWarning, match="scalar"):
            demanded = clocks(program, host_fabric(), use_numpy=True)
        assert demanded == clocks(program, host_fabric(), use_numpy=False)
    finally:
        reset_fallback_warning()


def test_fallback_warning_gate_is_per_context():
    # One subsystem tripping the fallback must not swallow the warning
    # a *different* subsystem owes its users later in the same process —
    # and re-warning the same context stays silenced until reset.
    import warnings as _warnings

    from repro.perf.batch import warn_scalar_fallback

    reset_fallback_warning()
    try:
        with pytest.warns(UserWarning, match="phase-compiled"):
            warn_scalar_fallback("phase-compiled job pricing")
        with pytest.warns(UserWarning, match="batch kernel"):
            warn_scalar_fallback("batch kernel pricing")  # distinct context
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            warn_scalar_fallback("phase-compiled job pricing")  # silenced
        reset_fallback_warning("phase-compiled job pricing")
        with pytest.warns(UserWarning, match="phase-compiled"):
            warn_scalar_fallback("phase-compiled job pricing")  # re-armed
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            warn_scalar_fallback("batch kernel pricing")  # still silenced
    finally:
        reset_fallback_warning()


# ---------------------------------------------------------------- routing


def test_vector_path_lazy_returns_match_stepped():
    main = partial(_halo_main, 4096, 2)
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, stats=st, vector=True)
    assert st.path == "vector"
    assert st.phases > 0 and st.replay_ops > 0
    assert st.engine_steps == 0
    assert res.mode == "vector"
    des = mpiexec(8, host_fabric(), main, fast_collectives=False)
    assert _rel(res.elapsed, des.elapsed) <= TOL
    assert res.returns == des.returns  # materialized through the replay


def test_vector_selected_automatically_at_scale():
    if not HAVE_NUMPY:
        pytest.skip("automatic selection requires numpy")
    main = partial(_halo_main, 256, 1)
    st = CompileStats()
    res = compiled_mpiexec(
        compile_mod.VECTOR_MIN_RANKS, host_fabric(), main, stats=st
    )
    assert st.path == "vector"
    st = CompileStats()
    compiled_mpiexec(
        compile_mod.VECTOR_MIN_RANKS - 1, host_fabric(), main, stats=st
    )
    assert st.path == "replay"
    assert res.completed


def test_vector_forbidden_falls_back_to_replay():
    main = partial(_halo_main, 256, 1)
    st = CompileStats()
    res = compiled_mpiexec(256, host_fabric(), main, stats=st, vector=False)
    assert st.path == "replay"
    assert res.mode == "replay"


def test_unlowerable_program_falls_back_to_replay():
    """vector=True on a replayable-but-not-phase-uniform program."""
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), _star_main, stats=st, vector=True)
    assert st.path == "replay"
    des = mpiexec(8, host_fabric(), _star_main, fast_collectives=False)
    assert res.returns == des.returns
    assert _rel(res.elapsed, des.elapsed) <= TOL


def test_vector_memo_stores_elapsed_only():
    cache = EvalCache()
    main = partial(_halo_main, 4096, 1)
    st1, st2 = CompileStats(), CompileStats()
    r1 = compiled_mpiexec(
        8, host_fabric(), main, cache=cache, stats=st1, vector=True
    )
    r2 = compiled_mpiexec(
        8, host_fabric(), main, cache=cache, stats=st2, vector=True
    )
    assert (st1.path, st2.path) == ("vector", "memo")
    assert st2.cache_hit and st2.engine_steps == 0
    assert r2.mode == "memo"
    assert r2.elapsed == r1.elapsed
    # The memo entry holds no returns; the hit rebuilds them lazily.
    assert r2.returns == list(range(8))


def test_lazy_jobresult_contract():
    with pytest.raises(ConfigError, match="lazy JobResult"):
        JobResult(elapsed=1.0, returns=None)
    calls = []

    def factory():
        calls.append(1)
        return [10, 11]

    res = JobResult(
        elapsed=1.0, returns=None, mode="vector", n_ranks=2,
        returns_factory=factory,
    )
    assert not calls  # nothing materialized yet
    assert res.returns == [10, 11]
    assert res.partial_returns() == [10, 11]
    assert calls == [1]  # a single materialization serves both reads


def test_mpijob_run_compiled_routes_and_falls_back():
    main = partial(_halo_main, 4096, 1)
    st = CompileStats()
    job = MpiJob(8, host_fabric())
    job.launch(main)
    res = job.run(compiled=True, stats=st, vector=True)
    assert st.path == "vector"
    assert job.engine.timeline() == 0  # priced without stepping
    ref = mpiexec(8, host_fabric(), main)
    assert _rel(res.elapsed, ref.elapsed) <= TOL
    assert res.returns == ref.returns
    # fast_collectives=False leaves job.fast unset: the compiled entry
    # refuses and the stepped engine runs transparently.
    st = CompileStats()
    job = MpiJob(8, host_fabric(), fast_collectives=False)
    job.launch(main)
    res = job.run(compiled=True, stats=st)
    assert st.path == "stepped"
    assert st.engine_steps > 0
    assert res.returns == ref.returns


def test_mpijob_run_compiled_refuses_stepped_engine():
    main = partial(_halo_main, 4096, 1)
    job = MpiJob(8, host_fabric())
    job.launch(main)
    job.run(until=1e-9)  # the engine has stepped: pricing would be wrong
    st = CompileStats()
    res = job.run(compiled=True, stats=st)
    assert st.path == "stepped"
    assert st.reason == "engine already stepped"
    assert res.completed
