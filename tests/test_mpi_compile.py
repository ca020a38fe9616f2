"""Whole-job compilation (:mod:`repro.mpi.compile`) vs the stepped engine.

Three contracts are gated here:

* **Replay equivalence** — a recognized static job replayed on max-plus
  scalar clocks agrees with the fully stepped discrete-event run in
  elapsed time exactly (``TOL = 0.0``) with bit-identical per-rank
  return values, across eager and rendezvous regimes, both
  fabrics, and skewed arrivals.
* **Transparent fallback** — every construct the replay cannot express
  (wildcard receives, ``irecv``, timeouts, verifiers, windowed or
  crashing fault plans, resolver fabrics, caller-provided engines)
  silently re-runs on the stepped engine with identical results and
  identical errors.  A traced job replays, emitting its spans from the
  replay's clocks; a static fault plan replays on the degraded fabric.
* **Memoization** — a warm :class:`~repro.perf.cache.EvalCache` hit
  returns the stored :class:`~repro.mpi.runtime.JobResult` without
  stepping a single engine event, and the fingerprint key separates
  jobs by rank program (including closure/partial state), fabric and
  rank count.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.errors import ConfigError, DeadlockError
from repro.mpi.collectives import ARRAY_ROUNDS_MIN_P
from repro.mpi.compile import (
    CompileStats,
    ReplayFallback,
    _alltoall_results,
    _Instance,
    _ReplayJob,
    compiled_mpiexec,
    replay,
)
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.runtime import mpiexec
from repro.perf.batch import get_numpy
from repro.perf.cache import EvalCache
from repro.simcore import Engine

TOL = 0.0


def _fabric(name: str):
    return host_fabric() if name == "host" else phi_fabric(2)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / b if b else abs(a - b)


# --------------------------------------------------------------- rank mains


def _halo_main(nbytes, comm):
    """Two ring sendrecvs + barrier: the CG/MG halo-exchange skeleton."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.sendrecv(right, left, nbytes=nbytes)
    yield from comm.sendrecv(left, right, nbytes=nbytes)
    yield from comm.barrier()
    return comm.rank


def _cg_like_main(nbytes, comm):
    """Halo + compute + reductions, iterated: a mini CG solver shape."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    acc = 0.0
    for _ in range(3):
        yield from comm.sendrecv(right, left, nbytes=nbytes)
        yield from comm.compute(2e-7 * (comm.rank + 1))
        acc = yield from comm.allreduce(acc + 0.1 * (comm.rank + 1), nbytes=8)
    root_sum = yield from comm.reduce(comm.rank, nbytes=8)
    yield from comm.barrier()
    return (acc, root_sum)


def _isend_ring_main(nbytes, comm):
    """Explicit isend/recv/wait ring plus a trailing collective."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.isend(right, nbytes, tag=3, payload=comm.rank)
    env = yield from comm.recv(left, tag=3)
    yield from req.wait()
    total = yield from comm.allreduce(env.payload, nbytes=8)
    return total


def _unwaited_isend_main(comm):
    """Rank 0's eager isend is never waited; its sender-side timer must
    still bound the job's elapsed time (the replay's horizon)."""
    if comm.rank == 0:
        comm.isend(1, 128, payload="fire-and-forget")
        yield from comm.compute(0.0)
        return None
    if comm.rank == 1:
        env = yield from comm.recv(0)
        return env.payload
    yield from comm.compute(1e-8)
    return None


def _gather_scatter_main(nbytes, comm):
    """Root-anchored fan-in/fan-out: scatter work, gather results."""
    if comm.rank == 0:
        shards = [10 * r for r in range(comm.size)]
    else:
        shards = None
    mine = yield from comm.scatter(shards, root=0, nbytes=nbytes)
    yield from comm.compute(1e-7)
    gathered = yield from comm.gather(mine + comm.rank, root=0, nbytes=nbytes)
    total = yield from comm.allreduce(mine, nbytes=8)
    return (gathered, total)


def _ring_gather_main(nbytes, iters, comm):
    """Ring sendrecv, compute, gather, repeated: skewed gather arrivals."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    got = 0
    out = None
    for _ in range(iters):
        env = yield from comm.sendrecv(right, left, nbytes=nbytes,
                                       payload=comm.rank)
        got = got + env.payload
        yield from comm.compute(2e-6)
        out = yield from comm.gather(comm.rank, nbytes=nbytes)
    return got, out


def _late_scatter_main(comm):
    """The last rank computes before the scatter, every other rank after."""
    last = comm.size - 1
    yield from comm.compute(1e-4 if comm.rank == last else 0.0)
    mine = yield from comm.scatter(list(range(comm.size)), nbytes=64)
    yield from comm.compute(0.0 if comm.rank == last else 2e-4)
    return mine


def _wildcard_main(comm):
    if comm.rank == 0:
        sources = []
        for _ in range(comm.size - 1):
            env = yield from comm.recv()
            sources.append(env.source)
        return sources
    yield from comm.send(0, nbytes=64, tag=7)
    return None


def _irecv_main(comm):
    if comm.rank == 0:
        req = comm.irecv(source=1)
        yield from comm.compute(1e-6)
        yield from req.wait()
        return None
    if comm.rank == 1:
        yield from comm.send(0, nbytes=64)
    yield from comm.compute(1e-6)
    return None


def _timeout_main(comm):
    if comm.rank == 0:
        env = yield from comm.recv(source=1, timeout=1.0)
        return env.nbytes
    if comm.rank == 1:
        yield from comm.send(0, nbytes=64)
    yield from comm.compute(1e-8)
    return None


def _mismatch_main(comm):
    if comm.rank == 0:
        return (yield from comm.allreduce(1, nbytes=8))
    return (yield from comm.allreduce(1, nbytes=16))


def _bad_peer_main(comm):
    yield from comm.send(comm.size + 3, nbytes=64)


def _engine_poke_main(comm):
    """Touches ``comm.engine`` — present on the stepped Communicator,
    absent from the replay comm — exercising the generic-error fallback."""
    _ = comm.engine.now
    yield from comm.barrier()
    return comm.rank


# ------------------------------------------------------ replay equivalence


@pytest.mark.parametrize("fabric_name", ("host", "phi"))
@pytest.mark.parametrize("p", (4, 16, 64))
def test_replay_matches_stepped_halo(fabric_name, p):
    for nbytes in (256, 512 * 1024):  # eager and rendezvous regimes
        main = partial(_halo_main, nbytes)
        rep = replay(p, _fabric(fabric_name), main)
        des = mpiexec(p, _fabric(fabric_name), main)
        assert rep.returns == des.returns
        rel = _rel(rep.elapsed, des.elapsed)
        assert rel <= TOL, (
            f"halo P={p} {fabric_name} nbytes={nbytes}: "
            f"replay {rep.elapsed!r} vs DES {des.elapsed!r} (rel {rel:.2e})"
        )
        assert rep.mode == "replay"


@pytest.mark.parametrize("main_fn", (_cg_like_main, _isend_ring_main))
def test_replay_matches_stepped_mixed_programs(main_fn):
    for p in (4, 16):
        for nbytes in (256, 512 * 1024):
            main = partial(main_fn, nbytes)
            rep = replay(p, host_fabric(), main)
            des = mpiexec(p, host_fabric(), main)
            assert rep.returns == des.returns  # float payloads: bit-exact
            assert _rel(rep.elapsed, des.elapsed) <= TOL


def test_replay_matches_default_mpiexec():
    """compiled_mpiexec vs the default mpiexec."""
    for nbytes in (256, 512 * 1024):
        main = partial(_cg_like_main, nbytes)
        st = CompileStats()
        rep = compiled_mpiexec(16, host_fabric(), main, stats=st)
        ref = mpiexec(16, host_fabric(), main)
        assert st.path == "replay"
        assert rep.returns == ref.returns
        assert _rel(rep.elapsed, ref.elapsed) <= TOL


@pytest.mark.parametrize("fabric_name", ("host", "phi"))
@pytest.mark.parametrize("p", (2, 3, 8, 13))
def test_replay_matches_stepped_gather_scatter(fabric_name, p):
    for nbytes in (64, 512 * 1024):  # eager and rendezvous regimes
        main = partial(_gather_scatter_main, nbytes)
        rep = replay(p, _fabric(fabric_name), main)
        des = mpiexec(p, _fabric(fabric_name), main)
        assert rep.returns == des.returns
        rel = _rel(rep.elapsed, des.elapsed)
        assert rel <= TOL, (
            f"gather/scatter P={p} {fabric_name} nbytes={nbytes}: "
            f"replay {rep.elapsed!r} vs DES {des.elapsed!r} (rel {rel:.2e})"
        )


@pytest.mark.parametrize(("p", "main", "vector", "path"), (
    (16, partial(_ring_gather_main, 8, 3), False, "replay"),
    (128, partial(_ring_gather_main, 8, 3), True, "vector"),
    (4, _late_scatter_main, False, "replay"),
    (16, _late_scatter_main, False, "replay"),
), ids=("gather-16-replay", "gather-128-vector", "scatter-4", "scatter-16"))
def test_compiled_gather_scatter_equal_stepped(p, main, vector, path):
    """gather and scatter always step, so a rank leaves them without
    waiting for the last arrival; the compiled paths must not hold it."""
    st = CompileStats()
    res = compiled_mpiexec(p, host_fabric(), main, vector=vector, stats=st)
    ref = mpiexec(p, host_fabric(), main)
    assert st.path == path, st.reason
    assert res.returns == ref.returns
    assert res.elapsed == ref.elapsed


def test_gather_scatter_single_rank():
    main = partial(_gather_scatter_main, 64)
    rep = replay(1, host_fabric(), main)
    des = mpiexec(1, host_fabric(), main)
    assert rep.returns == des.returns == [([0], 0)]
    assert _rel(rep.elapsed, des.elapsed) <= TOL


def test_verifier_certifies_gather_scatter_match_order():
    """The dynamic race verifier, run over the stepped execution whose
    match order the replay lowers, certifies the gather/scatter demo
    race-free — the replay's static schedule is the one the engine
    proves deterministic."""
    from repro.analyze.verifier import Verifier

    main = partial(_gather_scatter_main, 256)
    verifier = Verifier()
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, verifier=verifier, stats=st)
    _assert_stepped(st, "verifier")
    report = verifier.finalize()
    assert not report.issues, report.issues
    rep = replay(8, host_fabric(), main)
    assert rep.returns == res.returns
    assert _rel(rep.elapsed, res.elapsed) <= TOL


def test_static_profile_accepts_gather_scatter():
    from repro.analyze import rank_program_profile

    profile = rank_program_profile(partial(_gather_scatter_main, 256))
    assert not profile.veto_reasons()


def test_replay_honours_unwaited_isend_horizon():
    rep = replay(4, host_fabric(), _unwaited_isend_main)
    des = mpiexec(4, host_fabric(), _unwaited_isend_main)
    assert rep.returns == des.returns
    assert _rel(rep.elapsed, des.elapsed) <= TOL


def test_replay_deterministic():
    main = partial(_cg_like_main, 4096)
    r1 = replay(32, host_fabric(), main)
    r2 = replay(32, host_fabric(), main)
    assert r1.elapsed == r2.elapsed
    assert r1.returns == r2.returns


def test_replay_large_p_matches_stepped():
    """P=1024 halo: the scaling regime the compiler exists for."""
    p = 1024
    main = partial(_halo_main, 1024)
    rep = replay(p, phi_fabric(2), main)
    des = mpiexec(p, phi_fabric(2), main)
    assert rep.returns == des.returns
    assert _rel(rep.elapsed, des.elapsed) <= TOL


def test_single_rank_job_replays():
    def solo(comm):
        yield from comm.compute(1e-6)
        v = yield from comm.allreduce(comm.rank + 1, nbytes=8)
        yield from comm.barrier()
        return v

    rep = replay(1, host_fabric(), solo)
    des = mpiexec(1, host_fabric(), solo)
    assert rep.returns == des.returns
    assert _rel(rep.elapsed, des.elapsed) <= TOL


# ------------------------------------------------------ dynamic guardrails


def test_replay_refuses_wildcard_recv():
    with pytest.raises(ReplayFallback, match="wildcard"):
        replay(4, host_fabric(), _wildcard_main)


def test_replay_refuses_irecv():
    with pytest.raises(ReplayFallback, match="irecv"):
        replay(4, host_fabric(), _irecv_main)


def test_replay_refuses_timeouts():
    with pytest.raises(ReplayFallback, match="timeout"):
        replay(4, host_fabric(), _timeout_main)


def test_replay_refuses_unmatched_communication():
    def stuck(comm):
        if comm.rank == 0:
            yield from comm.recv(source=1, tag=9)  # never sent
        yield from comm.compute(1e-8)

    with pytest.raises(ReplayFallback, match="stalled"):
        replay(2, host_fabric(), stuck)


# ---------------------------------------------------- transparent fallback


def _assert_stepped(st: CompileStats, needle: str) -> None:
    assert st.path == "stepped", (st.path, st.reason)
    assert needle in st.reason, st.reason
    assert st.engine_steps > 0


def test_fallback_wildcard_recv_matches_stepped():
    st = CompileStats()
    res = compiled_mpiexec(4, host_fabric(), _wildcard_main, stats=st)
    _assert_stepped(st, "wildcard")
    ref = mpiexec(4, host_fabric(), _wildcard_main)
    assert res.elapsed == ref.elapsed
    assert res.returns == ref.returns


def test_traced_job_replays():
    from repro.obs import Tracer

    tracer = Tracer()
    st = CompileStats()
    main = partial(_halo_main, 256)
    res = compiled_mpiexec(8, host_fabric(), main, tracer=tracer, stats=st)
    assert st.path == "replay" and st.engine_steps == 0, st.reason
    assert len(tracer) > 0  # spans were actually recorded
    assert res.elapsed == compiled_mpiexec(8, host_fabric(), main).elapsed
    des = mpiexec(8, host_fabric(), main)
    assert _rel(res.elapsed, des.elapsed) <= TOL


def test_fallback_verifier():
    from repro.analyze.verifier import Verifier

    st = CompileStats()
    main = partial(_halo_main, 256)
    verifier = Verifier()
    res = compiled_mpiexec(8, host_fabric(), main, verifier=verifier, stats=st)
    _assert_stepped(st, "verifier")
    report = verifier.finalize()
    assert not report.issues
    des = mpiexec(8, host_fabric(), main)
    assert _rel(res.elapsed, des.elapsed) <= TOL


def _assert_replays_exactly(main, fault_plan=None):
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, fault_plan=fault_plan,
                           stats=st)
    assert st.path == "replay", (st.path, st.reason)
    assert st.engine_steps == 0
    ref = mpiexec(8, host_fabric(), main, fault_plan=fault_plan)
    assert res.elapsed == ref.elapsed
    assert res.returns == ref.returns


def test_fallback_fault_plan():
    """A static plan replays exactly, traced or not; a windowed fault or
    a crash sends a faulted job to the stepped engine, traced or not."""
    from repro.faults import FaultPlan, LinkDegradation, RankCrash, Straggler
    from repro.obs import Tracer

    main = partial(_cg_like_main, 256)
    _assert_replays_exactly(main, FaultPlan([
        LinkDegradation(latency_factor=2.0, bandwidth_factor=0.5),
        Straggler(rank=1, slowdown=3.0),
    ]))
    for plan, needle in (
        (FaultPlan([Straggler(rank=1, slowdown=3.0, end=1e-6)]),
         "windowed straggler"),
        (FaultPlan([LinkDegradation(latency_factor=2.0, start=1e-6)]),
         "windowed link"),
        (FaultPlan([RankCrash(rank=1, at=1.0)]), "rank crash"),
    ):
        st = CompileStats()
        res = compiled_mpiexec(8, host_fabric(), main, fault_plan=plan,
                               stats=st)
        _assert_stepped(st, needle)
        ref = mpiexec(8, host_fabric(), main, fault_plan=plan)
        assert res.elapsed == ref.elapsed
        assert res.returns == ref.returns
        st = CompileStats()
        compiled_mpiexec(8, host_fabric(), main, fault_plan=plan,
                         tracer=Tracer(), stats=st)
        _assert_stepped(st, needle)
    st = CompileStats()
    plan = FaultPlan([Straggler(rank=1, slowdown=3.0)])
    res = compiled_mpiexec(8, host_fabric(), main, fault_plan=plan,
                           tracer=Tracer(), stats=st)
    assert st.path == "replay", st.reason
    assert res.elapsed == compiled_mpiexec(8, host_fabric(), main,
                                           fault_plan=plan).elapsed


def test_fallback_resolver_fabric():
    slow, quick = phi_fabric(4), host_fabric()

    def resolver(src: int, dst: int):
        return slow if 0 in (src, dst) else quick

    st = CompileStats()
    main = partial(_halo_main, 256)
    res = compiled_mpiexec(8, resolver, main, stats=st)
    _assert_stepped(st, "resolver")
    ref = mpiexec(8, resolver, main)
    assert res.elapsed == ref.elapsed
    assert res.returns == ref.returns


def test_fallback_caller_engine():
    eng = Engine()
    st = CompileStats()
    res = compiled_mpiexec(
        4, host_fabric(), partial(_halo_main, 256), engine=eng, stats=st
    )
    _assert_stepped(st, "engine")
    assert eng.timeline() == st.engine_steps
    assert res.completed


def _rooted_halo_main(nbytes, comm):
    """A halo, then a reduce and a binomial bcast rooted off rank 0."""
    yield from _halo_main(nbytes, comm)
    total = yield from comm.reduce(comm.rank, root=3, nbytes=nbytes)
    return (yield from comm.bcast(total, root=3, nbytes=nbytes))


def test_rooted_collectives_take_the_vector_path():
    """A large job with rooted collectives prices on the vector path and
    equals its stepped run."""
    from repro.perf.batch import HAVE_NUMPY

    main = partial(_rooted_halo_main, 256)
    st = CompileStats()
    res = compiled_mpiexec(128, host_fabric(), main, stats=st)
    assert st.path == ("vector" if HAVE_NUMPY else "replay"), st
    ref = mpiexec(128, host_fabric(), main)
    assert res.elapsed == ref.elapsed
    assert res.returns == ref.returns == [127 * 128 // 2] * 128


def test_fallback_replay_error_is_transparent():
    st = CompileStats()
    res = compiled_mpiexec(4, host_fabric(), _engine_poke_main, stats=st)
    _assert_stepped(st, "AttributeError")
    assert res.returns == [0, 1, 2, 3]


def test_mismatched_collectives_raise_configerror():
    """The replay defers to the stepped engine, which reports the real
    mismatch error — same type and message as plain mpiexec."""
    with pytest.raises(ConfigError, match="mismatched collective"):
        compiled_mpiexec(4, host_fabric(), _mismatch_main)


def test_bad_peer_raises_configerror():
    with pytest.raises(ConfigError, match="out of range"):
        compiled_mpiexec(4, host_fabric(), _bad_peer_main)


# ------------------------------------------------------- static pre-screen


def test_static_profile_flags_dynamic_constructs():
    from repro.analyze import rank_program_profile

    assert "wildcard-source recv" in rank_program_profile(
        _wildcard_main
    ).veto_reasons()
    assert "irecv" in rank_program_profile(_irecv_main).veto_reasons()
    vetoes = rank_program_profile(_timeout_main).veto_reasons()
    assert any("timeout" in v for v in vetoes)


def test_static_profile_clears_static_programs():
    from repro.analyze import rank_program_profile

    for fn in (_halo_main, _cg_like_main, _isend_ring_main):
        profile = rank_program_profile(partial(fn, 256))
        assert not profile.unknown
        assert not profile.veto_reasons(), fn.__name__


def test_static_profile_unknown_source_is_not_a_veto():
    from repro.analyze import rank_program_profile

    profile = rank_program_profile(print)  # no retrievable source
    assert profile.unknown
    assert not profile.veto_reasons()


# ------------------------------------------------------------- memoization


def test_memo_cold_then_warm():
    fabric = host_fabric()
    main = partial(_cg_like_main, 2048)
    cache = EvalCache()
    st1, st2 = CompileStats(), CompileStats()
    r1 = compiled_mpiexec(16, fabric, main, cache=cache, stats=st1)
    r2 = compiled_mpiexec(16, fabric, main, cache=cache, stats=st2)
    assert st1.path == "replay" and not st1.cache_hit
    assert st2.path == "memo" and st2.cache_hit
    assert st2.engine_steps == 0  # a warm hit steps no event at all
    assert r2.elapsed == r1.elapsed
    assert r2.returns == r1.returns
    assert (r1.mode, r2.mode) == ("replay", "memo")
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_memo_key_separates_jobs():
    fabric = host_fabric()
    cache = EvalCache()
    compiled_mpiexec(8, fabric, partial(_halo_main, 256), cache=cache)
    # Different nbytes (partial arg), rank count, fabric, program: all miss.
    for p, fab, main in (
        (8, fabric, partial(_halo_main, 512)),
        (16, fabric, partial(_halo_main, 256)),
        (8, phi_fabric(2), partial(_halo_main, 256)),
        (8, fabric, partial(_cg_like_main, 256)),
    ):
        st = CompileStats()
        compiled_mpiexec(p, fab, main, cache=cache, stats=st)
        assert st.path == "replay", (p, st.path)
    st = CompileStats()
    compiled_mpiexec(8, fabric, partial(_halo_main, 256), cache=cache, stats=st)
    assert st.path == "memo"  # the original key is still warm


def test_memo_not_consulted_for_fallback_jobs():
    """A healthy entry never answers a faulted job, nor a faulted entry a
    healthy job or another plan: the key adds the plan's fingerprint."""
    from repro.faults import FaultPlan, Straggler
    from repro.obs import Tracer

    def plan(slowdown):
        return FaultPlan([Straggler(rank=1, slowdown=slowdown)])

    main = partial(_cg_like_main, 256)
    for first, then in ((None, plan(2.0)), (plan(2.0), None)):
        cache = EvalCache()
        compiled_mpiexec(8, host_fabric(), main, cache=cache, fault_plan=first)
        st = CompileStats()
        res = compiled_mpiexec(8, host_fabric(), main, cache=cache, stats=st,
                               fault_plan=then)
        assert st.path == "replay" and not st.cache_hit, st
        assert res.elapsed == mpiexec(8, host_fabric(), main,
                                      fault_plan=then).elapsed
    # The faulted entry answers its own plan, not another plan.
    st = CompileStats()
    compiled_mpiexec(8, host_fabric(), main, cache=cache, stats=st,
                     fault_plan=plan(2.0))
    assert st.path == "memo" and st.cache_hit
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, cache=cache, stats=st,
                           fault_plan=plan(3.0))
    assert st.path == "replay" and not st.cache_hit, st
    assert res.elapsed == mpiexec(8, host_fabric(), main,
                                  fault_plan=plan(3.0)).elapsed
    main = partial(_halo_main, 256)
    compiled_mpiexec(8, host_fabric(), main, cache=cache)
    # A traced job skips the memo, whose hit would emit no spans.
    st = CompileStats()
    compiled_mpiexec(
        8, host_fabric(), main, tracer=Tracer(), cache=cache, stats=st
    )
    assert st.path == "replay" and not st.cache_hit


# ------------------------------------------------ one-step sendrecv parity
#
# The replay communicator runs ``sendrecv`` as one generator (isend +
# recv + wait inline).  Every outcome the shared three-step sendrecv has
# on the stepped engine must follow: equal clocks, a stall where the
# stepped run deadlocks, a fallback on a wildcard source, ConfigError on
# a bad peer, and straggler-scaled compute between exchanges.


def _ring_both_ways(nbytes, comm):
    """Right then left around the ring, with a skew between the two."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    a = yield from comm.sendrecv(right, left, nbytes=nbytes,
                                 payload=comm.rank)
    yield from comm.compute(1e-7 * (comm.rank % 3))
    b = yield from comm.sendrecv(left, right, nbytes=nbytes, tag=7,
                                 payload=-comm.rank)
    return a.payload, b.payload, a.source, b.tag, comm.now


def _tag_mismatch(nbytes, comm):
    """Each rank receives its own rank as tag, but its left neighbour
    sends the neighbour's: no receive ever matches."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.sendrecv(right, left, nbytes=nbytes, tag=comm.rank)


def _wildcard_sendrecv(comm):
    right = (comm.rank + 1) % comm.size
    env = yield from comm.sendrecv(right, None, nbytes=64, payload=comm.rank)
    return env.payload


def _bad_sendrecv(which, comm):
    right = (comm.rank + 1) % comm.size
    if which == "dest":
        yield from comm.sendrecv(comm.size + 2, right, nbytes=64)
    else:
        yield from comm.sendrecv(right, -1, nbytes=64)


def _sendrecv_sizes(fabric):
    """Eager, just past the fabric's eager limit, and 1 MiB."""
    return (64, fabric.eager_max + 1, 1 << 20)


@pytest.mark.parametrize("fabric_name", ("host", "phi"))
def test_sendrecv_replay_equals_stepped(fabric_name):
    for p in (1, 2, 3, 8, 13):
        for nbytes in _sendrecv_sizes(_fabric(fabric_name)):
            main = partial(_ring_both_ways, nbytes)
            rep = replay(p, _fabric(fabric_name), main)
            des = mpiexec(p, _fabric(fabric_name), main)
            case = (fabric_name, p, nbytes)
            assert rep.elapsed == des.elapsed, case
            assert rep.returns == des.returns, case


@pytest.mark.parametrize("nbytes", (64, 1 << 20))
def test_sendrecv_tag_mismatch_stalls_like_stepped(nbytes):
    main = partial(_tag_mismatch, nbytes)
    with pytest.raises(ReplayFallback, match="stalled"):
        replay(4, host_fabric(), main)
    with pytest.raises(DeadlockError) as stepped:
        mpiexec(4, host_fabric(), main)
    st = CompileStats()
    with pytest.raises(DeadlockError) as compiled:
        compiled_mpiexec(4, host_fabric(), main, stats=st)
    assert st.path == "stepped" and "stalled" in st.reason
    assert str(compiled.value) == str(stepped.value)


def test_sendrecv_wildcard_source_falls_back():
    with pytest.raises(ReplayFallback, match="wildcard"):
        replay(4, host_fabric(), _wildcard_sendrecv)
    st = CompileStats()
    res = compiled_mpiexec(4, host_fabric(), _wildcard_sendrecv, stats=st)
    _assert_stepped(st, "wildcard")
    ref = mpiexec(4, host_fabric(), _wildcard_sendrecv)
    assert (res.elapsed, res.returns) == (ref.elapsed, ref.returns)


@pytest.mark.parametrize("which", ("dest", "source"))
def test_sendrecv_bad_peer_raises_configerror(which):
    main = partial(_bad_sendrecv, which)
    with pytest.raises(ConfigError, match="out of range"):
        replay(4, host_fabric(), main)
    with pytest.raises(ConfigError, match="out of range"):
        mpiexec(4, host_fabric(), main)
    with pytest.raises(ConfigError, match="out of range"):
        compiled_mpiexec(4, host_fabric(), main)


def test_sendrecv_static_straggler_replays_exactly():
    from repro.faults import FaultPlan, Straggler

    plan = FaultPlan([Straggler(rank=1, slowdown=3.0)])
    for nbytes in _sendrecv_sizes(host_fabric()):
        _assert_replays_exactly(partial(_ring_both_ways, nbytes), plan)


# ------------------------------------------- O(P)-round schedules on arrays
#
# From ``collectives.ARRAY_ROUNDS_MIN_P`` ranks the replay prices the
# large bcast's ring, ring allgather and alltoall on arrays.
# Skewed arrivals keep the uniform-arrival rule out of the way, so every
# round runs; the clocks must still equal the stepped run's bit for bit
# and stay Python floats, in the job and in the trace.


def _skewed_bcast(nbytes, comm):
    yield from comm.compute(1e-7 * (comm.rank % 5))
    value = yield from comm.bcast(
        ("payload", comm.rank) if comm.rank == 3 else None, root=3,
        nbytes=nbytes)
    return value, comm.now


def _skewed_alltoall(nbytes, comm):
    yield from comm.compute(1e-7 * (comm.rank % 7))
    got = yield from comm.alltoall(
        [(comm.rank, dst) for dst in range(comm.size)], nbytes=nbytes)
    return got, comm.now


def _round_jobs(fabric):
    yield partial(_skewed_bcast, 1 << 20)
    for nbytes in (64, fabric.eager_max + 1):
        yield partial(_skewed_alltoall, nbytes)


def _all_floats(values):
    return all(type(v) is float for v in values)


@pytest.mark.parametrize("p", (8, 64, 127))
def test_array_rounds_replay_equals_stepped(p):
    fabric = host_fabric()
    for main in _round_jobs(fabric):
        case = (p, main.func.__name__, main.args)
        job = _ReplayJob(p, fabric)
        rep = job.run(main)
        des = mpiexec(p, fabric, main)
        assert rep.elapsed == des.elapsed, case
        assert rep.returns == des.returns, case
        assert _all_floats(job.clocks), case
        assert type(rep.elapsed) is float and type(des.elapsed) is float
        assert _all_floats(now for _, now in rep.returns), case


def test_array_rounds_trace_python_floats():
    from repro.obs import Tracer

    fabric = host_fabric()
    for main in _round_jobs(fabric):
        tracer = Tracer()
        st = CompileStats()
        res = compiled_mpiexec(64, fabric, main, tracer=tracer, stats=st)
        assert st.path == "replay", st.reason
        assert type(res.elapsed) is float
        assert res.elapsed == mpiexec(64, fabric, main).elapsed
        spans = [e for e in tracer.events if e.cat == "mpi.coll"]
        assert len(spans) == 64
        assert _all_floats(e.ts for e in tracer.events)
        assert _all_floats(e.dur for e in tracer.events)


# ------------------------------------------ one occurrence's results, resolve


def _instance(kind, nbytes, values, arrivals=None, root=None):
    inst = _Instance(len(values), kind, nbytes, root, None)
    for rank, row in enumerate(values):
        inst.arrive(rank, 0.0 if arrivals is None else arrivals[rank], row)
    return inst


def _indexed_alltoall(values):
    """The per-element form, which takes any row that can be indexed."""
    p = len(values)
    return [[values[src][dst] if values[src] is not None else None
             for src in range(p)] for dst in range(p)]


def test_alltoall_results_transpose_equals_indexed_form():
    """All-list/tuple rows take the ``zip`` transpose; ``None``, dict
    and array rows keep the indexed form.  Both give the same values of
    the same types."""
    p = 5
    lists = [[(src, dst) for dst in range(p)] for src in range(p)]
    cases = {
        "list": lists,
        "tuple": [tuple(row) for row in lists],
        "mixed": [tuple(row) if src % 2 else row
                  for src, row in enumerate(lists)],
        "none": [None] * p,
        "some none": [None if src == 2 else row
                      for src, row in enumerate(lists)],
        "dict": [dict(enumerate(row)) for row in lists],
    }
    np = get_numpy()
    if np is not None:
        cases["ndarray"] = [np.arange(p) * 0.1 + src for src in range(p)]
        cases["ndarray and list"] = [np.arange(p) * 0.1] + lists[1:]
    for name, values in cases.items():
        got = _alltoall_results(_instance("alltoall", 8, values))
        want = _indexed_alltoall(values)
        assert got == want, name
        assert [[type(x) for x in row] for row in got] == \
            [[type(x) for x in row] for row in want], name
        assert all(type(row) is list for row in got), name


@pytest.mark.parametrize("kind, nbytes, root", (
    ("alltoall", 64, None), ("allgather", 4096, None), ("bcast", 1 << 20, 3),
))
def test_resolve_array_rounds_give_python_floats(kind, nbytes, root,
                                                 monkeypatch):
    """The O(P)-round schedules resolve on an array from
    ``ARRAY_ROUNDS_MIN_P`` ranks; their finish times come back as Python
    floats equal, bit for bit, to the list backend's."""
    import random

    from repro.mpi import collectives

    rnd = random.Random(7)
    for p in (ARRAY_ROUNDS_MIN_P - 1, ARRAY_ROUNDS_MIN_P, 64, 127):
        arrivals = [rnd.random() * 1e-5 for _ in range(p)]
        values = [[r] * p for r in range(p)]
        ends, _ = _instance(kind, nbytes, values, arrivals, root).resolve(
            host_fabric())
        assert all(type(e) is float for e in ends), (kind, p)
        with monkeypatch.context() as m:
            m.setattr(collectives, "get_numpy", lambda: None)
            listed, _ = _instance(kind, nbytes, values, arrivals,
                                  root).resolve(host_fabric())
        assert ends == listed, (kind, p)


# ------------------------------------------- isend on the all-to-all wire
#
# A user ``isend`` can name the all-to-all wire, as ``send`` can.  Above
# the Phi's ``incast_capacity`` (60 ranks) its incast ``alpha`` differs
# from the neighbour wire's, so a path that dropped the pattern would
# show.  Phase pricing knows only the neighbour wire: lowering refuses
# the job, and it replays.


def _alltoall_wire_ring(pattern, nbytes, comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for _ in range(2):
        req = comm.isend(right, nbytes, payload=comm.rank, pattern=pattern)
        env = yield from comm.recv(left)
        yield from req.wait()
        yield from comm.compute(1e-7 * (comm.rank % 3))
    return env.payload


@pytest.mark.parametrize("p", (64, 128))
def test_isend_alltoall_pattern_agrees_on_every_path(p):
    from repro.mpi.phasec import LowerFallback, lower
    from repro.obs import Tracer

    fabric = phi_fabric(2)
    for nbytes in (4096, fabric.eager_max + 1):
        main = partial(_alltoall_wire_ring, "alltoall", nbytes)
        case = (p, nbytes)
        untraced = mpiexec(p, fabric, main)
        traced = mpiexec(p, fabric, main, tracer=Tracer())
        st = CompileStats()
        compiled = compiled_mpiexec(p, fabric, main, stats=st)
        assert st.path == "replay", (case, st.reason)
        assert untraced.elapsed == traced.elapsed == compiled.elapsed, case
        assert untraced.returns == traced.returns == compiled.returns, case
        neighbour = mpiexec(p, fabric,
                            partial(_alltoall_wire_ring, "neighbor", nbytes))
        assert compiled.elapsed > neighbour.elapsed, case
        with pytest.raises(LowerFallback, match="alltoall-pattern isend"):
            lower(main, p, fabric=fabric)
