"""Phase compilation (:mod:`repro.mpi.phasec`) and its job integration.

Six contracts are gated here:

* **IR integrity** — :class:`~repro.mpi.phasec.PhaseProgram` round-trips
  through ``to_dict``/``from_dict``, run-length-compresses repeated
  phases, rejects malformed phases, and its ``op_estimate`` matches the
  scalar replay's trampoline cost model.
* **Lowering refusals** — every construct outside the phase vocabulary
  (wildcard receives, rank-dependent branches, payload-dependent
  control flow, blocking sends, ``irecv``, rank-divergent streams)
  raises :class:`~repro.mpi.phasec.LowerFallback`, and the trace
  communicator's one-call ``sendrecv``, ``compute`` and collectives
  record what the shared ops record and refuse what they refuse, with
  the same messages; selection-level
  vetoes (fault plans, time-varying fabrics) route the whole job to the
  stepped engine; a tracer takes the vector path too, emitting its
  spans from the clock record.
* **One trace for every rank** — a program whose rank stays affine
  lowers in one symbolic trace plus one per distinct root; one that
  observes its rank is traced on every rank; a single divergent rank
  at P=256 refuses the lowering and replays exactly; and over a table
  of peer expressions the symbolic lowering equals the rank-by-rank one.
* **List-valued results** — allgather, alltoall and gather-at-root hand
  the trace a length-only stand-in: reading it like a list lowers and
  prices exactly, observing it refuses, the lowered programs match a
  pinned digest, and lowering allocates nothing per rank.
* **Backend equivalence** — pricing on numpy arrays and on Python lists
  (the container of a numpy-less platform, forced here by hiding
  numpy from :mod:`repro.mpi.phasec`) agree exactly (``TOL = 0.0``)
  with each other, with the scalar replay, and with the stepped engine,
  over seeded-random ``(P, nbytes, iters)`` draws.
* **Job routing** — ``compiled_mpiexec`` picks the vector path when
  asked, materializes per-rank returns lazily through the replay, and
  memoizes elapsed-only entries; it reads each rank program's source
  once, in :func:`~repro.analyze.staticcheck.rank_program_profile`.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import random
import tracemalloc
from functools import partial

import pytest

import repro.analyze.staticcheck as staticcheck
import repro.mpi.compile as compile_mod
import repro.mpi.phasec as phasec_mod
from repro.errors import ConfigError
from repro.mpi.api import RankComm
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
from repro.perf.batch import HAVE_NUMPY
from repro.perf.cache import EvalCache

TOL = 0.0

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / b if b else abs(a - b)


def _on_lists(fn, *args):
    """``fn(*args)`` with numpy hidden from :mod:`repro.mpi.phasec`, so
    its clock vector is the list a numpy-less platform prices on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phasec_mod, "get_numpy", lambda: None)
        return fn(*args)


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


def _root_result_main(comm):
    """Only the reduce's root skips the compute: no branch names the
    rank, but the root's stream differs from every other rank's."""
    out = yield from comm.reduce(1.0, root=3)
    if out is None:
        yield from comm.compute(1e-6)
    return out


#: The collectives a perfsuite-shaped program may end an iteration with.
_SHAPE_COLLS = ("allreduce", "bcast", "allgather", "reduce", "gather",
                "scatter", "alltoall", "barrier")


def _shift_coll_main(coll, nbytes, iters, comm):
    """The perfsuite job shape: ring shift, compute, one collective."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    got, out = 0, None
    for _ in range(iters):
        env = yield from comm.sendrecv(right, left, nbytes=nbytes,
                                       payload=comm.rank)
        got = got + env.payload
        yield from comm.compute(2e-6)
        if coll == "barrier":
            out = yield from comm.barrier()
        elif coll in ("scatter", "alltoall"):
            out = yield from getattr(comm, coll)(list(range(comm.size)),
                                                 nbytes=nbytes)
        else:
            out = yield from getattr(comm, coll)(comm.rank, nbytes=nbytes)
    return got, out


def _allgather_list_main(comm):
    """Reads an allgather result the ways a list allows: length,
    indexing, slicing and iteration (through ``sum``)."""
    out = yield from comm.allgather(comm.rank, nbytes=64)
    head, tail, mid = out[0], out[-1], out[1:3]
    yield from comm.compute(1e-9 * len(out))
    total = yield from comm.allreduce(sum(out), nbytes=8 * len(mid))
    return head, tail, list(mid), total


def _allgather_append_main(comm):
    out = yield from comm.allgather(comm.rank, nbytes=64)
    out.append(-1)
    yield from comm.barrier()
    return out


def _allgather_compare_main(comm):
    out = yield from comm.allgather(comm.rank, nbytes=64)
    if out == list(range(comm.size)):
        yield from comm.barrier()
    return out


def _allgather_truth_main(comm):
    out = yield from comm.allgather(comm.rank, nbytes=64)
    if out:
        yield from comm.barrier()
    return len(out)


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
    listed = _on_lists(clocks, rolled, fabric)
    assert listed == _on_lists(clocks, unrolled, fabric)
    assert clocks(rolled, fabric) == clocks(unrolled, fabric) == listed


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
        (_root_result_main, "rank-divergent op stream"),
    ),
)
def test_lower_refuses(main, needle):
    with pytest.raises(LowerFallback, match=needle):
        lower(main, 8, fabric=host_fabric())


def test_lower_refuses_trivial_jobs():
    with pytest.raises(LowerFallback, match="P < 2"):
        lower(partial(_halo_main, 64, 1), 1, fabric=host_fabric())


# ------------------------------------------ one symbolic trace for all ranks


def _rank37_compute_main(comm):
    """A straggler no branch reveals: rank 37 computes 1 ms."""
    yield from comm.compute(1e-3 * (comm.rank == 37))
    yield from comm.allreduce(0.0, nbytes=8)


def _indexed_compute_main(skews, comm):
    yield from comm.compute(skews[comm.rank])
    yield from comm.allreduce(0.0, nbytes=8)


def _rank37_message_main(comm):
    """Rank 37 sends 1 MiB more than every other rank."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.sendrecv(right, left,
                             nbytes=64 + (1 << 20) * (comm.rank == 37))
    yield from comm.allreduce(0.0, nbytes=8)


def _swallowed_rank_main(comm):
    """Reads the rank behind ``except Exception``: the symbolic trace's
    observation must not be swallowed."""
    try:
        rank = int(comm.rank)
    except Exception:
        rank = 0
    yield from comm.compute(1e-3 * (rank == 37))
    yield from comm.allreduce(0.0, nbytes=8)


_SLOW_37 = tuple(1e-3 if r == 37 else 0.0 for r in range(256))

#: Programs whose rank-37 op differs from every other rank's, where no
#: branch on the rank shows it to the static veto.
_RANK37_MAINS = {
    "compute-of-a-comparison": _rank37_compute_main,
    "compute-indexed-by-rank": partial(_indexed_compute_main, _SLOW_37),
    "message-size": _rank37_message_main,
    "rank-read-behind-except": _swallowed_rank_main,
}


@pytest.mark.parametrize("main", _RANK37_MAINS.values(),
                         ids=_RANK37_MAINS.keys())
def test_one_ranks_divergence_is_priced_exactly(main):
    """At P=256 one divergent rank, which no branch on the rank shows
    to the static veto, must refuse the lowering and replay."""
    st = CompileStats()
    res = compiled_mpiexec(256, host_fabric(), main, stats=st)
    assert st.path == "replay", (st.path, st.reason)
    assert res.elapsed == _stepped(256, host_fabric(), main).elapsed


def _count_traces(monkeypatch):
    """Record the ``rank`` of every trace lowering makes (``None`` for
    the symbolic one)."""
    ranks = []
    real = phasec_mod._trace_rank

    def counting(main, rank, size, fabric, traced=False):
        ranks.append(rank)
        return real(main, rank, size, fabric, traced)

    monkeypatch.setattr(phasec_mod, "_trace_rank", counting)
    return ranks


@pytest.mark.parametrize("p", (128, 65536, 1 << 20))
def test_affine_program_traces_once(monkeypatch, p):
    main = partial(_shift_coll_main, "allreduce", 64, 3)
    lower(main, 8)  # warm the static-veto memo
    ranks = _count_traces(monkeypatch)
    program = lower(main, p)
    assert ranks == [None]
    assert program.phases[0] == Phase(kind="shift", offset=1, nbytes=64)


def _rooted_main(kind, roots, comm):
    for root in roots:
        yield from comm.compute(1e-6)
        if kind == "scatter":
            yield from comm.scatter(list(range(comm.size)), root=root)
        else:
            yield from getattr(comm, kind)(comm.rank, root=root)


@pytest.mark.parametrize("kind", ("bcast", "reduce", "gather", "scatter"))
def test_each_distinct_root_adds_one_trace(monkeypatch, kind):
    main = partial(_rooted_main, kind, (5, 0, 5, 127))
    ranks = _count_traces(monkeypatch)
    program = lower(main, 128, fabric=phi_fabric(2))
    assert ranks == [None, 0, 5, 127]
    assert price(program, phi_fabric(2)) == replay(128, phi_fabric(2),
                                                   main).elapsed


def test_rank_indexed_program_traces_every_rank(monkeypatch):
    """Indexing by the rank observes it: every rank is traced, and a
    flat table still lowers."""
    main = partial(_indexed_compute_main, (2e-6,) * 40)
    ranks = _count_traces(monkeypatch)
    program = lower(main, 40, fabric=host_fabric())
    assert ranks == [None] + list(range(40))
    assert program.phases == (
        Phase(kind="compute", seconds=2e-6),
        Phase(kind="coll", coll="allreduce", nbytes=8),
    )


def _peer_main(dest_of, source_of, comm):
    """One exchange: send to ``dest_of(rank, size)``, receive from
    ``source_of(rank, size)``."""
    dest = dest_of(comm.rank, comm.size)
    source = source_of(comm.rank, comm.size)
    yield from comm.sendrecv(dest, source, nbytes=64, payload=comm.rank * 2)
    yield from comm.allreduce(comm.rank, nbytes=8)


#: (dest, source) expressions: the affine forms lower from the symbolic
#: trace, the others through every rank's own trace.
_PEERS = {
    "rank+3": (lambda r, p: (r + 3) % p, lambda r, p: (r - 3) % p),
    "rank-5+size": (lambda r, p: (r - 5 + p) % p, lambda r, p: (r + 5) % p),
    "int+rank": (lambda r, p: (3 + r) % p, lambda r, p: (r + p - 3) % p),
    "self": (lambda r, p: r % p, lambda r, p: r),
    "off-the-ring": (lambda r, p: r + 1, lambda r, p: r - 1),
    "half-ring": (lambda r, p: (r + p // 2) % p, lambda r, p: (r - p // 2) % p),
    "ring-minus-1": (lambda r, p: (r + 1) % p - 1, lambda r, p: (r + 1) % p - 1),
    "ring-mod-2": (lambda r, p: (r + 1) % 2, lambda r, p: (r - 1) % 2),
    "mod-2size": (lambda r, p: (r + 1) % (2 * p), lambda r, p: (r - 1) % p),
    "double": (lambda r, p: (2 * r) % p, lambda r, p: (2 * r) % p),
    "xor-partner": (lambda r, p: r ^ 1, lambda r, p: r ^ 1),
    "mirror": (lambda r, p: p - 1 - r, lambda r, p: p - 1 - r),
}


def _lower_rank_by_rank(main, p):
    """The lowering every rank's own concrete trace gives, or the type
    of the error it raises."""
    try:
        stream = phasec_mod._trace_every_rank(main, p, None)
        return PhaseProgram(p, phasec_mod._assemble(stream, p))
    except (LowerFallback, ConfigError) as exc:
        return type(exc)


@pytest.mark.parametrize("peers", _PEERS.values(), ids=_PEERS.keys())
@pytest.mark.parametrize("p", (2, 12))
def test_symbolic_rank_lowers_as_every_rank_does(peers, p):
    main = partial(_peer_main, *peers)
    try:
        got = lower(main, p)
    except (LowerFallback, ConfigError) as exc:
        got = type(exc)
    assert got == _lower_rank_by_rank(main, p)


# ------------------------------------------- the trace communicator's ops


class _Peer(enum.IntEnum):
    ONE = 1
    THREE = 3


def _drive(gen):
    """Run one traced op to its return value; it must yield nothing."""
    try:
        cmd = next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError(f"a traced op yielded {cmd!r}")


def _traced(call):
    """What ``call`` does on a fresh rank-2-of-8 trace communicator: its
    stream, isend count and result, or its refusal's type and message."""
    comm = phasec_mod._TraceComm(2, 8, host_fabric())
    try:
        out = _drive(call(comm))
    except (LowerFallback, ConfigError) as exc:
        return type(exc), str(exc)
    if isinstance(out, phasec_mod._TraceEnv):
        out = (out.source, out.dest, out.tag)
    return comm.stream, comm._n_isend, out


#: (dest, source, nbytes, tag) of every ``sendrecv`` parity case.
_SENDRECV_CASES = {
    "good": (3, 1, 64, 0),
    "good-tag-7": (0, 4, 0, 7),
    "int-subclass-peers": (_Peer.THREE, _Peer.ONE, 64, 0),
    "dest-out-of-range": (8, 1, 64, 0),
    "dest-negative": (-1, 1, 64, 0),
    "source-out-of-range": (3, 8, 64, 0),
    "both-out-of-range": (8, -1, 64, 0),
    "bool-dest": (True, 1, 64, 0),
    "bool-source": (3, True, 64, 0),
    "bool-nbytes": (3, 1, True, 0),
    "bool-tag": (3, 1, 64, False),
    "float-dest": (3.0, 1, 64, 0),
    "str-source": (3, "1", 64, 0),
    "opaque-dest": (phasec_mod._OPAQUE, 1, 64, 0),
    "float-nbytes": (3, 1, 64.0, 0),
    "none-tag": (3, 1, 64, None),
    "negative-nbytes": (3, 1, -1, 0),
    "negative-nbytes-bad-source": (3, 9, -1, 0),
    "wildcard-source": (3, None, 64, 0),
}


@pytest.mark.parametrize("args", _SENDRECV_CASES.values(),
                         ids=_SENDRECV_CASES.keys())
def test_trace_sendrecv_matches_the_shared_sendrecv(args):
    fast = _traced(lambda comm: comm.sendrecv(*args))
    shared = _traced(lambda comm: RankComm.sendrecv(comm, *args))
    assert fast == shared


def test_trace_sendrecv_checks_dest_before_source():
    assert _traced(lambda comm: comm.sendrecv(8, -1, 64)) == (
        ConfigError, "peer rank 8 out of range (size 8)")
    assert _traced(lambda comm: comm.sendrecv(3, -1, 64)) == (
        ConfigError, "peer rank -1 out of range (size 8)")


@pytest.mark.parametrize(
    "seconds, expected",
    (
        (1, [("compute", 1.0)]),
        (2.5e-6, [("compute", 2.5e-6)]),
        (True, "non-constant compute time"),
        (phasec_mod._OPAQUE, "non-constant compute time"),
        ("1e-6", "non-constant compute time"),
        (-1e-6, "negative compute time"),
        (-1, "negative compute time"),
    ),
)
def test_trace_compute_records_or_refuses(seconds, expected):
    out = _traced(lambda comm: comm.compute(seconds))
    if isinstance(expected, str):
        assert out == (LowerFallback, expected)
    else:
        assert out == (expected, 0, None)
        assert type(out[0][0][1]) is float


def test_trace_compute_takes_numpy_floats_as_floats():
    np = pytest.importorskip("numpy")
    stream, _, _ = _traced(lambda comm: comm.compute(np.float64(2e-6)))
    assert stream == [("compute", 2e-6)] and type(stream[0][1]) is float


@pytest.mark.parametrize(
    "call, expected",
    (
        (lambda c: c.allreduce(1.0, nbytes=8), [("coll", "allreduce", 8, 0)]),
        (lambda c: c.bcast(1.0, root=5, nbytes=0), [("coll", "bcast", 0, 5)]),
        (lambda c: c.reduce(1.0, root=_Peer.THREE),
         [("coll", "reduce", 8, 3)]),
        (lambda c: c.allreduce(1.0, nbytes=8.0), "non-constant collective size"),
        (lambda c: c.allreduce(1.0, nbytes=True), "non-constant collective size"),
        (lambda c: c.barrier(deadline=1.0), "deadline-bounded collective"),
        (lambda c: c.gather(1.0, nbytes=-8), "negative collective size"),
        (lambda c: c.bcast(1.0, root=True), "non-constant collective root"),
    ),
)
def test_trace_collective_records_or_refuses(call, expected):
    out = _traced(call)
    if isinstance(expected, str):
        assert out == (LowerFallback, expected)
    else:
        assert out[:2] == (expected, 0)


def test_trace_collective_refuses_numpy_int_sizes_and_roots():
    np = pytest.importorskip("numpy")
    assert _traced(lambda c: c.allreduce(1.0, nbytes=np.int64(8))) == (
        LowerFallback, "non-constant collective size")
    assert _traced(lambda c: c.bcast(1.0, root=np.int64(2))) == (
        LowerFallback, "non-constant collective root")


def _explicit_halo_main(nbytes, iters, comm):
    """:func:`_halo_main` with each ``sendrecv`` spelled out as the
    shared ``isend`` + ``recv`` + ``wait``."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for _ in range(iters):
        req = comm.isend(right, nbytes, 0)
        yield from comm.recv(left, 0)
        yield from req.wait()
        req = comm.isend(left, nbytes, 0)
        yield from comm.recv(right, 0)
        yield from req.wait()
        yield from comm.compute(1e-7)
        yield from comm.allreduce(0.0, nbytes=8)
    return comm.rank


@pytest.mark.parametrize("p", (8, 128, 65536))
def test_explicit_isend_recv_wait_lowers_like_sendrecv(p):
    fabric = host_fabric()
    explicit = lower(partial(_explicit_halo_main, 4096, 3), p, fabric=fabric)
    assert explicit == lower(partial(_halo_main, 4096, 3), p, fabric=fabric)
    assert explicit.phases[0] == Phase(kind="shift", offset=1, nbytes=4096)


# ------------------------------------------------- list-valued collectives

#: sha256 of the JSON ``to_dict()`` of every :func:`_shape_programs`
#: program, taken when lowering still built a P-element list of opaque
#: values for each allgather, alltoall and gather result.
SHAPE_DIGEST = "1c83ffaa78fd0a7dc446c43530c3849c3bc8d1c6fb4332ef0dcbc1b145992913"


def _shape_programs():
    """Ring shift + compute + each collective, and halo, at three P."""
    for p in (128, 1000, 65536):
        for kind in _SHAPE_COLLS + ("halo",):
            for nbytes in (64, 1 << 20):
                main = (partial(_halo_main, nbytes, 3) if kind == "halo"
                        else partial(_shift_coll_main, kind, nbytes, 3))
                yield lower(main, p, fabric=host_fabric()).to_dict()


def test_perfsuite_shaped_programs_lower_unchanged():
    blob = json.dumps(list(_shape_programs()), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SHAPE_DIGEST


@pytest.mark.parametrize("p", (128, 200))
def test_list_results_read_like_lists_lower_exactly(p):
    for fabric in (host_fabric(), phi_fabric(2)):
        program = lower(_allgather_list_main, p, fabric=fabric)
        assert [ph.kind for ph in program.phases] == ["coll", "compute", "coll"]
        assert program.phases[1].seconds == 1e-9 * p
        assert program.phases[2].nbytes == 16  # 8 * len(out[1:3])
        assert price(program, fabric) == replay(p, fabric, _allgather_list_main).elapsed


@pytest.mark.parametrize(
    "main",
    (_allgather_append_main, _allgather_compare_main, _allgather_truth_main),
)
def test_list_result_observation_refuses_and_replays(main):
    with pytest.raises(LowerFallback):
        lower(main, 16, fabric=host_fabric())
    st = CompileStats()
    res = compiled_mpiexec(16, host_fabric(), main, stats=st, vector=True)
    assert st.path == "replay" and st.reason.startswith("lower:"), st.reason
    des = mpiexec(16, host_fabric(), main)
    assert res.elapsed == des.elapsed
    assert res.returns == des.returns


def test_opaque_list_contract():
    out = phasec_mod._OpaqueList(5)
    assert len(out) == 5 and len(out[1:3]) == 2 and len(out[::-1]) == 5
    assert out[0] is out[-1] is phasec_mod._OPAQUE
    assert list(out) == [phasec_mod._OPAQUE] * 5 == list(reversed(out))
    with pytest.raises(IndexError):
        out[5]
    for use in (
        lambda: out.append(1), lambda: out.sort(), lambda: out.copy(),
        lambda: out.__setitem__(0, 1), lambda: out.__delitem__(0),
        lambda: out == [], lambda: out < [], lambda: bool(out),
        lambda: 1 in out, lambda: hash(out), lambda: out + [],
        lambda: [] + out, lambda: out * 2, lambda: 2 * out,
    ):
        with pytest.raises(LowerFallback):
            use()
    # Dunders a list lacks stay absent, so protocols fall through.
    assert not hasattr(out, "__array__")
    with pytest.raises(TypeError):
        float(out)


def test_lowering_allocates_nothing_per_rank():
    """A P-element list per collective result is 8 MiB at P=2**20."""
    main = partial(_shift_coll_main, "allgather", 64, 3)
    lower(main, 8)  # warm the static-veto memo
    tracemalloc.start()
    try:
        lower(main, 1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


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
    staticcheck._profile_code.cache_clear()
    for _ in range(2):  # the memoized verdict still refuses
        with pytest.raises(LowerFallback, match="rank-dependent"):
            lower(_rank_branch_main, 8, fabric=host_fabric())
    lower(partial(_halo_main, 64, 1), 8, fabric=host_fabric())
    lower(partial(_halo_main, 4096, 2), 8, fabric=host_fabric())
    info = staticcheck._profile_code.cache_info()
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


@_passthrough
def _wrapped_wildcard_main(comm):
    yield from comm.recv()


def test_profile_sees_through_decorators():
    """Mains sharing a decorator's code are each profiled from their own
    source, for the compile veto as for the lowering."""
    plain = staticcheck.rank_program_profile(_wrapped_barrier_main)
    branchy = staticcheck.rank_program_profile(_wrapped_rank_branch_main)
    wild = staticcheck.rank_program_profile(_wrapped_wildcard_main)
    assert (plain.rank_dependent_flow, branchy.rank_dependent_flow) == (
        False, True)
    assert plain.veto_reasons() == branchy.veto_reasons() == []
    assert wild.veto_reasons() == ["wildcard-source recv"]


_FRESH_SRC = """\
def _fresh_main(nbytes, comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.sendrecv(right, left, nbytes=nbytes)
    yield from comm.allreduce(0.0, nbytes=8)
"""


def test_one_parse_per_rank_program(monkeypatch):
    """The compile veto and the lowering share one reading of the
    source: one parse for a fresh code object, none for a second
    partial of the same function."""
    import ast
    import linecache
    import uuid

    name = f"<fresh-{uuid.uuid4().hex}>"
    ns = {}
    exec(compile(_FRESH_SRC, name, "exec"), ns)
    linecache.cache[name] = (
        len(_FRESH_SRC), None, _FRESH_SRC.splitlines(True), name
    )
    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(args)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    try:
        st = CompileStats()
        compiled_mpiexec(128, host_fabric(), partial(ns["_fresh_main"], 64),
                         stats=st, vector=True)
        assert st.path == "vector", st.reason
        assert len(parses) == 1
        st = CompileStats()
        compiled_mpiexec(128, host_fabric(),
                         partial(ns["_fresh_main"], 4096), stats=st,
                         vector=True)
        assert st.path == "vector", st.reason
        assert len(parses) == 1
    finally:
        del linecache.cache[name]


class _CallableMain:
    """A rank main with no ``__code__`` of its own: never memoized."""

    def __call__(self, comm):
        yield from comm.barrier()


def test_static_veto_scans_callables_without_code_every_time():
    staticcheck._profile_code.cache_clear()
    for _ in range(2):
        with pytest.raises(LowerFallback, match="source unavailable"):
            lower(_CallableMain(), 8, fabric=host_fabric())
    assert staticcheck._profile_code.cache_info().currsize == 0
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
    # Traced P=256 with vector=True prices on the vector path, which
    # emits the traced replay's spans from its clock record.
    tracer = Tracer()
    st = CompileStats()
    res = compiled_mpiexec(256, host_fabric(), main, stats=st, vector=True,
                           tracer=tracer)
    assert st.path == "vector", (st.path, st.reason)
    assert len(tracer) > 0
    assert res.elapsed == compiled_mpiexec(256, host_fabric(), main).elapsed


# ------------------------------------------------------- backend equivalence


def test_scalar_price_matches_replay_and_stepped():
    for fabric in (host_fabric(), phi_fabric(2)):
        for nbytes in (256, 1 << 20):  # eager and rendezvous regimes
            main = partial(_halo_main, nbytes, 2)
            program = lower(main, 13, fabric=fabric)
            elapsed = _on_lists(price, program, fabric)
            rep = replay(13, fabric, main)
            des = mpiexec(13, fabric, main)
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
            vec = clocks(program, fabric)
            scal = _on_lists(clocks, program, fabric)
            tag = f"P={p} nbytes={nbytes} iters={iters}"
            assert len(vec) == len(scal) == p
            for v, s in zip(vec, scal):
                assert _rel(v, s) <= TOL, tag
            assert _rel(
                price(program, fabric),
                replay(p, fabric, main).elapsed,
            ) <= TOL, tag


# ---------------------------------------------------------------- routing


def test_vector_path_lazy_returns_match_stepped():
    main = partial(_halo_main, 4096, 2)
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, stats=st, vector=True)
    assert st.path == "vector"
    assert st.phases > 0 and st.replay_ops > 0
    assert st.engine_steps == 0
    assert res.mode == "vector"
    des = mpiexec(8, host_fabric(), main)
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


def test_lowering_refusal_is_named():
    st = CompileStats()
    compiled_mpiexec(128, host_fabric(), _payload_branch_main, stats=st,
                     vector=True)
    assert st.path == "replay"
    assert st.reason.startswith("lower:"), st.reason


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
    des = mpiexec(8, host_fabric(), _star_main)
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


def _stepped(n_ranks, fabric, main, **kw):
    """The oracle: ``MpiJob(...).run()``, asserting that its engine stepped."""
    job = MpiJob(n_ranks, fabric, **kw)
    job.launch(main)
    res = job.run()
    assert job.engine.timeline() > 0
    return res


def test_compiled_mpiexec_routes_vector_and_replays():
    main = partial(_halo_main, 4096, 1)
    ref = _stepped(8, host_fabric(), main)
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, stats=st, vector=True)
    assert st.path == "vector"
    assert res.mode == "vector" and st.engine_steps == 0
    assert _rel(res.elapsed, ref.elapsed) <= TOL
    assert res.returns == ref.returns  # materialized lazily
    # Below VECTOR_MIN_RANKS the default job replays, with the stepped
    # run's returns.
    st = CompileStats()
    res = compiled_mpiexec(8, host_fabric(), main, stats=st)
    assert st.path == "replay", st.reason
    assert res.elapsed == _stepped(8, host_fabric(), main).elapsed
    assert res.returns == ref.returns
