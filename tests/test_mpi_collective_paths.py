"""Every pricing path of a collective job agrees with the stepped engine.

A job with collectives prices on four paths: the stepped engine (the
reference, which walks every collective's
:data:`~repro.mpi.collectives.ALGORITHMS` entry hop by hop), the
max-plus replay, vector phase pricing and a warm memo hit.  The three
compiled paths price a collective with its
:data:`~repro.mpi.collectives.SCHEDULES` entry.  Two contracts are
gated here:

* **Path agreement** — a Hypothesis property over small rank programs
  (a ring ``sendrecv``, a rank-skewed ``compute``, then one collective
  with a random root, repeated) on P in {1, 2, 3, 5, 8, 13, 16}, with
  sizes on both sides of each fabric's eager limit and of
  ``LARGE_MESSAGE_SWITCH``.  Returns are equal on every path, and
  elapsed is equal bit for bit, against a reference that asserts it
  stepped.  Every program that lowers also emits its trace from its
  clock record (:func:`~repro.mpi.compile.emit_trace`), at any P, and
  those bytes are the traced replay's.
* **One root check** — an out-of-range root raises the same
  :class:`~repro.errors.ConfigError` on every path a job can take.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mpi.collectives import LARGE_MESSAGE_SWITCH, SCHEDULES
from repro.mpi.compile import (
    CompileStats,
    _ReplayJob,
    compiled_mpiexec,
    emit_trace,
)
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.phasec import lower, record
from repro.mpi.runtime import MpiJob, mpiexec
from repro.obs import trace_digest
from repro.obs.tracer import Tracer
from repro.perf.cache import EvalCache
from repro.simcore import Engine

FABRICS = {"host": host_fabric, "phi": lambda: phi_fabric(2)}

RANKS = (1, 2, 3, 5, 8, 13, 16)

#: Both sides of each fabric's eager limit and of the bcast switch.
SIZES = tuple(sorted(
    {8}
    | {
        edge + d
        for edge in (host_fabric().eager_max, phi_fabric(2).eager_max,
                     LARGE_MESSAGE_SWITCH)
        for d in (0, 1)
    }
))

#: Simulated seconds a rank computes per unit of ``rank % 3``.
SKEWS = (0.0, 1e-7, 1e-5)


def _program(kind, nbytes, skew, root, iters, comm):
    """Ring sendrecv, skewed compute, one ``kind`` collective; ``iters``
    times.  A zero skew keeps the program phase-uniform, so it lowers."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    got = 0
    out = None
    for _ in range(iters):
        env = yield from comm.sendrecv(right, left, nbytes=nbytes,
                                       payload=comm.rank)
        got = got + env.payload
        yield from comm.compute(skew * (comm.rank % 3))
        if kind == "barrier":
            yield from comm.barrier()
        elif kind == "bcast":
            out = yield from comm.bcast(comm.rank, root=root, nbytes=nbytes)
        elif kind == "reduce":
            out = yield from comm.reduce(comm.rank, root=root, nbytes=nbytes)
        elif kind == "allreduce":
            out = yield from comm.allreduce(comm.rank, nbytes=nbytes)
        elif kind == "allgather":
            out = yield from comm.allgather(comm.rank, nbytes=nbytes)
        elif kind == "alltoall":
            out = yield from comm.alltoall(list(range(comm.size)),
                                           nbytes=nbytes)
        elif kind == "gather":
            out = yield from comm.gather(comm.rank, root=root, nbytes=nbytes)
        elif kind == "scatter":
            out = yield from comm.scatter(list(range(comm.size)), root=root,
                                          nbytes=nbytes)
        else:
            raise ValueError(kind)
    return got, out


def _bad_root(kind, root, comm):
    value = list(range(comm.size)) if kind == "scatter" else comm.rank
    return (yield from getattr(comm, kind)(value, root=root))


#: Every way a P=4 job can run, each by its public entry point.
ROOT_PATHS = {
    "stepped": lambda main: mpiexec(4, host_fabric(), main),
    "resolver": lambda main: mpiexec(4, lambda src, dst: host_fabric(), main),
    "traced": lambda main: mpiexec(4, host_fabric(), main, tracer=Tracer()),
    "compiled": lambda main: compiled_mpiexec(4, host_fabric(), main),
    "compiled-vector": lambda main: compiled_mpiexec(4, host_fabric(), main,
                                                     vector=True),
}


@pytest.mark.parametrize("path", sorted(ROOT_PATHS))
@pytest.mark.parametrize("root", (-1, 4))
@pytest.mark.parametrize("kind", ("bcast", "reduce", "gather", "scatter"))
def test_out_of_range_root_raises_on_every_path(kind, root, path):
    with pytest.raises(ConfigError, match=f"peer rank {root} out of range"):
        ROOT_PATHS[path](partial(_bad_root, kind, root))


@settings(max_examples=120, deadline=None)
# Shrunk counterexamples from when the compiled paths held gather and
# scatter ranks to the last arrival.
@example(fabric_name="host", p=8, kind="gather", nbytes=8, skew=1e-7,
         root=1, iters=3)
@example(fabric_name="host", p=16, kind="gather", nbytes=8, skew=0.0,
         root=0, iters=3)
@example(fabric_name="host", p=2, kind="scatter", nbytes=8, skew=1e-5,
         root=0, iters=2)
@given(
    fabric_name=st.sampled_from(sorted(FABRICS)),
    p=st.sampled_from(RANKS),
    kind=st.sampled_from(sorted(SCHEDULES)),
    nbytes=st.sampled_from(SIZES),
    skew=st.sampled_from(SKEWS),
    root=st.integers(0, max(RANKS) - 1),
    iters=st.integers(1, 3),
)
def test_every_path_agrees_with_stepped(fabric_name, p, kind, nbytes, skew,
                                        root, iters):
    root %= p
    make = FABRICS[fabric_name]
    main = partial(_program, kind, nbytes, skew, root, iters)
    case = (fabric_name, p, kind, nbytes, skew, root, iters)
    engine = Engine()
    job = MpiJob(p, make(), engine=engine)
    job.launch(main)
    ref = job.run()
    assert p == 1 or engine.timeline() > 0, case  # the reference stepped

    st_replay = CompileStats()
    rep = compiled_mpiexec(p, make(), main, vector=False, stats=st_replay)
    assert st_replay.path == "replay", (case, st_replay.reason)

    cache, st_vec, st_memo = EvalCache(), CompileStats(), CompileStats()
    vec = compiled_mpiexec(p, make(), main, vector=True, cache=cache,
                           stats=st_vec)
    lowers = p > 1 and skew == 0.0
    assert st_vec.path == ("vector" if lowers else "replay"), case
    memo = compiled_mpiexec(p, make(), main, vector=True, cache=cache,
                            stats=st_memo)
    assert st_memo.path == "memo", case

    for res in (rep, vec, memo):
        assert res.returns == ref.returns, case
    assert vec.elapsed == memo.elapsed == rep.elapsed == ref.elapsed, case

    if lowers:
        emitted, replayed = Tracer(), Tracer()
        emit_trace(record(lower(main, p, make(), traced=True), make()),
                   emitted)
        _ReplayJob(p, make(), tracer=replayed).run(main)
        assert trace_digest(emitted) == trace_digest(replayed), case
        assert emitted.comm_matrix() == replayed.comm_matrix(), case
        assert len(emitted) == len(replayed), case
