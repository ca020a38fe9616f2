"""Every pricing path of a collective job agrees with the stepped engine.

A job with collectives prices on four paths: the stepped engine (the
reference), the max-plus replay, vector phase pricing and a warm memo
hit.  Every path prices a collective with its
:data:`~repro.mpi.collectives.SCHEDULES` entry.  Three contracts are
gated here:

* **The fast kinds** — :func:`~repro.mpi.fastpath.takes_fast_path`
  admits exactly the collectives the stepped Communicator hands to
  :class:`~repro.mpi.fastpath.FastCollectives`: the
  :data:`~repro.mpi.fastpath.FAST_KINDS` and bcast above
  ``LARGE_MESSAGE_SWITCH``, whose schedules finish no rank before the
  last arrival.  Binomial bcast, reduce, gather and scatter step.
* **Path agreement** — a Hypothesis property over small rank programs
  (a ring ``sendrecv``, a rank-skewed ``compute``, then one collective
  with a random root, repeated) on P in {1, 2, 3, 5, 8, 13, 16}, with
  sizes on both sides of each fabric's eager limit and of
  ``LARGE_MESSAGE_SWITCH``.  Returns are equal on every path.  The
  compiled paths agree with each other bit for bit.  Against the
  stepped engine, collectives that step agree bit for bit and those
  that take the fast path to 1e-12: a stepped fast-path rank resumes
  after a delay of ``finish - now``, which can round the finish by an
  ulp.
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
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.fastpath import FAST_KINDS, FastCollectives, takes_fast_path
from repro.mpi.runtime import mpiexec
from repro.obs.tracer import Tracer
from repro.perf.cache import EvalCache

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


def _all_eight(comm):
    """One call of each collective."""
    values = list(range(comm.size))
    yield from comm.barrier()
    yield from comm.bcast(1, root=1)
    yield from comm.reduce(comm.rank, root=2)
    yield from comm.allreduce(comm.rank)
    yield from comm.allgather(comm.rank)
    yield from comm.alltoall(values)
    yield from comm.gather(comm.rank, root=3)
    return (yield from comm.scatter(values, root=1))


def _large_bcast(comm):
    return (yield from comm.bcast(comm.rank, root=2,
                                  nbytes=LARGE_MESSAGE_SWITCH + 1))


def test_fast_kinds_are_the_stepped_fast_path(monkeypatch):
    seen = set()
    run = FastCollectives.run

    def spy(self, comm, seq, kind, value, nbytes, *args, **kwargs):
        assert takes_fast_path(kind, nbytes), (kind, nbytes)
        seen.add(kind)
        return run(self, comm, seq, kind, value, nbytes, *args, **kwargs)

    monkeypatch.setattr(FastCollectives, "run", spy)
    res = mpiexec(4, host_fabric(), _all_eight)
    assert res.returns == [0, 1, 2, 3]
    assert seen == FAST_KINDS
    seen.clear()
    res = mpiexec(4, host_fabric(), _large_bcast)
    assert res.returns == [2] * 4
    assert seen == {"bcast"}


def _bad_root(kind, root, comm):
    value = list(range(comm.size)) if kind == "scatter" else comm.rank
    return (yield from getattr(comm, kind)(value, root=root))


#: Every way a P=4 job can run, each by its public entry point.
ROOT_PATHS = {
    "stepped": lambda main: mpiexec(4, host_fabric(), main),
    "stepped-nofast": lambda main: mpiexec(4, host_fabric(), main,
                                           fast_collectives=False),
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
# scatter ranks to the last arrival, as the fast kinds are held.
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
    ref = mpiexec(p, make(), main)

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
    assert vec.elapsed == memo.elapsed == rep.elapsed, case
    if p > 1 and takes_fast_path(kind, nbytes):
        assert abs(rep.elapsed - ref.elapsed) <= 1e-12 * ref.elapsed, case
    else:
        assert rep.elapsed == ref.elapsed, case
