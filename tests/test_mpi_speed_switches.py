"""Switches that change how a job is priced never change its answer.

An attached tracer, an armed verifier and a collective ``deadline``
each change how the stepped engine runs a collective (a span, the
verifier's ledgers, a bounded child process); ``compiled_mpiexec``
decides between the max-plus replay, vector phase pricing and a memo
hit.  None of them may change a job's elapsed time or returns.

The jobs here are the ones that used to tell the paths apart: 1–3
rounds of rank-skewed ``compute``, each followed by a binomial bcast or
a reduce, whose early subtrees and leaf senders can finish before the
last rank arrives.  They are seeded, at P ≤ 33, on the host and Phi
fabrics.  A job without compute skew lowers to phases, so the vector
path prices the skew its own collectives leave behind.  Every path must
agree with the default stepped run bit for bit.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.analyze import Verifier
from repro.mpi.collectives import LARGE_MESSAGE_SWITCH
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.runtime import mpiexec
from repro.obs.tracer import Tracer
from repro.perf.cache import EvalCache

FABRICS = {"host": host_fabric, "phi": lambda: phi_fabric(2)}

#: Jobs per fabric.
JOBS = 60

#: bcast sizes stay on the binomial tree; reduce also crosses both
#: fabrics' eager limits.
BCAST_SIZES = (8, 4096, LARGE_MESSAGE_SWITCH)
REDUCE_SIZES = BCAST_SIZES + (64 * 1024 + 1, 256 * 1024 + 1)


def _job(seed):
    """A seeded job: ``(p, rounds)``, each round ``(skews, kind, root,
    nbytes)`` with one compute time per rank."""
    rng = random.Random(seed)
    p = rng.randint(2, 33)
    flat = rng.random() < 0.25  # no compute skew: the job lowers
    rounds = []
    for _ in range(rng.randint(1, 3)):
        scale = rng.choice((1e-7, 1e-6, 1e-5))
        skews = tuple(0.0 if flat else scale * rng.random() for _ in range(p))
        kind = rng.choice(("bcast", "reduce"))
        nbytes = rng.choice(BCAST_SIZES if kind == "bcast" else REDUCE_SIZES)
        rounds.append((skews, kind, rng.randrange(p), nbytes))
    return p, tuple(rounds)


def _program(rounds, deadline, comm):
    out = None
    for skews, kind, root, nbytes in rounds:
        yield from comm.compute(skews[comm.rank])
        value = 0.1 * (comm.rank + 1) if out is None else out
        out = yield from getattr(comm, kind)(value, root=root, nbytes=nbytes,
                                             deadline=deadline)
    return out


@pytest.mark.parametrize("fabric_name", sorted(FABRICS))
@pytest.mark.parametrize("seed", range(JOBS))
def test_speed_switches_keep_the_answer(seed, fabric_name):
    make = FABRICS[fabric_name]
    p, rounds = _job(seed)
    main = partial(_program, rounds, None)
    ref = mpiexec(p, make(), main)

    verifier = Verifier()
    stepped = {
        "traced": mpiexec(p, make(), main, tracer=Tracer()),
        "verified": mpiexec(p, make(), main, verifier=verifier),
        "deadline": mpiexec(p, make(), partial(_program, rounds, 1.0)),
    }
    assert not verifier.finalize().issues

    st_replay, st_vec, st_memo = CompileStats(), CompileStats(), CompileStats()
    cache = EvalCache()
    compiled = {
        "replay": compiled_mpiexec(p, make(), main, vector=False,
                                   stats=st_replay),
        "vector": compiled_mpiexec(p, make(), main, vector=True, cache=cache,
                                   stats=st_vec),
        "memo": compiled_mpiexec(p, make(), main, vector=True, cache=cache,
                                 stats=st_memo),
    }
    flat = not any(any(skews) for skews, _, _, _ in rounds)
    assert st_replay.path == "replay", st_replay.reason
    assert st_vec.path == ("vector" if flat else "replay")
    assert st_memo.path == "memo"

    for name, res in {**stepped, **compiled}.items():
        assert (res.elapsed, res.returns) == (ref.elapsed, ref.returns), (
            name, seed, fabric_name, res.elapsed, ref.elapsed,
        )
