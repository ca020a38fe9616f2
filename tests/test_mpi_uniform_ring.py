"""The ring allgather under uniform arrivals: fast path equals stepped.

Large-block allgather and large-message bcast end in ``P - 1`` ring
shifts.  When every rank enters the ring at the same instant, each shift
adds the same per-round cost to every clock, and the schedule takes a
shortcut: it iterates that one scalar instead of the whole vector.  The
stepped algorithm adds the cost once per round, so the shortcut must too;
the product ``(P - 1) * cost`` rounds differently and used to leave the
schedule a few ulps off the stepped run on about a third of this grid.

Each job calls one collective at time zero, so the arrivals are uniform
(and the large bcast's scatter ends uniform at power-of-two P on a
rendezvous chunk).  The fast path, :func:`compiled_mpiexec`'s replay,
resolves it on the schedule, ``mpiexec`` steps the algorithm message by
message; elapsed and returns must be equal.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.mpi.collectives import ALLGATHER_RING_SWITCH, LARGE_MESSAGE_SWITCH
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.runtime import mpiexec

FABRICS = {"host": host_fabric, "phi": lambda: phi_fabric(2)}

RANKS = (2, 3, 4, 5, 8, 13, 16, 32, 64)

#: Sizes past each kind's switch to the ring.
SIZES = {
    "allgather": (ALLGATHER_RING_SWITCH + 1, 64 * 1024, 300000),
    "bcast": (LARGE_MESSAGE_SWITCH + 1, 300000, 1 << 20),
}


def _one_collective(kind, nbytes, comm):
    if kind == "bcast":
        return (yield from comm.bcast(comm.rank, root=0, nbytes=nbytes))
    return (yield from comm.allgather(comm.rank, nbytes=nbytes))


@pytest.mark.parametrize("fabric_name", sorted(FABRICS))
@pytest.mark.parametrize("kind", sorted(SIZES))
def test_uniform_ring_fast_path_equals_stepped(kind, fabric_name):
    make_fabric = FABRICS[fabric_name]
    for p in RANKS:
        for nbytes in SIZES[kind]:
            main = partial(_one_collective, kind, nbytes)
            st = CompileStats()
            rep = compiled_mpiexec(p, make_fabric(), main, vector=False,
                                   stats=st)
            assert st.path == "replay", st.reason
            stepped = mpiexec(p, make_fabric(), main)
            assert (rep.elapsed, rep.returns) == (
                stepped.elapsed, stepped.returns
            ), (p, nbytes, rep.elapsed.hex(), stepped.elapsed.hex())
