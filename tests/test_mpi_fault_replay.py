"""Static fault plans and ``fast_collectives=False`` jobs on the replay.

Under a fault plan, or with ``fast_collectives=False``, the stepped
engine runs the collective algorithms of
:data:`~repro.mpi.collectives.ALGORITHMS` over point-to-point messages.
:func:`~repro.mpi.compile.compiled_mpiexec` prices such a job on the
max-plus replay by running the same algorithms over the replay's
clocks, when the plan is *static*: no rank crash, and every link and
straggler fault active over ``[0, inf)``.  Three contracts are gated
here:

* **Exactness** — every kind, on P in {1, 2, 3, 5, 8, 13, 16, 33}, at
  sizes on both sides of the fabric's eager limit and of
  ``LARGE_MESSAGE_SWITCH``: elapsed and returns equal the stepped run's,
  and an error (the alltoall OOM under memory pressure) has the same
  type and message.
* **job_fastpath** — ``MpiJob.run(compiled=True)`` still steps a
  faulted job, naming why (the other refusals are gated in
  ``tests/test_mpi_compile.py``).
* **The halo campaign** — its points price compiled and equal the
  stepped run under the demo crash plan, its relaxed retry and no plan.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.campaign.experiments import _halo_main, demo_plan, halo_point, halo_points
from repro.core.software import POST_UPDATE
from repro.faults import (
    FaultPlan,
    LinkDegradation,
    MemoryPressure,
    Straggler,
    pre_update_plan,
)
from repro.mpi.collectives import ALGORITHMS, LARGE_MESSAGE_SWITCH
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.protocols import PciePathFabric
from repro.mpi.runtime import MpiJob, mpiexec

FABRICS = {"host": host_fabric, "phi": lambda: phi_fabric(2)}

RANKS = (1, 2, 3, 5, 8, 13, 16, 33)

KINDS = tuple(sorted(ALGORITHMS))


def _sizes(fabric) -> tuple:
    """Both sides of the fabric's eager limit and of the bcast switch."""
    return (64, LARGE_MESSAGE_SWITCH, LARGE_MESSAGE_SWITCH + 1,
            fabric.eager_max, fabric.eager_max + 1)


#: name -> (fault plan factory, fast_collectives)
MODES = {
    "link+straggler": (lambda: FaultPlan([
        LinkDegradation(latency_factor=2.3, bandwidth_factor=0.45),
        Straggler(rank=1, slowdown=2.7),
        Straggler(rank=1, slowdown=1.5),
    ]), None),
    "memory-pressure": (lambda: FaultPlan([
        MemoryPressure(capacity_factor=0.01),
    ]), None),
    "fast-collectives-off": (lambda: None, False),
}


def _program(kind, nbytes, root, comm):
    """Ring sendrecv, rank-skewed compute, one ``kind`` collective."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    env = yield from comm.sendrecv(right, left, nbytes=nbytes,
                                   payload=comm.rank)
    yield from comm.compute(1e-7 * (comm.rank % 3))
    root %= comm.size
    if kind == "barrier":
        out = yield from comm.barrier()
    elif kind == "bcast":
        out = yield from comm.bcast(comm.rank, root=root, nbytes=nbytes)
    elif kind == "reduce":
        out = yield from comm.reduce(comm.rank, root=root, nbytes=nbytes)
    elif kind == "allreduce":
        out = yield from comm.allreduce(comm.rank, nbytes=nbytes)
    elif kind == "allgather":
        out = yield from comm.allgather(comm.rank, nbytes=nbytes)
    elif kind == "alltoall":
        out = yield from comm.alltoall(
            [100 * comm.rank + i for i in range(comm.size)], nbytes=nbytes
        )
    elif kind == "gather":
        out = yield from comm.gather(comm.rank, root=root, nbytes=nbytes)
    else:
        values = list(range(comm.size)) if comm.rank == root else None
        out = yield from comm.scatter(values, root=root, nbytes=nbytes)
    return (env.payload, out)


def _outcome(run):
    """(elapsed, returns) of ``run()``, or the (type, message) it raised."""
    try:
        res = run()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc))
    return (res.elapsed, res.returns)


def _assert_exact(p, make_fabric, main, make_plan, fast_collectives):
    ref = _outcome(lambda: mpiexec(p, make_fabric(), main,
                                   fault_plan=make_plan(),
                                   fast_collectives=fast_collectives))
    st = CompileStats()
    got = _outcome(lambda: compiled_mpiexec(p, make_fabric(), main,
                                            fault_plan=make_plan(),
                                            fast_collectives=fast_collectives,
                                            stats=st))
    assert got == ref, (p, st)
    if not isinstance(ref[0], type):
        assert st.path == "replay", (p, st)
    return ref


@pytest.mark.parametrize("fabric_name", sorted(FABRICS))
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("kind", KINDS)
def test_static_plan_replay_is_exact(kind, mode, fabric_name):
    make_fabric = FABRICS[fabric_name]
    make_plan, fast_collectives = MODES[mode]
    errors = 0
    for p in RANKS:
        for nbytes in _sizes(make_fabric()):
            ref = _assert_exact(p, make_fabric,
                                partial(_program, kind, nbytes, 3),
                                make_plan, fast_collectives)
            errors += isinstance(ref[0], type)
    if mode == "memory-pressure" and kind == "alltoall":
        assert 0 < errors < len(RANKS) * 5  # both outcomes are exercised
    else:
        assert errors == 0


@pytest.mark.parametrize("path", ("host-phi0", "phi0-phi1"))
@pytest.mark.parametrize("kind", KINDS)
def test_pre_update_plan_replays_exactly(kind, path):
    """The paper's pre-update stack, a static plan, on its PCIe paths."""
    def make_fabric():
        return PciePathFabric(path, POST_UPDATE)

    for p in RANKS:
        for nbytes in _sizes(make_fabric()):
            _assert_exact(p, make_fabric, partial(_program, kind, nbytes, 1),
                          pre_update_plan, None)


def _iterated(kind, nbytes, iters, skew, comm):
    got = None
    for _ in range(iters):
        got = yield from _program(kind, nbytes, iters, comm)
        yield from comm.compute(skew * (comm.rank % 5))
    return got


def test_seeded_link_straggler_jobs_are_exact():
    """Random jobs in the shape of a benchmark's faulted stream."""
    rng = random.Random(0xFA17)
    for _ in range(24):
        kind = rng.choice(KINDS)
        p = rng.randrange(2, 40)
        nbytes = rng.choice((64, 4096, 32 * 1024, 64 * 1024 + 1, 1 << 20))
        lf, bwf = rng.uniform(1.5, 3.0), rng.uniform(0.3, 0.8)
        straggler, slowdown = rng.randrange(p), rng.uniform(1.5, 4.0)

        def plan():
            return FaultPlan([
                LinkDegradation(latency_factor=lf, bandwidth_factor=bwf),
                Straggler(rank=straggler, slowdown=slowdown),
            ])

        main = partial(_iterated, kind, nbytes, rng.randrange(1, 4),
                       rng.choice((0.0, 1e-6)))
        _assert_exact(p, rng.choice(list(FABRICS.values())), main, plan, None)


# -------------------------------------------------------------- job_fastpath


def test_job_fastpath_needs_job_fast():
    st = CompileStats()
    job = MpiJob(8, host_fabric(),
                 fault_plan=FaultPlan([Straggler(rank=1, slowdown=2.0)]))
    job.launch(partial(_program, "allreduce", 4096, 0))
    res = job.run(compiled=True, stats=st)
    assert st.path == "stepped"
    assert "job.fast" in st.reason
    assert res.completed


# ------------------------------------------------------------ halo campaign


@pytest.mark.parametrize("fabric_name,tpc", [("host", 3), ("phi", 1),
                                             ("phi", 4)])
def test_halo_points_equal_stepped(fabric_name, tpc):
    fabric = host_fabric() if fabric_name == "host" else phi_fabric(tpc)
    outcomes = set()
    for point in halo_points(quick=True):
        ranks, nbytes = point
        for plan in (None, demo_plan("halo"), demo_plan("halo").relaxed(1)):
            ref = _outcome(lambda: mpiexec(ranks, fabric,
                                           partial(_halo_main, nbytes),
                                           fault_plan=plan,
                                           fast_collectives=False))
            try:
                got = halo_point(fabric_name, tpc, point, plan).time
            except Exception as exc:  # noqa: BLE001 - compared below
                assert (type(exc), str(exc)) == ref, (point, plan)
                outcomes.add("error")
            else:
                assert got == ref[0], (point, plan)
                outcomes.add("ok")
    assert outcomes == {"ok", "error"}  # the crash kills some points
