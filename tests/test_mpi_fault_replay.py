"""Static fault plans and ``fast_collectives=False`` jobs on the replay.

Under a fault plan, or with ``fast_collectives=False``, the stepped
engine runs the collective algorithms of
:data:`~repro.mpi.collectives.ALGORITHMS` over point-to-point messages.
:func:`~repro.mpi.compile.compiled_mpiexec` prices such a job on the
max-plus replay when the plan is *static*: no rank crash, and every link
and straggler fault active over ``[0, inf)``.  Each collective
occurrence resolves with one call to its
:data:`~repro.mpi.collectives.SCHEDULES` entry on the degraded fabric, whose
reductions run at each rank's straggler factor; no collective message is
replayed.  Four contracts are gated here:

* **Exactness** — every kind, on P in {1, 2, 3, 5, 8, 13, 16, 33}, at
  sizes on both sides of the fabric's eager limit and of
  ``LARGE_MESSAGE_SWITCH``: elapsed and returns equal the stepped run's,
  and an error (the alltoall OOM under memory pressure) has the same
  type and message.  So do stragglers placed where the reduction
  arithmetic runs (two at once, the reduce root, a folded rank of a
  non-power-of-two allreduce), P up to 127, and sizes across
  ``ALLGATHER_RING_SWITCH`` with uniform arrivals at the rings.
* **One op per occurrence** — ``CompileStats.replay_ops`` counts a
  collective-only job's occurrences, not its messages.
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
from repro.mpi.collectives import (
    ALGORITHMS,
    ALLGATHER_RING_SWITCH,
    LARGE_MESSAGE_SWITCH,
)
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


def _program(kind, nbytes, root, comm, skew=1e-7):
    """Ring sendrecv, rank-skewed compute, one ``kind`` collective.

    ``skew=0.0`` has every rank enter the collective at the same time.
    Each rank returns its clock after the collective too, so a rank that
    resumes anywhere but where the stepped engine resumes it shows.
    """
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    env = yield from comm.sendrecv(right, left, nbytes=nbytes,
                                   payload=comm.rank)
    yield from comm.compute(skew * (comm.rank % 3))
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
    return (env.payload, out, comm.now)


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


def _stragglers(*ranks_slowdowns):
    def plan():
        return FaultPlan([Straggler(rank=r, slowdown=f)
                          for r, f in ranks_slowdowns])
    return plan


@pytest.mark.parametrize("kind", ("reduce", "allreduce"))
def test_stragglers_on_the_reduction_arithmetic_are_exact(kind):
    """Stragglers where the reductions run: on the reduce root, on the
    even rank folded into its odd neighbour and on that odd rank (P =
    2^m + r with r > 0), and two on different ranks at once."""
    for p in (3, 5, 6, 7, 12, 13, 33, 100, 127):
        for root in (0, 2, p - 1):
            plans = (
                _stragglers((root, 3.1)),  # the reduce root
                _stragglers((2, 2.2)),  # folded even rank when p - 2^m > 1
                _stragglers((1, 1.7)),  # its odd partner, a fold-in reducer
                _stragglers((root, 1.9), ((root + 1) % p, 2.6)),
                _stragglers((p - 1, 2.4), (p // 2, 1.3)),
            )
            for plan in plans:
                for nbytes in (64, 4096):
                    _assert_exact(p, host_fabric,
                                  partial(_program, kind, nbytes, root),
                                  plan, None)


#: MODES plus two stragglers on different ranks.
LARGE_P_MODES = dict(MODES, **{"two-stragglers": (
    _stragglers((0, 2.5), (7, 1.4)), None
)})


@pytest.mark.parametrize("mode", sorted(LARGE_P_MODES))
@pytest.mark.parametrize("kind", KINDS)
def test_large_p_across_the_ring_switch_is_exact(kind, mode):
    """P up to 127 at sizes across ``ALLGATHER_RING_SWITCH``; the ring
    kinds (allgather, large bcast) also with uniform arrivals."""
    make_plan, fast_collectives = LARGE_P_MODES[mode]
    sizes = (ALLGATHER_RING_SWITCH, ALLGATHER_RING_SWITCH + 1)
    skews = (1e-7,)
    if kind in ("allgather", "bcast"):
        skews += (0.0,)
        if kind == "bcast":
            sizes += (LARGE_MESSAGE_SWITCH + 1,)
    for p in (64, 100, 127):
        for nbytes in sizes:
            for skew in skews:
                _assert_exact(p, FABRICS["phi"],
                              partial(_program, kind, nbytes, 5, skew=skew),
                              make_plan, fast_collectives)


def _collectives_only(kind, count, comm):
    out = None
    for i in range(count):
        root = i % comm.size
        if kind == "barrier":
            out = yield from comm.barrier()
        elif kind == "alltoall":
            out = yield from comm.alltoall(list(range(comm.size)), nbytes=64)
        elif kind == "scatter":
            values = list(range(comm.size)) if comm.rank == root else None
            out = yield from comm.scatter(values, root=root, nbytes=64)
        elif kind in ("allreduce", "allgather"):
            out = yield from getattr(comm, kind)(comm.rank, nbytes=64)
        else:
            out = yield from getattr(comm, kind)(comm.rank, root=root,
                                                 nbytes=64)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_replay_ops_count_occurrences_not_messages(kind):
    """A collective occurrence is one replay op: no message inside it is
    replayed, whatever the plan or collective mode."""
    for make_plan, fast_collectives in LARGE_P_MODES.values():
        st = CompileStats()
        res = compiled_mpiexec(13, host_fabric(),
                               partial(_collectives_only, kind, 3),
                               fault_plan=make_plan(),
                               fast_collectives=fast_collectives, stats=st)
        assert res.completed
        assert (st.path, st.replay_ops) == ("replay", 3), st


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
