"""Analytic collective fast path vs the stepped DES algorithms.

The fast path (:mod:`repro.mpi.fastpath`) resolves a collective's
per-rank finish times from the closed max-plus schedules in
:mod:`repro.mpi.collectives` instead of stepping every message through
the engine.  These tests gate the contract: on a uniform fabric the
fast-path job time matches the full discrete-event run to 1e-9 relative
error (it is float-exact in practice) with bit-identical payloads, and
non-uniform (resolver) fabrics refuse the fast path.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.errors import ConfigError
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.runtime import MpiJob, mpiexec

KINDS = ("bcast", "reduce", "allreduce", "allgather", "alltoall", "barrier")
SIZES = (3, 4, 7, 13, 16, 64)  # odd P covers the fold, Bruck and shift paths
TOL = 1e-9


def _fabric(name: str):
    return host_fabric() if name == "host" else phi_fabric(2)


def _collective_main(kind: str, nbytes: int, skew: float, comm):
    if skew:
        from repro.simcore import Timeout

        yield Timeout(comm.rank * skew)
    if kind == "bcast":
        return (yield from comm.bcast(
            "payload" if comm.rank == 0 else None, nbytes=nbytes
        ))
    if kind == "allreduce":
        return (yield from comm.allreduce(comm.rank + 1, nbytes=nbytes))
    if kind == "allgather":
        return (yield from comm.allgather(comm.rank, nbytes=nbytes))
    if kind == "alltoall":
        values = [comm.rank * comm.size + d for d in range(comm.size)]
        return (yield from comm.alltoall(values, nbytes=nbytes))
    if kind == "reduce":
        return (yield from comm.reduce(comm.rank + 1, nbytes=nbytes))
    if kind == "barrier":
        yield from comm.barrier()
        return comm.rank
    raise AssertionError(kind)


def _run(kind, fabric, p, nbytes, fast, skew=0.0):
    return mpiexec(
        p, fabric, partial(_collective_main, kind, nbytes, skew),
        fast_collectives=fast,
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fabric_name", ("host", "phi"))
@pytest.mark.parametrize("p", SIZES)
def test_fast_path_matches_des(kind, fabric_name, p):
    """Fast-path elapsed time within 1e-9 of DES, payloads identical."""
    for nbytes in (256, 512 * 1024):  # eager and rendezvous regimes
        fast = _run(kind, _fabric(fabric_name), p, nbytes, fast=True)
        des = _run(kind, _fabric(fabric_name), p, nbytes, fast=False)
        assert fast.returns == des.returns
        rel = abs(fast.elapsed - des.elapsed) / des.elapsed
        assert rel <= TOL, (
            f"{kind} P={p} {fabric_name} nbytes={nbytes}: "
            f"fast {fast.elapsed!r} vs DES {des.elapsed!r} (rel {rel:.2e})"
        )


@pytest.mark.parametrize("kind", ("allreduce", "allgather", "alltoall", "barrier"))
def test_fast_path_matches_des_with_skewed_arrivals(kind):
    """Ranks entering at staggered times still agree with the DES run."""
    for p in (16, 13):
        fast = _run(kind, _fabric("host"), p, 4096, fast=True, skew=1e-6)
        des = _run(kind, _fabric("host"), p, 4096, fast=False, skew=1e-6)
        assert fast.returns == des.returns
        assert abs(fast.elapsed - des.elapsed) / des.elapsed <= TOL, p


def test_allreduce_float_payloads_bit_identical():
    """Reduction order is replayed, so float sums match bit for bit."""

    def main(comm):
        value = 0.1 * (comm.rank + 1)
        total = yield from comm.allreduce(value, nbytes=8)
        return total

    for p in (5, 12, 16):
        fast = mpiexec(p, host_fabric(), main, fast_collectives=True)
        des = mpiexec(p, host_fabric(), main, fast_collectives=False)
        assert fast.returns == des.returns  # exact equality, not approx


def test_reduce_root_result_bit_identical():
    """Reduce replays the binomial combine order, so the root's float
    accumulation matches the DES result bit for bit — and only the root
    holds a value."""

    def main(comm):
        value = 0.1 * (comm.rank + 1)
        total = yield from comm.reduce(value, root=1, nbytes=8)
        return total

    for p in (5, 12, 16):
        fast = mpiexec(p, host_fabric(), main, fast_collectives=True)
        des = mpiexec(p, host_fabric(), main, fast_collectives=False)
        assert fast.returns == des.returns  # exact equality, not approx
        assert fast.returns[1] is not None
        assert all(r is None for i, r in enumerate(fast.returns) if i != 1)


def _slow_rank_resolver():
    """A per-rank-pair fabric: rank 0's links are 10x slower."""
    slow = phi_fabric(4)
    quick = host_fabric()

    def resolver(src: int, dst: int):
        return slow if 0 in (src, dst) else quick

    return resolver


def test_non_uniform_fabric_refuses_fast_path():
    with pytest.raises(ConfigError):
        MpiJob(8, _slow_rank_resolver(), fast_collectives=True)


def test_non_uniform_fabric_defaults_to_stepped_algorithms():
    """fast_collectives=None on a resolver fabric silently uses full DES."""
    job = MpiJob(8, _slow_rank_resolver())
    assert job.fast is None
    job.launch(partial(_collective_main, "allreduce", 1024, 0.0))
    result = job.run()
    assert result.returns == [sum(range(1, 9))] * 8


def test_mismatched_collectives_raise_instead_of_deadlocking():
    def main(comm):
        if comm.rank == 0:
            return (yield from comm.allreduce(1, nbytes=8))
        return (yield from comm.allreduce(1, nbytes=16))

    with pytest.raises(ConfigError, match="mismatched collective"):
        mpiexec(4, host_fabric(), main, fast_collectives=True)


def test_mismatch_fails_blocked_ranks_no_secondary_hang():
    """A mismatch must fail the already-arrived (parked) ranks too, so
    the engine doesn't then report a bogus deadlock among them."""

    def main(comm):
        if comm.rank == comm.size - 1:
            return (yield from comm.allreduce(1, nbytes=16))
        return (yield from comm.allreduce(1, nbytes=8))

    job = MpiJob(4, host_fabric(), fast_collectives=True)
    job.launch(main)
    with pytest.raises(ConfigError, match="mismatched collective"):
        job.run()
    # Every parked rank was failed with the same ConfigError, so a
    # continued run finds no live-but-stuck processes to misdiagnose.
    assert all(p.failure is not None for p in job._procs[:3])
    job.run()


def test_fast_path_disabled_under_tracer():
    """An active tracer steps every message so spans stay complete."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    job = MpiJob(4, host_fabric(), tracer=tracer)
    assert job.fast is not None  # uniform job builds the fast state...
    comm = job.communicator(0)
    assert not comm._use_fast()  # ...but traced communicators bypass it


def test_scale_p4096_allreduce_fast_path():
    """The headline scaling point: P=4096 allreduce resolves sub-second."""
    import time

    def main(comm):
        total = yield from comm.allreduce(comm.rank, nbytes=65536)
        return total

    p = 4096
    t0 = time.perf_counter()
    result = mpiexec(p, phi_fabric(2), main)
    wall = time.perf_counter() - t0
    expected = p * (p - 1) // 2
    assert all(r == expected for r in result.returns)
    assert result.elapsed > 0
    assert wall < 30.0, f"P=4096 fast-path allreduce took {wall:.1f}s"
