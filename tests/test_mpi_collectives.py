"""Tests for MPI collectives: semantics (real payloads), the Figs 10–14
sweep's price against stepped jobs, and the alltoall memory model
(Fig 14's out-of-memory failure)."""

import operator
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.microbench.mpifuncs import MPI_BENCHMARKS, function_time
from repro.mpi import (
    Fabric,
    FabricParams,
    alltoall_memory_required,
    host_fabric,
    mpiexec,
    phi_fabric,
)
from repro.mpi.collectives import (
    ALLGATHER_RING_SWITCH,
    LARGE_MESSAGE_SWITCH,
    alltoall_fits,
    check_alltoall_memory,
)
from repro.units import GiB, KiB, MiB, US


def fabric() -> Fabric:
    return Fabric(
        FabricParams(name="t", latency=1 * US, pair_bandwidth=1e9, eager_max=8 * KiB)
    )


# ---------------------------------------------------------------- semantics


class TestCollectiveSemantics:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 13, 16])
    @pytest.mark.parametrize("root", [0, 1])
    def test_bcast_value_everywhere(self, p, root):
        if root >= p:
            pytest.skip("root out of range")

        def main(comm):
            value = "payload" if comm.rank == root else None
            got = yield from comm.bcast(value, root=root, nbytes=64)
            return got

        res = mpiexec(p, fabric(), main)
        assert res.returns == ["payload"] * p

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 11, 16])
    def test_reduce_sum_to_root(self, p):
        def main(comm):
            got = yield from comm.reduce(comm.rank + 1, root=0)
            return got

        res = mpiexec(p, fabric(), main)
        assert res.returns[0] == p * (p + 1) // 2
        assert all(r is None for r in res.returns[1:])

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20])
    def test_allreduce_sum_everywhere(self, p):
        def main(comm):
            got = yield from comm.allreduce(comm.rank + 1)
            return got

        res = mpiexec(p, fabric(), main)
        assert res.returns == [p * (p + 1) // 2] * p

    def test_allreduce_custom_op(self):
        def main(comm):
            got = yield from comm.allreduce(comm.rank + 1, op=operator.mul)
            return got

        res = mpiexec(5, fabric(), main)
        assert res.returns == [120] * 5

    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])  # recursive doubling (small)
    def test_allgather_small_pow2(self, p):
        def main(comm):
            got = yield from comm.allgather(comm.rank * 10, nbytes=128)
            return got

        res = mpiexec(p, fabric(), main)
        expected = [r * 10 for r in range(p)]
        assert res.returns == [expected] * p

    @pytest.mark.parametrize("p", [3, 5, 6, 7, 9, 12])  # ring (non-pow2)
    def test_allgather_ring_nonpow2(self, p):
        def main(comm):
            got = yield from comm.allgather(comm.rank * 10, nbytes=128)
            return got

        res = mpiexec(p, fabric(), main)
        expected = [r * 10 for r in range(p)]
        assert res.returns == [expected] * p

    def test_allgather_large_uses_ring_even_pow2(self):
        def main(comm):
            got = yield from comm.allgather(comm.rank, nbytes=ALLGATHER_RING_SWITCH * 2)
            return got

        res = mpiexec(8, fabric(), main)
        assert res.returns == [list(range(8))] * 8

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 8, 16])
    def test_alltoall_permutation(self, p):
        def main(comm):
            values = [f"{comm.rank}->{d}" for d in range(p)]
            got = yield from comm.alltoall(values, nbytes=64)
            return got

        res = mpiexec(p, fabric(), main)
        for r in range(p):
            assert res.returns[r] == [f"{s}->{r}" for s in range(p)]

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13])
    def test_gather_in_rank_order(self, p):
        def main(comm):
            got = yield from comm.gather(comm.rank**2, root=0)
            return got

        res = mpiexec(p, fabric(), main)
        assert res.returns[0] == [r**2 for r in range(p)]

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("root", [0, 1])
    def test_scatter_distributes(self, p, root):
        if root >= p:
            pytest.skip("root out of range")

        def main(comm):
            values = [f"block{i}" for i in range(p)] if comm.rank == root else None
            got = yield from comm.scatter(values, root=root)
            return got

        res = mpiexec(p, fabric(), main)
        assert res.returns == [f"block{r}" for r in range(p)]

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_bcast_any_root_property(self, p, root_seed):
        root = root_seed % p

        def main(comm):
            value = ("secret", root) if comm.rank == root else None
            got = yield from comm.bcast(value, root=root, nbytes=8)
            return got

        res = mpiexec(p, fabric(), main)
        assert res.returns == [("secret", root)] * p


# ------------------------------------------------- stepped jobs vs the sweep


def _function_main(kind: str, nbytes: int, comm):
    """One call of MPI function ``kind``, as the Figs 10–14 sweeps time it."""
    p = comm.size
    if kind == "sendrecv":
        right, left = (comm.rank + 1) % p, (comm.rank - 1) % p
        yield from comm.sendrecv(right, left, nbytes=nbytes)
    elif kind == "bcast":
        yield from comm.bcast("x" if comm.rank == 0 else None, nbytes=nbytes)
    elif kind == "allreduce":
        yield from comm.allreduce(1.0, nbytes=nbytes)
    elif kind == "allgather":
        yield from comm.allgather(comm.rank, nbytes=nbytes)
    else:
        yield from comm.alltoall(list(range(p)), nbytes=nbytes)


def _timing_sizes(kind: str, eager_max: int):
    """Sizes on both sides of the switches that shape ``kind``'s price:
    ``eager_max``, the large-message and the ring switch.  Alltoall stops
    at 4 KiB, the largest size that fits at 236 ranks."""
    if kind == "alltoall":
        return (8, ALLGATHER_RING_SWITCH + 1, 4 * KiB)
    if kind == "bcast":
        return (LARGE_MESSAGE_SWITCH, LARGE_MESSAGE_SWITCH + 1, eager_max + 1)
    if kind == "allgather":
        return (ALLGATHER_RING_SWITCH, ALLGATHER_RING_SWITCH + 1,
                eager_max + 1)
    return (8, eager_max, eager_max + 1)


def _assert_stepped_equals_sweep(kind: str, f, p: int, nbytes: int) -> None:
    """A one-call stepped job's ``elapsed`` is the sweep's point, bit for
    bit, with the fast path and with every collective's generator."""
    want = function_time(kind, f, p, nbytes)
    for fast in (True, False):
        main = partial(_function_main, kind, nbytes)
        sim = mpiexec(p, f, main, fast_collectives=fast).elapsed
        assert sim == want, (kind, f.name, p, nbytes, fast, sim, want)


class TestTimingConsistency:
    """The Figs 10–14 sweep prices each point with the schedule of the
    algorithm the stepped engine runs, so the two agree exactly.  With
    ``fast_collectives=False`` every collective steps its generator, so
    at 236 ranks (above the Phi's ``incast_capacity``) alltoall's
    messages go over the incast wire."""

    @pytest.mark.parametrize("nbytes", [8, 1 * KiB, 64 * KiB, 1 * MiB])
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_bcast(self, p, nbytes):
        _assert_stepped_equals_sweep("bcast", fabric(), p, nbytes)

    @pytest.mark.parametrize("nbytes", [8, 1 * KiB, 64 * KiB])
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_allreduce(self, p, nbytes):
        _assert_stepped_equals_sweep("allreduce", fabric(), p, nbytes)

    @pytest.mark.parametrize("nbytes", [8, 1 * KiB, 16 * KiB, 256 * KiB])
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_allgather(self, p, nbytes):
        _assert_stepped_equals_sweep("allgather", fabric(), p, nbytes)

    @pytest.mark.parametrize("nbytes", [8, 1 * KiB, 64 * KiB])
    @pytest.mark.parametrize("p", [4, 8])
    def test_alltoall(self, p, nbytes):
        _assert_stepped_equals_sweep("alltoall", fabric(), p, nbytes)

    def test_sendrecv_ring_model_is_exact(self):
        _assert_stepped_equals_sweep("sendrecv", fabric(), 8, 4 * KiB)

    @pytest.mark.parametrize("kind", MPI_BENCHMARKS)
    @pytest.mark.parametrize("tpc, p", [(0, 16), (1, 59), (4, 236)])
    def test_figure_points(self, tpc, p, kind):
        """The figures' own rank counts and fabrics."""
        f = phi_fabric(tpc) if tpc else host_fabric()
        for nbytes in _timing_sizes(kind, f.eager_max):
            _assert_stepped_equals_sweep(kind, f, p, nbytes)


# ----------------------------------------------------- sweep price structure


class TestCostModels:
    def test_allgather_jump_at_algorithm_switch(self):
        # Fig 13: the time jumps when recursive doubling gives way to ring.
        f = phi_fabric(1)
        p = 64
        below = function_time("allgather", f, p, ALLGATHER_RING_SWITCH)
        above = function_time("allgather", f, p, ALLGATHER_RING_SWITCH + 1)
        assert above > 1.5 * below  # discontinuous jump upward

    def test_collective_times_increase_with_ranks(self):
        f = host_fabric()
        for kind in MPI_BENCHMARKS:
            assert function_time(kind, f, 16, 1024) >= \
                function_time(kind, f, 4, 1024), kind

    def test_collective_times_increase_with_size(self):
        f = phi_fabric(2)
        for kind in MPI_BENCHMARKS:
            assert function_time(kind, f, 59, 1 * MiB) > \
                function_time(kind, f, 59, 1 * KiB), kind

    @given(
        st.integers(min_value=2, max_value=240),
        st.integers(min_value=1, max_value=1 << 22),
    )
    @settings(max_examples=50, deadline=None)
    def test_costs_positive_finite(self, p, nbytes):
        f = phi_fabric(3)
        for kind in MPI_BENCHMARKS:
            t = function_time(kind, f, p, nbytes)
            assert 0 < t < float("inf")


# ---------------------------------------------------- alltoall memory (Fig 14)


class TestAlltoallMemory:
    def test_236_ranks_fit_at_4kib_fail_at_8kib(self):
        # Section 6.4.5: 4 threads/core (236 ranks) ran only up to 4 KiB.
        assert alltoall_fits(236, 4 * KiB, 8 * GiB)
        assert not alltoall_fits(236, 8 * KiB, 8 * GiB)

    def test_59_ranks_run_much_larger(self):
        assert alltoall_fits(59, 256 * KiB, 8 * GiB)

    def test_check_raises_oom(self):
        with pytest.raises(OutOfMemoryError):
            check_alltoall_memory(236, 8 * KiB, 8 * GiB)
        check_alltoall_memory(236, 4 * KiB, 8 * GiB)  # no raise

    def test_host_never_fails_at_benchmark_sizes(self):
        # 16 ranks in 32 GiB: the paper's host runs all sizes to 4 MiB.
        assert alltoall_fits(16, 4 * MiB, 32 * GiB)

    @given(
        st.integers(min_value=1, max_value=240),
        st.integers(min_value=0, max_value=1 << 22),
    )
    @settings(max_examples=50, deadline=None)
    def test_memory_monotone(self, p, nbytes):
        m1 = alltoall_memory_required(p, nbytes)
        m2 = alltoall_memory_required(p, nbytes + 1)
        m3 = alltoall_memory_required(p + 1, nbytes)
        assert m2 >= m1
        assert m3 > m1
