"""Distributed NPB kernels running on the *simulated* MPI runtime.

These are real algorithms with real data: EP's per-rank blocks use the
LCG jump-ahead exactly as NPB's MPI version does, and CG runs a
row-partitioned conjugate gradient whose vectors travel through the
simulated collectives.  Results verify against the official NPB
reference values while the simulated clock prices the communication on
whichever fabric the job runs — the same program is measurably slower on
the Phi fabric at 4 ranks/core than on host shared memory, which is
Figure 20's mechanism in executable form.

Usage::

    from repro.mpi import mpiexec, host_fabric
    from repro.npb.mpi_versions import ep_mpi, cg_mpi

    res = mpiexec(4, host_fabric(), lambda comm: ep_mpi(comm, "S"))
    res.returns[0]["verified"]   # True — official EP sums reproduced
    res.elapsed                  # simulated communication+compute time
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Generator, Optional

import numpy as np

from repro.errors import ConfigError
from repro.mpi.api import Communicator
from repro.npb import cg as cg_serial
from repro.npb import ep as ep_serial
from repro.npb.common import CG_SIZES, problem_class, verify_close

#: Simulated seconds of compute charged per unit of real work.  ``None``
#: charges nothing (pure communication study); a callable maps
#: (flops) -> seconds for the hosting device.
ComputeModel = Optional[Callable[[float], float]]


# ==========================================================================
# EP — embarrassingly parallel, block-decomposed via LCG jump-ahead
# ==========================================================================


def ep_mpi(
    comm: Communicator,
    problem: str = "S",
    compute_model: ComputeModel = None,
) -> Generator:
    """Distributed EP: each rank generates its block, sums reduce to all.

    Returns a dict with the combined (sx, sy), the per-bin counts, and
    ``verified`` against the official NPB sums (checked on every rank —
    allreduce hands everyone the totals).
    """
    problem = problem_class(problem)
    part = ep_serial.run(problem, rank=comm.rank, n_ranks=comm.size)
    if compute_model is not None:
        yield from comm.compute(compute_model(part.mops * 1e6 * part.wall_seconds))

    with comm.phase("reduce"):
        sx = yield from comm.allreduce(part.details["sx"], nbytes=8)
        sy = yield from comm.allreduce(part.details["sy"], nbytes=8)
        counts = np.array([part.details[f"count_{i}"] for i in range(10)])
        total_counts = yield from comm.allreduce(counts, op=np.add, nbytes=80)

    ref_sx, ref_sy = ep_serial.REFERENCE[problem]
    verified = verify_close(sx, ref_sx, ep_serial.EPSILON, "sx") and verify_close(
        sy, ref_sy, ep_serial.EPSILON, "sy"
    )
    return {
        "sx": sx,
        "sy": sy,
        "counts": total_counts,
        "verified": verified,
    }


# ==========================================================================
# CG — row-partitioned conjugate gradient
# ==========================================================================


def _row_range(n: int, rank: int, size: int):
    base, extra = divmod(n, size)
    start = rank * base + min(rank, extra)
    stop = start + base + (1 if rank < extra else 0)
    return start, stop


def _assemble(parts) -> np.ndarray:
    return np.concatenate(parts)


def cg_mpi(
    comm: Communicator,
    problem: str = "S",
    matrix=None,
    compute_model: ComputeModel = None,
) -> Generator:
    """Distributed NPB CG: rows of A partitioned across ranks.

    Every matvec allgathers the direction vector; every dot product
    allreduces the local partials — the NPB CG communication pattern.
    The returned ζ verifies against the official reference on all ranks.

    ``matrix`` may be passed in (the launcher passes it so the job's
    fingerprint covers its contents); by default every rank shares the
    process-wide :func:`repro.npb.cg.make_matrix` build.
    """
    problem = problem_class(problem)
    n, _nonzer, niter, shift = CG_SIZES[problem]
    a = matrix if matrix is not None else cg_serial.make_matrix(problem)
    start, stop = _row_range(n, comm.rank, comm.size)
    a_rows = a[start:stop]
    local_n = stop - start
    # MPI_Allgather takes one count on every rank, so the uneven blocks
    # of _row_range (P not dividing n) travel padded to the largest.
    vec_bytes = 8 * -(-n // comm.size)

    def matvec(p_local: np.ndarray) -> Generator:
        parts = yield from comm.allgather(p_local, nbytes=vec_bytes)
        p_full = _assemble(parts)
        if compute_model is not None:
            yield from comm.compute(compute_model(2.0 * a_rows.nnz))
        return a_rows @ p_full

    def dot(u: np.ndarray, v: np.ndarray) -> Generator:
        total = yield from comm.allreduce(float(u @ v), nbytes=8)
        return total

    def conj_grad(x_local: np.ndarray) -> Generator:
        z = np.zeros_like(x_local)
        r = x_local.copy()
        p = r.copy()
        rho = yield from dot(r, r)
        for _ in range(cg_serial.CG_INNER_ITERS):
            q = yield from matvec(p)
            pq = yield from dot(p, q)
            alpha = rho / pq
            z += alpha * p
            r -= alpha * q
            rho0, rho = rho, (yield from dot(r, r))
            beta = rho / rho0
            p = r + beta * p
        return z

    x_local = np.ones(local_n)
    # Warm-up iteration, then reset (per the NPB spec).
    with comm.phase("warmup"):
        z = yield from conj_grad(x_local)
        zz = yield from dot(z, z)
    x_local = z / np.sqrt(zz)

    x_local = np.ones(local_n)
    zeta = 0.0
    for it in range(niter):
        with comm.phase(f"iter{it}"):
            z = yield from conj_grad(x_local)
            xz = yield from dot(x_local, z)
            zz = yield from dot(z, z)
        zeta = shift + 1.0 / xz
        x_local = z / np.sqrt(zz)

    verified = verify_close(
        zeta, cg_serial.REFERENCE[problem], cg_serial.EPSILON, "zeta"
    )
    return {"zeta": zeta, "verified": verified, "rows": (start, stop)}


# ==========================================================================
# FT — slab-decomposed 3D FFT with an Alltoall transpose
# ==========================================================================


def ft_mpi(
    comm: Communicator,
    problem: str = "S",
    compute_model: ComputeModel = None,
) -> Generator:
    """Distributed NPB FT: z-slab decomposition, Alltoall transposes.

    The classic parallel 3D FFT: 2D FFTs over each rank's (y, x) planes,
    a global transpose moving the z dimension local (one MPI_Alltoall of
    real NumPy blocks per direction), then 1D FFTs along z.  Per-iteration
    checksums reduce over all ranks and verify against the official NPB
    values — so the simulated Alltoall provably moved the right bytes.

    Requires nz and nx divisible by the rank count.
    """
    from repro.npb import ft as ft_serial

    problem = problem_class(problem)
    (nx, ny, nz), niter = ft_serial.FT_SIZES[problem]
    p = comm.size
    if nz % p or nx % p:
        raise ConfigError(f"FT needs nz and nx divisible by {p}")
    zloc = nz // p
    xloc = nx // p
    total = nx * ny * nz
    block_bytes = 16 * zloc * ny * xloc  # complex128 transpose blocks

    # Each rank's slab of the initial conditions (z planes are contiguous
    # in the NPB random sequence, so slabs slice the serial field).
    full0 = ft_serial.initial_conditions(nx, ny, nz)  # (z, y, x)
    my_slab = full0[comm.rank * zloc : (comm.rank + 1) * zloc].copy()
    del full0

    def transpose_zx(slab: np.ndarray) -> Generator:
        """(zloc, ny, nx) -> (xloc, ny, nz): Alltoall of x-blocks."""
        blocks = [
            np.ascontiguousarray(slab[:, :, j * xloc : (j + 1) * xloc])
            for j in range(p)
        ]
        received = yield from comm.alltoall(blocks, nbytes=block_bytes)
        # received[j] is rank j's z-planes of our x-range: stack over z.
        out = np.concatenate(received, axis=0)  # (nz, ny, xloc)
        return np.ascontiguousarray(out.transpose(2, 1, 0))  # (xloc, ny, nz)

    def transpose_xz(tr: np.ndarray) -> Generator:
        """(xloc, ny, nz) -> (zloc, ny, nx): the inverse Alltoall."""
        blocks = [
            np.ascontiguousarray(
                tr[:, :, j * zloc : (j + 1) * zloc].transpose(2, 1, 0)
            )
            for j in range(p)
        ]
        received = yield from comm.alltoall(blocks, nbytes=block_bytes)
        return np.concatenate(received, axis=2)  # (zloc, ny, nx)

    # Forward 3D FFT: local 2D over (y, x), transpose, local 1D over z.
    with comm.phase("fft-forward"):
        slab = np.fft.fft2(my_slab, axes=(1, 2))
        tr = yield from transpose_zx(slab)
        tr = np.fft.fft(tr, axis=2)
        if compute_model is not None:
            yield from comm.compute(compute_model(5.0 * total / p * np.log2(total)))

    # Twiddle factors for our transposed block (x-local layout).
    def bar(n: int) -> np.ndarray:
        i = np.arange(n)
        return (i + n // 2) % n - n // 2

    kx = bar(nx)[comm.rank * xloc : (comm.rank + 1) * xloc][:, None, None].astype(float)
    ky = bar(ny)[None, :, None].astype(float)
    kz = bar(nz)[None, None, :].astype(float)
    twiddle = np.exp(-4.0 * ft_serial.ALPHA * np.pi**2 * (kx**2 + ky**2 + kz**2))

    # Checksum index sets, per the spec, filtered to our z-slab.
    j = np.arange(1, ft_serial.CHECKSUM_POINTS + 1)
    q, r, s = j % nx, (3 * j) % ny, (5 * j) % nz
    mine = (s // zloc) == comm.rank

    checksums = []
    u0 = tr
    for it in range(niter):
        with comm.phase(f"iter{it}"):
            u0 = u0 * twiddle
            # Inverse: 1D over z, transpose back, 2D over (y, x); NPB's
            # inverse is unnormalized, so multiply the 1/N factors back out.
            w = np.fft.ifft(u0, axis=2) * nz
            slab_back = yield from transpose_xz(w)
            u2 = np.fft.ifft2(slab_back, axes=(1, 2)) * (nx * ny)
            local = complex(
                u2[s[mine] - comm.rank * zloc, r[mine], q[mine]].sum() / total
            )
            chk = yield from comm.allreduce(local, nbytes=16)
        checksums.append(chk)

    verified = True
    ref = ft_serial.REFERENCE.get(problem)
    if ref is not None:
        for got, (re_ref, im_ref) in zip(checksums, ref):
            if (
                abs((got.real - re_ref) / re_ref) > 1e-10
                or abs((got.imag - im_ref) / im_ref) > 1e-10
            ):
                verified = False
                break
    return {"checksums": checksums, "verified": verified}


# ==========================================================================
# IS — bucket sort with an Alltoall key redistribution
# ==========================================================================


def is_mpi(comm: Communicator, problem: str = "S") -> Generator:
    """Distributed NPB IS: local histogram, Alltoall redistribution by
    bucket range, local ranking; verified by global sortedness across the
    rank boundaries (each rank checks its neighbour's fence value)."""
    from repro.npb.common import IS_SIZES
    from repro.npb.is_ import create_seq

    problem = problem_class(problem)
    total, max_key = IS_SIZES[problem]
    p = comm.size
    keys = create_seq(problem)
    per = total // p
    start = comm.rank * per
    stop = total if comm.rank == p - 1 else start + per
    local = keys[start:stop]

    # Bucket ranges: equal key-space slices.
    bucket_width = -(-max_key // p)  # ceil
    dest = np.minimum(local // bucket_width, p - 1)
    outgoing = [local[dest == d] for d in range(p)]
    with comm.phase("redistribute"):
        received = yield from comm.alltoall(
            outgoing, nbytes=int(np.mean([o.nbytes for o in outgoing])) or 1
        )
    mine = np.sort(np.concatenate(received)) if received else np.array([], int)

    # Global sortedness: locally sorted, and my largest key must not
    # exceed my right neighbour's smallest (fence exchange around the
    # ring; the wrap pair is excluded).
    my_max = int(mine.max()) if mine.size else -1
    my_min = int(mine.min()) if mine.size else max_key + 1
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    env = yield from comm.sendrecv(left, right, nbytes=8, payload=my_min)
    right_min = env.payload  # my right neighbour's minimum
    sorted_ok = bool(np.all(np.diff(mine) >= 0)) if mine.size else True
    boundary_ok = comm.rank == p - 1 or my_max <= right_min
    count = yield from comm.allreduce(int(mine.size), nbytes=8)
    return {
        "verified": sorted_ok and boundary_ok and count == total,
        "local_count": int(mine.size),
    }


def cg_main(n_ranks: int, problem: str = "S") -> partial:
    """The CG rank main for ``n_ranks`` ranks, bound to the shared matrix.

    A :func:`functools.partial`, not a lambda, so a job fingerprint
    covers the problem class and the matrix contents.  Raises
    :class:`ConfigError` unless ``n_ranks`` is a power of two.
    """
    if n_ranks & (n_ranks - 1):
        raise ConfigError("CG requires a power-of-two rank count")
    return partial(cg_mpi, problem=problem, matrix=cg_serial.make_matrix(problem))


def run_cg_mpi(
    n_ranks: int,
    fabric,
    problem: str = "S",
    compiled: bool = False,
    cache=None,
    stats=None,
):
    """Convenience launcher: build the matrix once, run, return JobResult.

    ``compiled=True`` routes through
    :func:`repro.mpi.compile.compiled_mpiexec`: the job replays on the
    analytic max-plus schedules (falling back to the stepped engine
    transparently) and, given an :class:`~repro.perf.cache.EvalCache` as
    ``cache``, memoizes whole runs keyed by (program, matrix, fabric,
    size); the rank main is :func:`cg_main`'s.
    """
    main = cg_main(n_ranks, problem)
    if compiled:
        from repro.mpi.compile import compiled_mpiexec

        return compiled_mpiexec(n_ranks, fabric, main, cache=cache, stats=stats)
    from repro.mpi.runtime import mpiexec

    return mpiexec(n_ranks, fabric, main)


def run_ep_mpi(
    n_ranks: int,
    fabric,
    problem: str = "S",
    compiled: bool = False,
    cache=None,
    stats=None,
):
    """Convenience launcher for the distributed EP (see :func:`run_cg_mpi`
    for the ``compiled``/``cache``/``stats`` contract)."""
    main = partial(ep_mpi, problem=problem)
    if compiled:
        from repro.mpi.compile import compiled_mpiexec

        return compiled_mpiexec(n_ranks, fabric, main, cache=cache, stats=stats)
    from repro.mpi.runtime import mpiexec

    return mpiexec(n_ranks, fabric, main)
