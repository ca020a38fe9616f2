"""NPB CG — conjugate gradient with the spec's random sparse matrix.

Estimates the smallest eigenvalue of a sparse symmetric positive-definite
matrix by inverse power iteration, each step solved with 25 unconditioned
CG iterations.  The matrix is NPB's ``makea`` construction

    A = Σ_i ω_i x_i x_iᵀ + (rcond − shift)·I,   ω_i = rcond^(i/n) decay,

with the sparse vectors ``x_i`` drawn from the exact NPB LCG (``sprnvc``
+ ``vecset``), so the final ζ matches the official verification values.

This is the benchmark the paper singles out for the Phi's weakness: the
sparse matvec's indirect addressing defeats the 512-bit vector unit —
"the gather-scatter instruction is not efficient on Phi" (Section 6.8.1).
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from repro.npb.common import CG_SIZES, NpbResult, problem_class, verify_close
from repro.npb.randdp import MOD, randlc

#: Official NPB 3.3 verification ζ per class.
REFERENCE: Dict[str, float] = {
    "S": 8.5971775078648,
    "W": 10.362595087124,
    "A": 17.130235054029,
    "B": 22.712745482631,
    "C": 28.973605592845,
}

EPSILON = 1.0e-10
RCOND = 0.1
CG_INNER_ITERS = 25
_AMULT = 5**13
_TRAN0 = 314159265


class _Lcg:
    """The threaded ``tran`` state of the Fortran code."""

    def __init__(self, state: int = _TRAN0):
        self.state = state

    def next(self) -> float:
        self.state = randlc(self.state, _AMULT)
        return self.state / MOD


def _sprnvc(rng: _Lcg, n: int, nz: int, nn1: int) -> Tuple[list, list]:
    """NPB sprnvc: nz distinct random (index, value) pairs."""
    values, indices = [], []
    marked = set()
    while len(values) < nz:
        vecelt = rng.next()
        vecloc = rng.next()
        i = int(vecloc * nn1) + 1
        if i > n or i in marked:
            continue
        marked.add(i)
        values.append(vecelt)
        indices.append(i)
    return values, indices


def _vecset(values: list, indices: list, i: int, val: float) -> None:
    """NPB vecset: force element ``i`` to ``val`` (append if absent)."""
    for k, idx in enumerate(indices):
        if idx == i:
            values[k] = val
            return
    indices.append(i)
    values.append(val)


def make_matrix(problem: str = "S") -> sp.csr_matrix:
    """NPB makea for one problem class (1-exact with the Fortran code).

    The matrix is deterministic, so it is built once per process and the
    same object is returned to every later caller.  Its ``data``,
    ``indices`` and ``indptr`` are read-only: writing to them raises
    ``ValueError`` rather than corrupting every later CG run.  Only the
    most recent class is kept, so a large class never stays pinned
    beside another.
    """
    return _cached_matrix(problem_class(problem))


@lru_cache(maxsize=1)
def _cached_matrix(problem: str) -> sp.csr_matrix:
    a = _build_matrix(problem)
    for arr in (a.data, a.indices, a.indptr):
        arr.flags.writeable = False
    return a


def _build_matrix(problem: str) -> sp.csr_matrix:
    n, nonzer, _niter, shift = CG_SIZES[problem]
    rng = _Lcg()
    rng.next()  # main consumes one value ("zeta = randlc(tran, amult)")
    nn1 = 1
    while nn1 < n:
        nn1 *= 2

    rows_vals, rows_idx = [], []
    for iouter in range(1, n + 1):
        values, indices = _sprnvc(rng, n, nonzer, nn1)
        _vecset(values, indices, iouter, 0.5)
        rows_vals.append(values)
        rows_idx.append(indices)

    # sparse(): A = Σ_i size_i · x_i x_iᵀ with geometric decay, plus
    # (rcond − shift)·I contributed at each (i, i).  Row i emits the
    # triplets (x_i[k1], x_i[k2]) in k1-major order with value
    # x_i[k2] · (size_i · x_i[k1]); the same order and association as
    # the Fortran loop keeps tocsr()'s duplicate sums bit-identical.
    lengths = np.array([len(v) for v in rows_vals])
    vals = np.fromiter(chain.from_iterable(rows_vals), float, int(lengths.sum()))
    idx = np.fromiter(chain.from_iterable(rows_idx), np.int64, vals.size) - 1
    outer = np.repeat(np.arange(n), lengths)  # iouter − 1 of each entry
    ratio = RCOND ** (1.0 / n)
    sizes = np.array(list(accumulate(repeat(ratio, n - 1), mul, initial=1.0)))
    scale = sizes[outer] * vals

    # Entry k1 pairs with every entry k2 of its own vector, k2 fastest.
    reps = lengths[outer]
    k1 = np.repeat(np.arange(vals.size), reps)
    run_start = np.repeat(np.cumsum(reps) - reps, reps)
    row_start = np.cumsum(lengths) - lengths
    k2 = row_start[outer[k1]] + np.arange(k1.size) - run_start
    coo_v = vals[k2] * scale[k1]
    coo_v[(k1 == k2) & (idx[k1] == outer[k1])] += RCOND - shift
    a = sp.coo_matrix((coo_v, (idx[k1], idx[k2])), shape=(n, n))
    return a.tocsr()


def conj_grad(a: sp.csr_matrix, x: np.ndarray) -> Tuple[np.ndarray, float]:
    """The NPB inner solver: 25 unpreconditioned CG iterations for Az = x."""
    z = np.zeros_like(x)
    r = x.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(CG_INNER_ITERS):
        q = a @ p
        alpha = rho / float(p @ q)
        z += alpha * p
        r -= alpha * q
        rho0, rho = rho, float(r @ r)
        beta = rho / rho0
        p = r + beta * p
    resid = x - a @ z
    return z, float(np.sqrt(resid @ resid))


def run(problem: str = "S") -> NpbResult:
    """Full CG benchmark: warm-up iteration, then ``niter`` timed power
    iterations; verification against the official ζ."""
    problem = problem_class(problem)
    n, nonzer, niter, shift = CG_SIZES[problem]
    a = make_matrix(problem)

    x = np.ones(n)
    # Untimed warm-up iteration (the spec's "one iteration to touch memory").
    z, _ = conj_grad(a, x)
    x = z / np.sqrt(z @ z)

    x = np.ones(n)
    zeta = 0.0
    rnorm = 0.0
    t0 = time.perf_counter()
    for _ in range(niter):
        z, rnorm = conj_grad(a, x)
        norm1 = float(x @ z)
        norm2 = 1.0 / float(np.sqrt(z @ z))
        zeta = shift + 1.0 / norm1
        x = norm2 * z
    wall = time.perf_counter() - t0

    verified = verify_close(zeta, REFERENCE[problem], EPSILON, "zeta")
    # NPB CG flop estimate per spec (approximate for the mops report).
    nnz = a.nnz
    flops = niter * (CG_INNER_ITERS * (2.0 * nnz + 10.0 * n) + 4.0 * n)
    return NpbResult(
        "CG",
        problem,
        verified,
        flops / wall / 1e6,
        wall,
        {"zeta": zeta, "rnorm": rnorm, "nnz": float(nnz)},
    )
