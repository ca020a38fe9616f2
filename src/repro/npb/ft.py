"""NPB FT — spectral solution of a 3D heat-diffusion equation.

Forms a random complex field from the NPB LCG, takes its forward 3D FFT
once, then each iteration multiplies by the evolution factor
``exp(−4απ²|k̄|²)`` (cumulatively) and inverse-transforms, accumulating
the 1024-point checksum the spec defines.  NPB's inverse transform is
unnormalized, so the NumPy ``ifftn`` result is scaled back by N.

This is the benchmark that **cannot run on the Phi at all** in the
paper's MPI experiments: Class C needs ≥10 GB and a card has 8 GB
(Section 6.8.2) — the characterization layer models exactly that.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.npb.common import FT_SIZES, NpbResult, problem_class
from repro.npb.randdp import ranlc_array

ALPHA = 1.0e-6
SEED = 314159265
EPSILON = 1.0e-12
CHECKSUM_POINTS = 1024

#: Official NPB 3.3 class S reference checksums (real, imag) per iteration.
REFERENCE: Dict[str, List[Tuple[float, float]]] = {
    "S": [
        (5.546087004964e02, 4.845363331978e02),
        (5.546385409189e02, 4.865304269511e02),
        (5.546148406171e02, 4.883910722336e02),
        (5.545423607415e02, 4.901273169046e02),
        (5.544255039624e02, 4.917475857993e02),
        (5.542683411902e02, 4.932597244941e02),
    ],
    "W": [
        (5.673612178944e02, 5.293246849175e02),
        (5.631436885271e02, 5.282149986629e02),
        (5.594024089970e02, 5.270996558037e02),
        (5.560698047020e02, 5.260027904925e02),
        (5.530898991250e02, 5.249400845633e02),
        (5.504159734538e02, 5.239212247086e02),
    ],
    "A": [
        (5.046735008193e02, 5.114047905510e02),
        (5.059412319734e02, 5.098809666433e02),
        (5.069376896287e02, 5.098144042213e02),
        (5.077892868474e02, 5.101336130759e02),
        (5.085233095391e02, 5.104914655194e02),
        (5.091487099959e02, 5.107917842803e02),
    ],
}


def initial_conditions(nx: int, ny: int, nz: int) -> np.ndarray:
    """The NPB random complex field: one contiguous LCG sequence, x fastest."""
    total = nx * ny * nz
    seq = ranlc_array(2 * total, seed=SEED)
    field = seq[0::2] + 1j * seq[1::2]
    return field.reshape(nz, ny, nx)


def twiddle_factors(nx: int, ny: int, nz: int) -> np.ndarray:
    """exp(−4απ²(k̄x²+k̄y²+k̄z²)) with NPB's signed frequency mapping."""

    def bar(n: int) -> np.ndarray:
        i = np.arange(n)
        return (i + n // 2) % n - n // 2

    kx = bar(nx)[None, None, :].astype(float)
    ky = bar(ny)[None, :, None].astype(float)
    kz = bar(nz)[:, None, None].astype(float)
    ap = -4.0 * ALPHA * np.pi**2
    return np.exp(ap * (kx**2 + ky**2 + kz**2))


def checksum(u: np.ndarray, nx: int, ny: int, nz: int) -> complex:
    """The spec's 1024-point checksum, normalized by the volume."""
    j = np.arange(1, CHECKSUM_POINTS + 1)
    q = j % nx
    r = (3 * j) % ny
    s = (5 * j) % nz
    return complex(u[s, r, q].sum() / (nx * ny * nz))


def run(problem: str = "S") -> NpbResult:
    """Full FT benchmark with official checksum verification."""
    problem = problem_class(problem)
    (nx, ny, nz), niter = FT_SIZES[problem]
    total = nx * ny * nz

    t0 = time.perf_counter()
    u1 = initial_conditions(nx, ny, nz)
    twiddle = twiddle_factors(nx, ny, nz)
    u0 = np.fft.fftn(u1)
    checksums: List[complex] = []
    for _ in range(niter):
        u0 *= twiddle
        u2 = np.fft.ifftn(u0) * total  # NPB's inverse is unnormalized
        checksums.append(checksum(u2, nx, ny, nz))
    wall = time.perf_counter() - t0

    verified = True
    ref = REFERENCE.get(problem)
    if ref is not None:
        for got, (re_ref, im_ref) in zip(checksums, ref):
            err_r = abs((got.real - re_ref) / re_ref)
            err_i = abs((got.imag - im_ref) / im_ref)
            if err_r > EPSILON or err_i > EPSILON:
                verified = False
                break
    else:
        # No stored reference: verify the transform identity instead.
        roundtrip = np.fft.ifftn(np.fft.fftn(u1))
        verified = bool(np.allclose(roundtrip, u1, rtol=1e-10, atol=1e-12))

    # NPB's FT flop estimate.
    import math

    flops = total * (niter * (14.8157 + 7.19641 * math.log(total)))
    details = {}
    for i, c in enumerate(checksums):
        details[f"chk{i + 1}_re"] = c.real
        details[f"chk{i + 1}_im"] = c.imag
    return NpbResult("FT", problem, verified, flops / wall / 1e6, wall, details)

