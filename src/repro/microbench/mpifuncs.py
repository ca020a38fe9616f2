"""Intra-device MPI function benchmarks (Section 6.4, Figures 10–14).

Sweeps each MPI function over message sizes on:

* the host — 16 ranks over shared memory;
* Phi0 — 59·k ranks at k = 1..4 ranks per core.

Each point is the simulated MPI's own price: the slowest rank's finish
time from the collective's schedule
(:func:`repro.mpi.fastpath.finish_times`) with every rank entering at
once, which is what a one-collective ``mpiexec`` job reports as its
``elapsed``.  Sendrecv is one ring shift.  The Alltoall sweep honours
the 8 GB card memory, returning ``None`` beyond the failure point (the
paper could only run it to 4 KiB at 236 ranks).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.mpi.collectives import _wire, alltoall_fits, shift_step
from repro.mpi.fabrics import Fabric, host_fabric, phi_fabric
from repro.mpi.fastpath import finish_times
from repro.units import GiB, MiB

#: The swept MPI functions, in figure order (Figs 10–14).
MPI_BENCHMARKS = ("sendrecv", "bcast", "allreduce", "allgather", "alltoall")

HOST_RANKS = 16
PHI_CORES = 59


def default_message_sizes(start: int = 1, stop: int = 4 * MiB) -> List[int]:
    sizes = []
    s = start
    while s <= stop:
        sizes.append(s)
        s *= 2
    return sizes


def function_time(benchmark: str, fabric: Fabric, p: int, nbytes: int) -> float:
    """One MPI function's time on ``p`` ranks that all enter at once:
    its slowest rank's finish."""
    zeros = [0.0] * p
    if benchmark == "sendrecv":
        return max(shift_step(zeros, 1, *_wire(fabric, nbytes)))
    return max(finish_times(benchmark, fabric, nbytes, zeros))


def mpi_function_sweep(
    benchmark: str,
    sizes: Optional[Sequence[int]] = None,
    phi_tpc: Sequence[int] = (1, 2, 3, 4),
    phi_memory: float = 8 * GiB,
    host_memory: float = 32 * GiB,
) -> Dict[str, List[Tuple[int, Optional[float]]]]:
    """Time-vs-size series for one MPI function on host and Phi.

    Returns ``{"host": [...], "phi-1tpc": [...], ...}``; ``None`` marks
    out-of-memory points (alltoall only).
    """
    if benchmark not in MPI_BENCHMARKS:
        raise ConfigError(
            f"unknown benchmark {benchmark!r} (have {sorted(MPI_BENCHMARKS)})"
        )
    sizes = list(sizes) if sizes else default_message_sizes()
    out: Dict[str, List[Tuple[int, Optional[float]]]] = {}

    def series(
        fabric: Fabric, p: int, memory: float
    ) -> List[Tuple[int, Optional[float]]]:
        pts: List[Tuple[int, Optional[float]]] = []
        for n in sizes:
            if benchmark == "alltoall" and not alltoall_fits(p, n, memory):
                pts.append((n, None))
            else:
                pts.append((n, function_time(benchmark, fabric, p, n)))
        return pts

    out["host"] = series(host_fabric(), HOST_RANKS, host_memory)
    for k in phi_tpc:
        out[f"phi-{k}tpc"] = series(phi_fabric(k), PHI_CORES * k, phi_memory)
    return out


def host_over_phi_factors(
    benchmark: str,
    tpc: int,
    sizes: Optional[Sequence[int]] = None,
) -> List[Tuple[int, float]]:
    """The paper's "host is higher by a factor of …" series.

    Factor = Phi time / host time at each message size (skipping Phi OOM
    points).
    """
    sweep = mpi_function_sweep(benchmark, sizes, phi_tpc=(tpc,))
    host = dict(sweep["host"])
    phi = dict(sweep[f"phi-{tpc}tpc"])
    factors = []
    for n, t_phi in phi.items():
        t_host = host[n]
        if t_phi is None or t_host is None or t_host == 0:
            continue
        factors.append((n, t_phi / t_host))
    return factors


def factor_range(
    benchmark: str, tpc: int, sizes: Optional[Sequence[int]] = None
) -> Tuple[float, float]:
    """(min, max) host-over-Phi factor across the size sweep."""
    factors = [f for _, f in host_over_phi_factors(benchmark, tpc, sizes)]
    if not factors:
        raise ConfigError(f"{benchmark}: no feasible points at {tpc} tpc")
    return min(factors), max(factors)


def alltoall_max_feasible_size(
    tpc: int, sizes: Optional[Sequence[int]] = None, phi_memory: float = 8 * GiB
) -> Optional[int]:
    """Largest message size the Phi alltoall can run at ``tpc`` ranks/core."""
    sizes = list(sizes) if sizes else default_message_sizes()
    p = PHI_CORES * tpc
    feasible = [n for n in sizes if alltoall_fits(p, n, phi_memory)]
    return max(feasible) if feasible else None
