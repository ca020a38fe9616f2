"""Simulated MPI: an mpi4py-flavoured API running on the discrete-event engine.

Layers, bottom up:

* :mod:`repro.mpi.fabrics` — per-path transports (host shared memory, the
  Phi's on-die path at 1–4 ranks/core, PCIe CCL/SCIF DAPL providers) with
  calibrated α (latency), β (1/bandwidth) and congestion parameters;
* :mod:`repro.mpi.messages` — envelopes and (source, tag) matching;
* :mod:`repro.mpi.api` — :class:`~repro.mpi.api.RankComm`, the rank-program
  vocabulary (``sendrecv`` and the eight collectives) every communicator
  shares, and :class:`~repro.mpi.api.Communicator`, its stepped
  implementation with ``send``/``recv``/``isend``/``irecv``;
* :mod:`repro.mpi.collectives` — collective *algorithms* (binomial bcast,
  recursive doubling, ring, pairwise exchange, dissemination barrier) as
  simulated programs and as their exact schedules (which also price the
  Figs 10–14 sweeps);
* :mod:`repro.mpi.runtime` — the ``mpiexec`` equivalent: builds a job of
  N rank processes on a fabric and runs it to completion.
"""

from repro.mpi.api import ANY_SOURCE, ANY_TAG, Communicator, Request
from repro.mpi.collectives import alltoall_memory_required
from repro.mpi.fabrics import (
    Fabric,
    FabricParams,
    host_fabric,
    phi_fabric,
)
from repro.mpi.protocols import PciePathFabric, pcie_fabric
from repro.mpi.runtime import MpiJob, mpiexec
from repro.mpi.compile import CompileStats, compiled_mpiexec

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "CompileStats",
    "Fabric",
    "FabricParams",
    "MpiJob",
    "PciePathFabric",
    "Request",
    "compiled_mpiexec",
    "alltoall_memory_required",
    "host_fabric",
    "mpiexec",
    "pcie_fabric",
    "phi_fabric",
]
