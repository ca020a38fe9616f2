"""The paper's microbenchmark suite (Section 3), reimplemented on the models.

Each module produces the data series behind one or more figures:

* :mod:`repro.microbench.stream` — STREAM triad (Fig 4), plus a *real*
  NumPy STREAM that measures the machine running this code;
* :mod:`repro.microbench.memlatency` — load latency vs working set (Fig 5);
* :mod:`repro.microbench.membandwidth` — per-core load bandwidth (Fig 6);
* :mod:`repro.microbench.pingpong` — MPI latency/bandwidth over PCIe,
  pre/post software update (Figs 7–9);
* :mod:`repro.microbench.mpifuncs` — MPI_Send/Recv, Bcast, Allreduce,
  Allgather, Alltoall on host vs Phi (Figs 10–14);
* :mod:`repro.microbench.ompbench` — EPCC OpenMP overheads (Figs 15–16);
* :mod:`repro.microbench.iobench` — sequential I/O (Fig 17);
* :mod:`repro.microbench.offloadbw` — offload-mode PCIe bandwidth (Fig 18).
"""

from repro.microbench.stream import fig4_data, numpy_stream_triad, stream_sweep
from repro.microbench.memlatency import fig5_data, latency_sweep
from repro.microbench.membandwidth import bandwidth_sweep, fig6_data
from repro.microbench.pingpong import fig7_data, fig8_data, fig9_data
from repro.microbench.mpifuncs import (
    MPI_BENCHMARKS,
    mpi_function_sweep,
)
from repro.microbench.ompbench import fig15_data, fig16_data
from repro.microbench.iobench import fig17_data
from repro.microbench.offloadbw import fig18_data

__all__ = [
    "MPI_BENCHMARKS",
    "bandwidth_sweep",
    "fig4_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "fig8_data",
    "fig9_data",
    "fig15_data",
    "fig16_data",
    "fig17_data",
    "fig18_data",
    "latency_sweep",
    "mpi_function_sweep",
    "numpy_stream_triad",
    "stream_sweep",
]
