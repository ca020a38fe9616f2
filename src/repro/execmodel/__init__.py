"""Kernel execution-time model (roofline + threading + vectorization).

Bridges workloads and machines: a :class:`~repro.execmodel.kernel.KernelSpec`
describes *what a code does to the hardware* (flops, memory traffic, vector
profile, parallelism); :func:`~repro.execmodel.roofline.kernel_time` prices
it on a :class:`~repro.machine.processor.Processor` at a given thread count.
The NPB and application characterizations (Figs 19–25) are built from these
pieces.
"""

from repro.execmodel.kernel import KernelSpec
from repro.execmodel.roofline import TimeBreakdown, kernel_gflops, kernel_time
from repro.execmodel.vectorize import vector_efficiency

__all__ = [
    "KernelSpec",
    "TimeBreakdown",
    "kernel_gflops",
    "kernel_time",
    "vector_efficiency",
]
