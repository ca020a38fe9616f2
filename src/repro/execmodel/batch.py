"""Vectorized batch kernel pricing: whole figure axes in array ops.

:func:`kernel_time_batch` prices one kernel at *many* thread counts at
once, mirroring :func:`repro.execmodel.roofline.kernel_time` operation
for operation — same placement policy, same threads-per-core throughput
table, same harmonic bandwidth blend, in the same floating-point
evaluation order — so a batch evaluation is bit-identical to the scalar
loop it replaces.  A 64-point thread sweep becomes ~50 array operations
instead of 64 trips through the Python model stack, which is what makes
full-lattice decomposition campaigns (Fig 22 at every I × J point)
cheap enough to re-render interactively.

Infeasible points (thread counts outside ``1..max_threads``) do not
raise the way the scalar path does; they are masked out in the returned
:class:`BatchBreakdown` so one infeasible lattice point cannot sink a
whole batch.  A kernel footprint exceeding device memory still raises
:class:`~repro.errors.OutOfMemoryError` — that is a property of the
whole batch, not of one point.

The batch path needs NumPy (see :mod:`repro.perf.batch`); callers
without it price point by point through ``kernel_time``.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import OutOfMemoryError
from repro.execmodel.kernel import KernelSpec
from repro.execmodel.roofline import _effective_memory_bandwidth
from repro.execmodel.vectorize import vector_efficiency
from repro.machine.core import ThreadScaling
from repro.machine.processor import Processor
from repro.perf.batch import get_numpy

__all__ = ["BatchBreakdown", "kernel_time_batch"]


class BatchBreakdown:
    """Per-point time components for one kernel over a thread-count axis.

    All fields are aligned NumPy arrays; ``feasible[i]`` is False where
    the scalar path would have raised :class:`~repro.errors.ConfigError`
    and the other fields hold garbage there.
    """

    __slots__ = ("compute_time", "memory_time", "serial_time", "sync_time",
                 "total", "feasible")

    def __init__(self, compute_time, memory_time, serial_time, sync_time,
                 total, feasible):
        self.compute_time = compute_time
        self.memory_time = memory_time
        self.serial_time = serial_time
        self.sync_time = sync_time
        self.total = total
        self.feasible = feasible

    def __len__(self) -> int:
        return len(self.total)

    def bound(self, i: int) -> str:
        """Which roof binds at point ``i`` (scalar ``TimeBreakdown.bound``)."""
        return "compute" if self.compute_time[i] >= self.memory_time[i] else "memory"


# --------------------------------------------------------------------------
# Vectorized mirrors of the machine layer (one socket spec, share arrays)
# --------------------------------------------------------------------------


def _placement_vec(np, spec, n):
    """Vectorized :func:`repro.machine.core.placement` over share array ``n``."""
    usable = spec.usable_cores
    use_all = ((spec.os_reserved_cores > 0) & (n % spec.n_cores == 0)) | (
        n > usable * spec.core.hw_threads
    )
    cores = np.where(
        use_all, np.minimum(n, spec.n_cores), np.minimum(n, usable)
    )
    uses_os = cores > usable
    tpc = np.ceil(n / cores).astype(np.int64)
    return cores, tpc, uses_os


def _throughput_lut(np, scaling: ThreadScaling):
    """Core throughput indexed by threads-per-core (index 0 unused)."""
    hw = scaling.proc.core.hw_threads
    return np.array([0.0] + [scaling.throughput(k) for k in range(1, hw + 1)])


def _compute_rate_vec(np, proc: Processor, n, veff: float,
                      scaling: ThreadScaling):
    """Vectorized :meth:`Processor.compute_rate` (round-robin sockets)."""
    spec = proc.spec
    lut = _throughput_lut(np, scaling)
    base = n // proc.sockets
    extra = n % proc.sockets
    total = np.zeros(len(n))
    for s in range(proc.sockets):
        share = base + (s < extra)
        live = share >= 1
        sh = np.maximum(share, 1)
        cores, tpc, uses_os = _placement_vec(np, spec, sh)
        rate = cores * spec.core.peak_flops * lut[tpc] * veff
        rate = np.where(uses_os, rate * spec.os_core_penalty, rate)
        total = total + np.where(live, rate, 0.0)
    return total


def _stream_bw_vec(np, proc: Processor, n, streams_per_thread: int):
    """Vectorized :meth:`Processor.stream_bandwidth`."""
    mem = proc.spec.memory
    per_thread = mem.sustained_bandwidth / proc.spec.usable_cores
    if proc.sockets > 1:
        # NUMA: round-robin socket shares, each a plain DDR ramp.
        base = n // proc.sockets
        extra = n % proc.sockets
        bw = np.zeros(len(n))
        for s in range(proc.sockets):
            share = base + (s < extra)
            socket_bw = np.minimum(share * per_thread, mem.sustained_bandwidth)
            bw = bw + np.where(share >= 1, socket_bw, 0.0)
    else:
        bw = np.minimum(n * per_thread, mem.sustained_bandwidth)
        if mem.n_banks:
            streams = n * streams_per_thread
            bw = np.where(streams > mem.n_banks, bw * mem.bank_thrash_factor, bw)
    # HyperThreading working-set penalty on out-of-order hosts.
    share = -(-n // proc.sockets)
    _, tpc, _ = _placement_vec(np, proc.spec, share)
    if not proc.spec.core.in_order:
        bw = np.where(tpc > 1, bw * 0.94, bw)
    return bw


def _dep_bw_vec(np, proc: Processor, n):
    """Vectorized :meth:`Processor.dependent_access_bandwidth`."""
    spec = proc.spec
    per_core = spec.memory.read_bw_per_core
    hide_lut = np.array([0.0] + [
        Processor.DEP_HIDING.get(k, 1.0) for k in range(1, 5)
    ])
    base = n // proc.sockets
    extra = n % proc.sockets
    total = np.zeros(len(n))
    for s in range(proc.sockets):
        share = base + (s < extra)
        live = share >= 1
        sh = np.maximum(share, 1)
        cores, tpc, _ = _placement_vec(np, spec, sh)
        hide = hide_lut[np.minimum(tpc, 4)]
        total = total + np.where(live, cores * per_core * hide, 0.0)
    return np.minimum(total, _stream_bw_vec(np, proc, n, 1))


def _eff_mem_bw_vec(np, kernel: KernelSpec, proc: Processor, n):
    """Vectorized :func:`repro.execmodel.roofline._effective_memory_bandwidth`."""
    s = kernel.streaming_fraction
    stream = _stream_bw_vec(np, proc, n, kernel.memory_streams_per_thread)
    if s >= 1.0:
        bw = stream
    else:
        dep = _dep_bw_vec(np, proc, n)
        gse = proc.spec.core.gather_scatter_efficiency
        deficiency = max(0.0, 1.0 - gse / 0.35)
        dep = dep * (1.0 - 0.5 * kernel.gather_fraction * deficiency)
        bw = 1.0 / (s / stream + (1.0 - s) / dep)
    share = -(-n // proc.sockets)
    _, _, uses_os = _placement_vec(np, proc.spec, share)
    return np.where(uses_os, bw * proc.spec.os_core_penalty, bw)


# --------------------------------------------------------------------------
# The batch roofline
# --------------------------------------------------------------------------


def kernel_time_batch(
    kernel: KernelSpec,
    proc: Processor,
    thread_counts: Sequence[int],
    check_memory: bool = True,
) -> BatchBreakdown:
    """Price ``kernel`` on ``proc`` at every count in ``thread_counts``.

    Equivalent to calling :func:`~repro.execmodel.roofline.kernel_time`
    per point (bit-identical components), with out-of-range thread
    counts masked infeasible instead of raising.  Synchronization is
    free (``sync_cost=0``).  Requires NumPy.
    """
    if check_memory and kernel.footprint > proc.memory_capacity:
        raise OutOfMemoryError(kernel.footprint, proc.memory_capacity, kernel.name)
    np = get_numpy()

    n_raw = np.asarray(thread_counts, dtype=np.int64)
    feasible = (n_raw >= 1) & (n_raw <= proc.max_threads)
    n = np.clip(n_raw, 1, proc.max_threads)

    veff = vector_efficiency(kernel, proc.spec.core)
    scaling = proc.thread_scaling
    if kernel.thread_table is not None and max(kernel.thread_table) == (
        proc.spec.core.hw_threads
    ):
        scaling = ThreadScaling(proc.spec, kernel.thread_table)

    grain_util = 1.0
    if kernel.parallel_grains is not None:
        g = kernel.parallel_grains
        ratio = g / n
        grain_util = np.where(g < n, ratio, ratio / np.ceil(ratio))

    compute_rate = _compute_rate_vec(np, proc, n, veff, scaling) * grain_util
    parallel_flops = kernel.flops * kernel.parallel_fraction
    compute_time = parallel_flops / compute_rate

    memory_time = np.zeros(len(n))
    if kernel.memory_traffic:
        mem_bw = _eff_mem_bw_vec(np, kernel, proc, n) * grain_util
        memory_time = kernel.memory_traffic * kernel.parallel_fraction / mem_bw

    # The Amdahl serial part runs on one thread: n-independent, so price
    # it once with the scalar model and broadcast.
    serial_flops = kernel.flops * (1.0 - kernel.parallel_fraction)
    serial_point = 0.0
    if serial_flops:
        single_rate = proc.compute_rate(1, veff, scaling)
        serial_mem = kernel.memory_traffic * (1.0 - kernel.parallel_fraction)
        serial_point = max(
            serial_flops / single_rate,
            serial_mem / _effective_memory_bandwidth(kernel, proc, 1),
        )
    serial_time = np.full(len(n), serial_point)

    sync_time = np.zeros(len(n))

    total = np.maximum(compute_time, memory_time) + serial_time + sync_time
    return BatchBreakdown(
        compute_time, memory_time, serial_time, sync_time, total, feasible
    )
