"""OVERFLOW-2 proxy: multi-zone implicit structured solver (Section 3.7.1).

Two layers:

* :class:`OverflowSolver` — a real mini-solver with OVERFLOW's numerical
  skeleton: an overset-style multi-zone decomposition (slab zones with
  one-cell fringes), implicit ADI time stepping per zone (finite
  differences in space, implicit in time — the paper's description),
  verified by manufactured solutions across the zone boundaries.

* :class:`OverflowModel` — the performance model behind Figures 22–23:
  one time step at an (I MPI ranks × J OpenMP threads) decomposition on
  host or Phi (:meth:`~OverflowModel.native_step`, which
  :func:`repro.core.sweep.grid_sweep` sweeps), and symmetric
  host+Phi0+Phi1 execution under both software stacks.
  OVERFLOW "depends on the bandwidth of the memory subsystem"
  (Section 6.9.1.2): the kernel is memory-bound with poor streaming
  (overset fringes interpolate irregularly), which is what caps the Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.apps.datasets import GridSystem, dataset
from repro.core.results import Measurement
from repro.core.software import POST_UPDATE, SoftwareStack
from repro.core.symmetric import SymmetricRun, WorkPartition
from repro.execmodel.kernel import KernelSpec
from repro.execmodel.roofline import kernel_time
from repro.machine.interconnect import InfiniBandSpec
from repro.machine.node import Device
from repro.machine.presets import maia_host_processor, maia_infiniband, xeon_phi_5110p
from repro.machine.processor import Processor
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.obs.tracer import Tracer, active
from repro.paperdata import FIG22_OVERFLOW_NATIVE
from repro.units import KiB


# ==========================================================================
# Real mini-solver
# ==========================================================================


class OverflowSolver:
    """Multi-zone implicit ADI transport solver on slab-decomposed zones.

    The unit cube is split into ``n_zones`` slabs along z; each step
    exchanges one-cell fringes (the overset interpolation surrogate) and
    advances every zone with the ADI factorization from
    :mod:`repro.npb.pseudo_pde`.  Verification: the manufactured solution
    must be tracked *across* zone boundaries — fringe errors would show
    immediately.
    """

    def __init__(self, n: int = 16, n_zones: int = 4, steps: int = 8):
        from repro.npb.pseudo_pde import PdeSetup

        if n_zones < 1 or n % n_zones:
            raise ConfigError("n must divide evenly into zones")
        self.setup = PdeSetup(n=n, steps=steps)
        self.n = n
        self.n_zones = n_zones
        self.steps = steps

    def run(self) -> Dict[str, float]:
        """Advance ``steps`` and return the final MMS error per zone."""
        from repro.npb.pseudo_pde import line_coefficients, solve_lines, step_error

        setup = self.setup
        u = setup.exact(0.0)
        t = 0.0
        slab = self.n // self.n_zones
        sub, diag, sup = line_coefficients(setup, setup.dt)
        for _ in range(self.steps):
            rhs = u + setup.dt * setup.forcing(t + setup.dt)
            # Per-zone ADI x/y factor solves (zones are z-slabs, so x/y
            # lines are zone-local).
            parts = []
            for z in range(self.n_zones):
                zone = rhs[z * slab : (z + 1) * slab]
                w = solve_lines(zone, 2, sub, diag, sup)
                w = solve_lines(w, 1, sub, diag, sup)
                parts.append(w)
            w = np.concatenate(parts, axis=0)
            # The z factor couples zones: the fringe exchange makes the
            # full-height line solve exact (the "interpolation" step).
            u = solve_lines(w, 0, sub, diag, sup)
            t += setup.dt
        err = step_error(setup, u, t)
        return {"mms_error": err, "tolerance": 2.0 * setup.h**2}

    def verify(self) -> bool:
        r = self.run()
        return r["mms_error"] < r["tolerance"]


# ==========================================================================
# Performance model (Figures 22–23)
# ==========================================================================

#: OVERFLOW ≈ 5000 flops per grid point per step (implicit RHS + ADI).
FLOPS_PER_POINT = 5000.0
#: Memory-bound: ~0.5 flops per byte of DRAM traffic.
INTENSITY = 0.5
#: Per-step halo message size used for fabric pricing.
HALO_MESSAGE = 512 * KiB
#: OpenMP scaling loss per extra thread within a rank (OVERFLOW's OpenMP
#: is known to scale modestly; paper: host slows as J grows).
OMP_LOSS_HOST = 0.030
OMP_LOSS_PHI = 0.004
#: NUMA penalty when one rank's thread team spans both host sockets.
NUMA_PENALTY = 1.30


@dataclass(frozen=True)
class StepBreakdown:
    compute: float
    comm: float
    omp_factor: float

    @property
    def total(self) -> float:
        return self.compute * self.omp_factor + self.comm


class OverflowModel:
    """Prices OVERFLOW steps on Maia devices and in symmetric mode."""

    def __init__(self, grid: Optional[GridSystem] = None):
        self.grid = grid or dataset("DLRF6-Medium")
        self._host = Processor(maia_host_processor())
        self._phi = Processor(xeon_phi_5110p())

    # ------------------------------------------------------------- kernel

    def kernel(self, share: float = 1.0, device: str = "any") -> KernelSpec:
        """Per-step resource signature for ``share`` of the case."""
        if not (0.0 < share <= 1.0):
            raise ConfigError("share must be in (0, 1]")
        flops = FLOPS_PER_POINT * self.grid.grid_points * share
        return KernelSpec(
            name=f"overflow[{self.grid.name}]",
            flops=flops,
            memory_traffic=flops / INTENSITY,
            vector_fraction=0.50,
            gather_fraction=0.10,  # overset interpolation is indirect
            streaming_fraction=self.grid.spec.streaming_quality,
            memory_streams_per_thread=3,
            parallel_fraction=0.999,
            footprint=self.grid.footprint * share,
        )

    def _processor(self, device: Device) -> Processor:
        return self._host if Device(device) is Device.HOST else self._phi

    # -------------------------------------------------------- native mode

    def native_step(
        self,
        device: Device,
        ranks: int,
        omp_threads: int,
        check_memory: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> Measurement:
        """Wall time of one step in native mode at (ranks × omp_threads).

        Raises :class:`~repro.errors.OutOfMemoryError` when the case does
        not fit the device (DLRF6-Large on a single Phi card).  Symmetric
        mode prices per-device *rates* with ``check_memory=False`` since
        each device only holds its zone share.  An active ``tracer`` records the
        step's compute / halo-exchange breakdown as spans on lane
        ``overflow``/``<device>``.
        """
        device = Device(device)
        if ranks < 1 or omp_threads < 1:
            raise ConfigError("ranks and omp_threads must be >= 1")
        proc = self._processor(device)
        total_threads = ranks * omp_threads
        if total_threads > proc.max_threads:
            raise ConfigError(
                f"{total_threads} threads exceed {proc.name}'s {proc.max_threads}"
            )
        kern = self.kernel()
        base = kernel_time(kern, proc, total_threads, check_memory=check_memory)

        # OpenMP within-rank scaling loss; NUMA hit when a team spans sockets.
        loss = OMP_LOSS_HOST if device is Device.HOST else OMP_LOSS_PHI
        omp_factor = 1.0 + loss * (omp_threads - 1)
        if device is Device.HOST and omp_threads > 8:
            omp_factor *= NUMA_PENALTY

        comm = self._native_comm_time(device, ranks, total_threads)
        step = StepBreakdown(base.total, comm, omp_factor)
        tr = active(tracer)
        if tr is not None:
            t0 = tr.now
            compute_t = step.compute * step.omp_factor
            tr.complete(
                "step",
                cat="app.step",
                pid="overflow",
                tid=device.value,
                ts=t0,
                dur=step.total,
                args={"ranks": ranks, "omp_threads": omp_threads},
            )
            tr.complete(
                "compute",
                cat="app.compute",
                pid="overflow",
                tid=device.value,
                ts=t0,
                dur=compute_t,
                depth=1,
            )
            if comm > 0.0:
                tr.complete(
                    "halo-exchange",
                    cat="app.comm",
                    pid="overflow",
                    tid=device.value,
                    ts=t0 + compute_t,
                    dur=comm,
                    depth=1,
                )
        return Measurement(
            name=f"overflow[{self.grid.name}]",
            time=step.total,
            unit="step",
            config={
                "device": device.value,
                "ranks": ranks,
                "omp_threads": omp_threads,
                "compute": step.compute,
                "comm": comm,
            },
        )

    def figure22(self) -> Dict[Tuple[str, int, int], Measurement]:
        """The paper's Fig-22 decompositions: ``(device, I, J) -> step``."""
        return {
            (device.value, i, j): self.native_step(device, i, j)
            for device, key in ((Device.HOST, "host_configs"),
                                (Device.PHI0, "phi_configs"))
            for i, j in FIG22_OVERFLOW_NATIVE[key]
        }

    def _native_comm_time(
        self, device: Device, ranks: int, total_threads: int
    ) -> float:
        """Per-step intra-device halo exchange."""
        if ranks == 1:
            return 0.0
        halo = self.grid.halo_bytes_per_step()
        per_rank = halo / ranks
        if Device(device) is Device.HOST:
            fabric = host_fabric()
        else:
            tpc = max(1, min(4, math.ceil(total_threads / 59)))
            fabric = phi_fabric(tpc)
        n_msgs = max(1, round(per_rank / HALO_MESSAGE))
        msg = min(HALO_MESSAGE, int(per_rank))
        # Two neighbour exchanges per rank, concurrent across ranks.
        return 2 * n_msgs * fabric.p2p_time(msg)

    # ----------------------------------------------------- symmetric mode

    def device_rate(self, device: Device, ranks: int, omp_threads: int) -> float:
        """Full-case-equivalents per second at a device configuration
        (memory check deferred: each device holds only its zone share)."""
        m = self.native_step(device, ranks, omp_threads, check_memory=False)
        return 1.0 / m.time

    #: The speed ratio the static partition assumes for a Phi card vs the
    #: host.  OVERFLOW's symmetric runs balanced zones against a rule of
    #: thumb ("a single Phi card had about half the performance of the two
    #: host processors"), not against the measured rates — the residual
    #: mismatch is the paper's "overhead due to load imbalance"
    #: (Section 6.9.1.3).
    ASSUMED_PHI_SPEED = 0.50

    def symmetric_step(
        self,
        software: SoftwareStack = POST_UPDATE,
        host_cfg: Tuple[int, int] = (16, 1),
        phi_cfg: Tuple[int, int] = (8, 28),
    ) -> Dict[str, float]:
        """One symmetric-mode step (Fig 23): host + Phi0 + Phi1.

        Zones are LPT-assigned using the *assumed* device speeds; the
        finish time is evaluated with the *actual* rates, so imbalance
        emerges from the mis-estimate plus zone lumpiness.  PCIe halo
        traffic (and its host-side pack/unpack) is priced under
        ``software``.
        """
        actual = {
            Device.HOST: self.device_rate(Device.HOST, *host_cfg),
            Device.PHI0: self.device_rate(Device.PHI0, *phi_cfg),
            Device.PHI1: self.device_rate(Device.PHI1, *phi_cfg),
        }
        assumed = {
            Device.HOST: 1.0,
            Device.PHI0: self.ASSUMED_PHI_SPEED,
            Device.PHI1: self.ASSUMED_PHI_SPEED,
        }
        partition = WorkPartition.balanced(
            [float(s) for s in self.grid.zone_sizes], assumed
        )
        compute_only = max(
            partition.share(d) / actual[d] for d in actual
        )
        ideal = 1.0 / sum(actual.values())

        run = SymmetricRun(
            lambda dev, share: share / actual[dev],
            partition,
            halo_bytes=self.grid.halo_bytes_per_step(),
            software=software,
            message_size=HALO_MESSAGE,
        )
        halo = self.grid.halo_bytes_per_step()
        pack = 2.0 * halo / 4e9  # host-side gather/scatter of fringe data
        comm = run.comm_time() + pack
        return {
            "total": compute_only + comm,
            "compute_only": compute_only,
            "ideal_compute": ideal,
            "comm": comm,
            "imbalance": compute_only / ideal,
        }

    def two_host_step(self, ranks_per_host: int = 16) -> Dict[str, float]:
        """Two host nodes over InfiniBand (Fig 23's 'host1+host2' baseline).

        Homogeneous devices: the assumed and actual speeds coincide, so
        only zone lumpiness misbalances the two bins.
        """
        rate = self.device_rate(Device.HOST, ranks_per_host, 1)
        partition = WorkPartition.balanced(
            [float(s) for s in self.grid.zone_sizes], {0: 1.0, 1: 1.0}
        )
        compute_only = max(partition.share(d) / rate for d in (0, 1))
        ideal = 1.0 / (2 * rate)
        ib: InfiniBandSpec = maia_infiniband()
        halo = self.grid.halo_bytes_per_step() / 3.0  # inter-node share
        comm = halo / ib.data_bandwidth + ib.mpi_latency * max(
            1, round(halo / HALO_MESSAGE)
        )
        return {
            "total": compute_only + comm,
            "compute_only": compute_only,
            "ideal_compute": ideal,
            "comm": comm,
            "imbalance": compute_only / ideal,
        }
