"""The FDR InfiniBand fabric between nodes.

:class:`InfiniBandSpec` is a thin descriptor of one HCA's signalling
rate, coding efficiency and small-message MPI latency (the paper's
Table 1 and Section 2).  :func:`~repro.machine.presets.maia_system`
reads its payload bandwidth into the cluster spec and
:mod:`repro.apps.overflow` prices inter-node halo traffic with it; the
MPI fabrics of :mod:`repro.mpi.fabrics` carry their own parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class InfiniBandSpec:
    """A 4x FDR InfiniBand HCA (56 Gbit/s signalling, 64b/66b coding)."""

    signal_rate: float  # bits/s raw (4x FDR: 56e9)
    coding_efficiency: float = 64 / 66
    mpi_latency: float = 1.1e-6  # small-message MPI latency, seconds

    def __post_init__(self) -> None:
        if self.signal_rate <= 0:
            raise ConfigError("invalid InfiniBand signal rate")

    @property
    def data_bandwidth(self) -> float:
        """Payload bandwidth, bytes/s (FDR ≈ 6.8 GB/s)."""
        return self.signal_rate * self.coding_efficiency / 8.0
