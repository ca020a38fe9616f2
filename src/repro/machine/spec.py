"""Frozen specification dataclasses for hardware components.

A spec is pure data; behaviour lives in the model classes that consume it
(:mod:`repro.machine.cache`, :mod:`repro.machine.memory`, …).  Validation
happens in ``__post_init__`` so an inconsistent machine cannot be built.
Default values never appear here — they live in
:mod:`repro.machine.presets`, next to citations into the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheLevel:
    """One level of a cache hierarchy.

    ``capacity`` is per core unless ``shared`` is true (then it is the
    chip-wide capacity, e.g. Sandy Bridge's 20 MB L3).  Bandwidths are
    sustained per-core load/store rates in bytes/s — the quantity the
    paper plots in Figure 6.
    """

    name: str
    capacity: int  # bytes
    latency: float  # seconds, load-to-use
    read_bw: float  # bytes/s per core
    write_bw: float  # bytes/s per core
    shared: bool = False
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if self.latency <= 0:
            raise ConfigError(f"{self.name}: latency must be positive")
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigError(f"{self.name}: line_size must be a power of two")


@dataclass(frozen=True)
class MemorySpec:
    """Main-memory system attached to one processor.

    ``read_bw_per_core``/``write_bw_per_core`` are the single-core sustained
    rates (Fig 6's rightmost plateau); ``peak_bandwidth`` is the chip-level
    datasheet peak; ``stream_scalability`` the fraction of peak reachable by
    STREAM with all threads.  For GDDR5, ``n_banks`` bounds the number of
    concurrently open pages and ``bank_thrash_factor`` is the bandwidth
    multiplier once concurrent access streams exceed it — the mechanism the
    paper invokes for the 180 → 140 GB/s drop beyond 118 threads (Fig 4).
    """

    technology: str
    capacity: int  # bytes
    latency: float  # seconds
    read_bw_per_core: float  # bytes/s
    write_bw_per_core: float  # bytes/s
    peak_bandwidth: float  # bytes/s, chip level
    stream_scalability: float  # sustained fraction of peak for STREAM
    n_channels: int
    n_banks: Optional[int] = None
    bank_thrash_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.latency <= 0:
            raise ConfigError(f"{self.technology}: capacity/latency must be positive")
        if not (0.0 < self.stream_scalability <= 1.0):
            raise ConfigError(f"{self.technology}: stream_scalability in (0, 1]")
        if not (0.0 < self.bank_thrash_factor <= 1.0):
            raise ConfigError(f"{self.technology}: bank_thrash_factor in (0, 1]")
        if self.n_channels <= 0:
            raise ConfigError(f"{self.technology}: n_channels must be positive")

    @property
    def sustained_bandwidth(self) -> float:
        """Chip-level sustainable STREAM bandwidth in bytes/s."""
        return self.peak_bandwidth * self.stream_scalability


@dataclass(frozen=True)
class CoreSpec:
    """A single core's execution resources."""

    frequency: float  # Hz
    flops_per_cycle: float  # peak DP flops/cycle (vector FMA)
    simd_width_bits: int
    hw_threads: int  # hardware thread contexts
    in_order: bool
    issue_width: int = 2
    # Relative throughput of gather/scatter vector memory access compared
    # with unit stride (Section 6.8.1: the Phi's gather/scatter "is not
    # efficient" — vectorizing CG's sparse BLAS gained only 10 %).
    gather_scatter_efficiency: float = 0.5
    # Fraction of the one-lane rate scalar code actually achieves: an
    # out-of-order 4-wide core extracts full ILP (1.0); the Phi's 2-wide
    # in-order pipeline stalls on dependent scalar chains (≈0.4).
    scalar_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency <= 0 or self.flops_per_cycle <= 0:
            raise ConfigError("core frequency/flops_per_cycle must be positive")
        if self.hw_threads < 1:
            raise ConfigError("hw_threads must be >= 1")
        if self.simd_width_bits not in (64, 128, 256, 512):
            raise ConfigError(f"unsupported SIMD width {self.simd_width_bits}")
        if not (0.0 < self.gather_scatter_efficiency <= 1.0):
            raise ConfigError("gather_scatter_efficiency in (0, 1]")
        if not (0.0 < self.scalar_efficiency <= 1.0):
            raise ConfigError("scalar_efficiency in (0, 1]")

    @property
    def simd_lanes_dp(self) -> int:
        """Double-precision lanes per vector register."""
        return self.simd_width_bits // 64

    @property
    def peak_flops(self) -> float:
        """Peak DP flop/s of one core."""
        return self.frequency * self.flops_per_cycle


@dataclass(frozen=True)
class ProcessorSpec:
    """A processor (chip): cores + cache hierarchy + attached memory."""

    name: str
    n_cores: int
    core: CoreSpec
    cache_levels: Tuple[CacheLevel, ...]
    memory: MemorySpec
    # Per-thread-count relative core throughput; key 1..hw_threads.
    # (paper: Phi needs >1 thread/core to fill its in-order pipeline;
    # host HyperThreading can mildly hurt — Sections 2.1, 6.9.1.6)
    thread_throughput: Mapping[int, float] = field(default_factory=dict)
    # Cores usually left to the OS (Phi convention: core 60 — Section 6.9.1.5)
    os_reserved_cores: int = 0
    # Throughput multiplier applied when the OS core is oversubscribed anyway
    os_core_penalty: float = 1.0

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigError(f"{self.name}: n_cores must be positive")
        if not self.cache_levels:
            raise ConfigError(f"{self.name}: at least one cache level required")
        caps = [
            (c.capacity / self.n_cores if c.shared else c.capacity)
            for c in self.cache_levels
        ]
        if any(a >= b for a, b in zip(caps, caps[1:])):
            raise ConfigError(f"{self.name}: cache capacities must increase outward")
        lats = [c.latency for c in self.cache_levels]
        if any(a >= b for a, b in zip(lats, lats[1:])):
            raise ConfigError(f"{self.name}: cache latencies must increase outward")
        if self.cache_levels[-1].latency >= self.memory.latency:
            raise ConfigError(
                f"{self.name}: memory latency must exceed last cache level"
            )
        for k, v in self.thread_throughput.items():
            if not (1 <= k <= self.core.hw_threads):
                raise ConfigError(
                    f"{self.name}: thread_throughput key {k} out of range"
                )
            if v <= 0:
                raise ConfigError(
                    f"{self.name}: thread_throughput values must be positive"
                )
        if self.os_reserved_cores < 0 or self.os_reserved_cores >= self.n_cores:
            raise ConfigError(f"{self.name}: os_reserved_cores out of range")
        if not (0.0 < self.os_core_penalty <= 1.0):
            raise ConfigError(f"{self.name}: os_core_penalty in (0, 1]")

    @property
    def peak_flops(self) -> float:
        """Chip peak DP flop/s (e.g. 1.008 Tflop/s for the Phi 5110P)."""
        return self.n_cores * self.core.peak_flops

    @property
    def max_threads(self) -> int:
        return self.n_cores * self.core.hw_threads

    @property
    def usable_cores(self) -> int:
        """Cores available to applications when the OS reservation is honoured."""
        return self.n_cores - self.os_reserved_cores

    @property
    def total_cache_per_core(self) -> int:
        """Private + (shared / n_cores) cache bytes available to one core."""
        total = 0
        for c in self.cache_levels:
            total += c.capacity // self.n_cores if c.shared else c.capacity
        return total

    def cache_level(self, name: str) -> CacheLevel:
        for c in self.cache_levels:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class PcieSpec:
    """A PCI Express link.

    ``gen`` selects line coding (gen2: 8b/10b, gen3: 128b/130b);
    ``max_payload`` is the TLP payload size whose 20-byte wrapping sets the
    framing efficiency the paper quotes (64 B → 76 %, 128 B → 86 %).
    """

    gen: int
    lanes: int
    max_payload: int = 128  # bytes per TLP
    tlp_overhead: int = 20  # bytes of framing/seq/header/digest/LCRC
    dma_setup_latency: float = 0.0  # seconds per transfer
    dma_efficiency: float = 1.0  # sustained fraction of framed rate

    _GT_PER_S = {1: 2.5e9, 2: 5.0e9, 3: 8.0e9}
    _CODING = {1: 8 / 10, 2: 8 / 10, 3: 128 / 130}

    def __post_init__(self) -> None:
        if self.gen not in self._GT_PER_S:
            raise ConfigError(f"unsupported PCIe gen {self.gen}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ConfigError(f"invalid lane count {self.lanes}")
        if self.max_payload <= 0 or self.tlp_overhead < 0:
            raise ConfigError("invalid TLP parameters")
        if not (0.0 < self.dma_efficiency <= 1.0):
            raise ConfigError("dma_efficiency in (0, 1]")

    @property
    def raw_bandwidth(self) -> float:
        """Post-line-coding raw link rate, bytes/s (gen2 x16 → 8 GB/s)."""
        return self._GT_PER_S[self.gen] * self._CODING[self.gen] * self.lanes / 8.0

    @property
    def framing_efficiency(self) -> float:
        """Payload fraction of each TLP (128 B → ~86 %)."""
        return self.max_payload / (self.max_payload + self.tlp_overhead)

    @property
    def effective_bandwidth(self) -> float:
        """Large-transfer sustained bandwidth, bytes/s."""
        return self.raw_bandwidth * self.framing_efficiency * self.dma_efficiency


@dataclass(frozen=True)
class NodeSpec:
    """One Maia node: a host (two processors) plus coprocessors."""

    name: str
    host: ProcessorSpec
    host_sockets: int
    coprocessors: Tuple[ProcessorSpec, ...]
    host_memory: int  # bytes, shared cache-coherent across sockets

    def __post_init__(self) -> None:
        if self.host_sockets < 1:
            raise ConfigError("host_sockets must be >= 1")
        if self.host_memory <= 0:
            raise ConfigError("host_memory must be positive")

    @property
    def host_cores(self) -> int:
        return self.host.n_cores * self.host_sockets

    @property
    def host_peak_flops(self) -> float:
        return self.host.peak_flops * self.host_sockets

    @property
    def total_peak_flops(self) -> float:
        return self.host_peak_flops + sum(c.peak_flops for c in self.coprocessors)


@dataclass(frozen=True)
class SystemSpec:
    """The full cluster."""

    name: str
    node: NodeSpec
    n_nodes: int
    interconnect_name: str
    interconnect_peak: float  # bytes/s per node

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
