"""Factory functions building the Maia system exactly as the paper describes.

This module is the **single calibration point** of the library: every
hardware constant is either taken verbatim from the paper (Table 1,
Sections 2 and 6) or derived from one that is, with the derivation noted
inline.  Model code never hard-codes machine numbers — it consumes these
specs.

Sources
-------
* Table 1 — frequencies, core counts, cache sizes, SIMD widths, QPI/PCIe
  rates, memory technology, node/system composition.
* Section 6.1 — STREAM: Phi 180 GB/s at 59/118 threads, 140 GB/s beyond
  (GDDR5 128 open banks).
* Section 6.2 — cache/memory latencies (host 1.5/4.6/15/81 ns, Phi
  2.9/22.9/295 ns) and per-core read/write bandwidths.
* Section 6.7 — PCIe TLP framing efficiency and ≈6.4 GB/s offload rate,
  host→Phi0 ≈3 % faster than host→Phi1, dip at 64 KiB.
* Sections 2.1/6.8/6.9 — hardware-thread behaviour (1 thread/core cannot
  issue back-to-back; 3/core usually best; HyperThreading ≈ −6 % on MG;
  60th-core interference).
"""

from __future__ import annotations

from repro.machine.interconnect import InfiniBandSpec
from repro.machine.node import Device, MaiaNode
from repro.machine.pcie import PcieLink
from repro.machine.spec import (
    CacheLevel,
    CoreSpec,
    MemorySpec,
    NodeSpec,
    PcieSpec,
    ProcessorSpec,
    SystemSpec,
)
from repro.machine.system import MaiaSystem
from repro.units import GB, GHZ, GiB, KiB, MB, MiB, NS, US


def sandy_bridge_processor() -> ProcessorSpec:
    """One Intel Xeon E5-2670 socket (Table 1, Figs 5–6 calibration)."""
    core = CoreSpec(
        frequency=2.6 * GHZ,
        flops_per_cycle=8,  # AVX: 4 DP adds + 4 DP muls per cycle → 20.8 Gflop/s
        simd_width_bits=256,
        hw_threads=2,  # HyperThreading
        in_order=False,
        issue_width=4,
        gather_scatter_efficiency=0.35,  # no HW gather; scalar μops, OoO hides some
        scalar_efficiency=1.0,  # 4-wide out-of-order extracts full scalar ILP
    )
    caches = (
        CacheLevel("L1", 32 * KiB, 1.5 * NS, 12.6 * GB, 10.4 * GB),
        CacheLevel("L2", 256 * KiB, 4.6 * NS, 12.3 * GB, 9.5 * GB),
        CacheLevel("L3", 20 * MiB, 15.0 * NS, 11.6 * GB, 8.6 * GB, shared=True),
    )
    memory = MemorySpec(
        technology="DDR3-1600",
        capacity=16 * GiB,  # half of the node's 32 GB is local to each socket
        latency=81.0 * NS,
        read_bw_per_core=7.5 * GB,
        write_bw_per_core=7.2 * GB,
        peak_bandwidth=51.2 * GB,  # 4 channels × 1600 MT/s × 8 B
        stream_scalability=0.75,  # sustained triad ≈ 38 GB/s/socket, typical SNB
        n_channels=4,
    )
    return ProcessorSpec(
        name="Intel Xeon E5-2670",
        n_cores=8,
        core=core,
        cache_levels=caches,
        memory=memory,
        # HyperThreading: compute-intensive codes gain nothing and may lose
        # a little (MG: −6 % with 32 threads, Section 6.9.1.6).
        thread_throughput={1: 1.0, 2: 0.94},
        os_reserved_cores=0,
    )


def xeon_phi_5110p() -> ProcessorSpec:
    """One Intel Xeon Phi 5110P coprocessor."""
    core = CoreSpec(
        frequency=1.05 * GHZ,
        flops_per_cycle=16,  # 512-bit FMA: 8 DP lanes × 2 → 16.8 Gflop/s/core
        simd_width_bits=512,
        hw_threads=4,
        in_order=True,
        issue_width=2,
        # Vectorizing CG's gather/scatter sparse BLAS gained only ~10 % over
        # scalar (Section 6.8.1): gathered-vector rate ≈ 1.1 × the scalar
        # rate (1/8 lane × 0.4 ILP = 0.05 of peak) ≈ 0.055.
        gather_scatter_efficiency=0.055,
        # Two-wide in-order pipeline: dependent scalar chains stall hard.
        scalar_efficiency=0.4,
    )
    caches = (
        CacheLevel("L1", 32 * KiB, 2.9 * NS, 1680 * MB, 1538 * MB),
        CacheLevel("L2", 512 * KiB, 22.9 * NS, 971 * MB, 962 * MB),
    )
    memory = MemorySpec(
        technology="GDDR5-3400",
        capacity=8 * GiB,
        latency=295.0 * NS,
        read_bw_per_core=504 * MB,
        write_bw_per_core=263 * MB,
        peak_bandwidth=320 * GB,  # 16 channels × 5 GT/s × 4 B (Section 2.1)
        stream_scalability=0.5625,  # sustained 180 GB/s (Fig 4)
        n_banks=128,  # 16 banks/device × 8 devices (Section 6.1)
        bank_thrash_factor=140.0 / 180.0,  # 180 → 140 GB/s past 128 streams
        n_channels=16,
    )
    return ProcessorSpec(
        name="Intel Xeon Phi 5110P",
        n_cores=60,
        core=core,
        cache_levels=caches,
        memory=memory,
        # An in-order core cannot issue back-to-back instructions from one
        # thread (Section 2.1) → 1 thread/core reaches ≤ 50 % of issue slots.
        # 3/core is usually best for NPB, 4/core for BT/Cart3D (Secs 6.8–6.9).
        thread_throughput={1: 0.50, 2: 0.85, 3: 1.00, 4: 0.95},
        os_reserved_cores=1,  # core 60 runs OS services (Section 6.9.1.5)
        os_core_penalty=0.85,
    )


def sandy_bridge_host() -> ProcessorSpec:
    """Alias for the host socket spec (readability in experiment code)."""
    return sandy_bridge_processor()


def maia_host_processor() -> ProcessorSpec:
    """Both host sockets viewed as one 16-core complex.

    Convenience for runtimes that model a flat thread pool (the OpenMP
    team, NPB host runs at 16 threads).  The L3 is doubled (two 20 MB
    slices) and the memory system is the sum of both sockets' channels;
    NUMA effects beyond that are carried by the QPI model where they
    matter (OVERFLOW's 1×16 decomposition).
    """
    socket = sandy_bridge_processor()
    caches = (
        socket.cache_levels[0],
        socket.cache_levels[1],
        CacheLevel("L3", 40 * MiB, 15.0 * NS, 11.6 * GB, 8.6 * GB, shared=True),
    )
    memory = MemorySpec(
        technology="DDR3-1600 (2 sockets)",
        capacity=32 * GiB,
        latency=81.0 * NS,
        read_bw_per_core=7.5 * GB,
        write_bw_per_core=7.2 * GB,
        peak_bandwidth=102.4 * GB,
        stream_scalability=0.75,
        n_channels=8,
    )
    return ProcessorSpec(
        name="2x Intel Xeon E5-2670",
        n_cores=16,
        core=socket.core,
        cache_levels=caches,
        memory=memory,
        thread_throughput=socket.thread_throughput,
        os_reserved_cores=0,
    )


def maia_infiniband() -> InfiniBandSpec:
    """4x FDR InfiniBand (Table 1: 56 Gb/s)."""
    return InfiniBandSpec(signal_rate=56.0e9)


def _phi_pcie_spec() -> PcieSpec:
    """PCIe gen2 x16 into each Phi (Table 1).

    Raw 8 GB/s; 128 B TLP framing → 86 % (6.9 GB/s); measured offload
    plateau ≈ 6.4 GB/s ⇒ DMA efficiency ≈ 0.925 (Section 6.7).
    """
    return PcieSpec(
        gen=2,
        lanes=16,
        max_payload=128,
        tlp_overhead=20,
        dma_setup_latency=8.0 * US,
        dma_efficiency=0.925,
    )


def maia_node() -> MaiaNode:
    """One Maia node: 2 × E5-2670 + 2 × Phi 5110P with its PCIe topology."""
    host = sandy_bridge_processor()
    phi = xeon_phi_5110p()
    spec = NodeSpec(
        name="Maia node (SGI Rackable C1104G-RP5)",
        host=host,
        host_sockets=2,
        coprocessors=(phi, phi),
        host_memory=32 * GiB,
    )
    pcie = _phi_pcie_spec()
    links = {
        (Device.HOST, Device.PHI0): PcieLink(
            pcie, name="host-phi0", distance_factor=1.0, dip_depth=0.18
        ),
        (Device.HOST, Device.PHI1): PcieLink(
            pcie, name="host-phi1", distance_factor=0.97, dip_depth=0.18
        ),
        # Peer-to-peer between the Phis crosses both buses through the IOH;
        # the paper's MPI measurements show it is far slower than either
        # host link (444–899 MB/s at the MPI layer, Section 6.3.2).
        (Device.PHI0, Device.PHI1): PcieLink(
            pcie, name="phi0-phi1", distance_factor=0.75, dip_depth=0.18
        ),
    }
    return MaiaNode(spec, links)


def maia_system(n_nodes: int = 128) -> MaiaSystem:
    """The full Maia cluster (Table 1's system section)."""
    node = maia_node()
    ib = maia_infiniband()
    spec = SystemSpec(
        name="Maia",
        node=node.spec,
        n_nodes=n_nodes,
        interconnect_name="4x FDR InfiniBand (hypercube)",
        interconnect_peak=ib.data_bandwidth,
    )
    return MaiaSystem(spec, node, ib)
