"""Every quantitative result the paper reports, as structured data.

This module is the reproduction's ground truth: benchmark harnesses print
model-vs-paper tables from it, and the reproduction tests assert the
paper's qualitative claims against the model using these values.  Numbers
are transcribed from the text of Saini et al., SC'13; section/figure
references are given next to each block.

Conventions: times in seconds, sizes in bytes, bandwidths in bytes/s,
compute rates in flop/s.  Ranges the paper quotes ("a factor of 2 to
3.8") are ``(lo, hi)`` tuples.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.units import GB, GFLOP, KiB, MB, MiB, NS, US

# --------------------------------------------------------------------------
# Table 1 — system characteristics
# --------------------------------------------------------------------------

TABLE1 = {
    "host": {
        "processor": "Intel Xeon E5-2670",
        "architecture": "Sandy Bridge",
        "cores_per_processor": 8,
        "base_frequency_ghz": 2.60,
        "turbo_frequency_ghz": 3.20,
        "flops_per_clock": 8,
        "perf_per_core_gflops": 20.8,
        "processor_perf_gflops": 166.4,
        "simd_width_bits": 256,
        "threads_per_core": 2,
        "l1_per_core": 32 * KiB,  # data (plus 32 KiB instruction)
        "l2_per_core": 256 * KiB,
        "l3_shared": 20 * MiB,
        "memory_per_node": 32 * GB,
        "memory_type": "4 channels DDR3-1600",
        "qpi_gt_per_s": 8.0,
        "n_qpi": 2,
        "pcie": "40 lanes integrated PCIe 3.0, 8 GT/s",
    },
    "phi": {
        "processor": "Intel Xeon Phi 5110P",
        "architecture": "Many Integrated Core",
        "cores_per_processor": 60,
        "base_frequency_ghz": 1.05,
        "flops_per_clock": 16,
        "perf_per_core_gflops": 16.8,
        "processor_perf_gflops": 1008.0,
        "simd_width_bits": 512,
        "threads_per_core": 4,
        "l1_per_core": 32 * KiB,
        "l2_per_core": 512 * KiB,
        "memory_per_card": 8 * GB,
        "memory_type": "GDDR5-3400",
        "pcie": "16 lanes integrated PCIe 2.0, 5 GT/s",
    },
    "system": {
        "n_nodes": 128,
        "host_cores_total": 2048,
        "phi_cores_total": 15360,
        "host_peak_tflops": 42.6,
        "phi_peak_tflops": 258.0,  # text also says 258.8
        "total_peak_tflops": 301.4,
        "host_flops_pct": 14,
        "phi_flops_pct": 86,
        "host_memory_tb": 4,
        "phi_memory_tb": 2,
        "interconnect": "4x FDR InfiniBand, hypercube",
        "filesystem": "Lustre",
    },
    # Total cache per core: Phi 544 KiB vs host 2.788 MiB → factor 5.1 (Sec 6.2)
    "cache_per_core_ratio": 5.1,
}

# --------------------------------------------------------------------------
# Figure 4 — STREAM triad total bandwidth (Section 6.1)
# --------------------------------------------------------------------------

FIG4_STREAM = {
    # Phi aggregate triad bandwidth by thread count (1 thread/core = 59, …)
    "phi_bw_by_threads": {59: 180 * GB, 118: 180 * GB, 177: 140 * GB, 236: 140 * GB},
    "phi_peak_threads": (59, 118),
    "phi_drop_after_threads": 118,
    "gddr5_open_banks": 128,
}

# --------------------------------------------------------------------------
# Figures 5–6 — memory load latency / per-core bandwidth (Section 6.2)
# --------------------------------------------------------------------------

FIG5_LATENCY = {
    "host": {"L1": 1.5 * NS, "L2": 4.6 * NS, "L3": 15 * NS, "MEM": 81 * NS},
    "phi": {"L1": 2.9 * NS, "L2": 22.9 * NS, "MEM": 295 * NS},
    "host_regions": {"L1": 32 * KiB, "L2": 256 * KiB, "L3": 20 * MiB},
    "phi_regions": {"L1": 32 * KiB, "L2": 512 * KiB},
}

FIG6_BANDWIDTH = {
    "host": {
        "write": {"L1": 10.4 * GB, "L2": 9.5 * GB, "L3": 8.6 * GB, "MEM": 7.2 * GB},
        "read": {"L1": 12.6 * GB, "L2": 12.3 * GB, "L3": 11.6 * GB, "MEM": 7.5 * GB},
    },
    "phi": {
        "write": {"L1": 1538 * MB, "L2": 962 * MB, "MEM": 263 * MB},
        "read": {"L1": 1680 * MB, "L2": 971 * MB, "MEM": 504 * MB},
    },
}

# --------------------------------------------------------------------------
# Figures 7–9 — MPI latency/bandwidth over PCIe, pre/post update (Sec 5, 6.3)
# --------------------------------------------------------------------------

FIG7_MPI_LATENCY = {
    "pre": {"host-phi0": 3.3 * US, "host-phi1": 4.6 * US, "phi0-phi1": 6.3 * US},
    "post": {"host-phi0": 3.3 * US, "host-phi1": 4.1 * US, "phi0-phi1": 6.6 * US},
}

FIG8_MPI_BANDWIDTH_4MIB = {
    "pre": {"host-phi0": 1.6 * GB, "host-phi1": 455 * MB, "phi0-phi1": 444 * MB},
    "post": {"host-phi0": 6.0 * GB, "host-phi1": 6.0 * GB, "phi0-phi1": 899 * MB},
}

# DAPL provider switching (Section 5)
DAPL_THRESHOLDS = {"eager_max": 8 * KiB, "ccl_rendezvous_max": 256 * KiB}

FIG9_UPDATE_GAIN = {
    # post/pre bandwidth ratio ranges by message-size regime
    "host-phi0": {"small_medium": (1.0, 1.5), "large": (2.0, 3.8)},
    "host-phi1": {"small_medium": (1.0, 1.3), "large": (7.0, 13.0)},
    "phi0-phi1": {"large": (1.8, 2.0)},
}

# --------------------------------------------------------------------------
# Figures 10–14 — intra-device MPI functions (Section 6.4)
# host(16 ranks) vs Phi0(59–236 ranks); ranges are host-over-Phi factors.
# --------------------------------------------------------------------------

FIG10_SENDRECV = {"host_over_phi_1tpc": (1.3, 3.5), "host_over_phi_4tpc": (24.0, 54.0)}
FIG11_BCAST = {
    "host_over_phi_1tpc": (1.1, 3.8),
    "host_over_phi_4tpc": (20.0, 35.0),  # per-core basis in the paper
    "cart3d_message": 56 * MB,
}
FIG12_ALLREDUCE = {
    "host_over_phi_1tpc": (2.2, 13.4),
    "host_over_phi_4tpc": (28.0, 104.0),
}
FIG13_ALLGATHER = {
    "host_over_phi_1tpc": (2.6, 17.1),
    "host_over_phi_4tpc": (68.0, 1146.0),
    "algorithm_jump_sizes": (2 * KiB, 4 * KiB),
}
FIG14_ALLTOALL = {
    "host_over_phi_1tpc": (8.0, 20.0),
    "host_over_phi_4tpc": (1003.0, 2603.0),
    "oom_above": 4 * KiB,  # at 236 ranks
}

# --------------------------------------------------------------------------
# Figures 15–16 — OpenMP overheads (Section 6.5)
# --------------------------------------------------------------------------

FIG15_OMP_SYNC = {
    "phi_over_host_order": 10.0,  # "almost an order of magnitude"
    "most_expensive": "REDUCTION",
    "then": ("PARALLEL_FOR", "PARALLEL"),
    "least_expensive": "ATOMIC",
    "host_threads": 16,
    "phi_threads": 236,
}

FIG16_OMP_SCHED = {
    "order": ("STATIC", "GUIDED", "DYNAMIC"),  # lowest → highest overhead
    "phi_over_host_order": 10.0,
}

# --------------------------------------------------------------------------
# Figure 17 — sequential I/O (Section 6.6)
# --------------------------------------------------------------------------

FIG17_IO = {
    "host": {"write": 210 * MB, "read": 295 * MB},
    "phi0": {"write": 80 * MB, "read": 75 * MB},
    "host_over_phi_write": 2.6,
    "host_over_phi_read": 3.9,
}

# --------------------------------------------------------------------------
# Figure 18 — offload bandwidth over PCIe (Section 6.7)
# --------------------------------------------------------------------------

FIG18_OFFLOAD_BW = {
    "framing": {64: 0.76, 128: 0.86},  # payload bytes → max efficiency
    "framed_rate": {64: 6.1 * GB, 128: 6.9 * GB},
    "large_transfer_bw": 6.4 * GB,
    "phi0_over_phi1": 1.03,
    "dip_at": 64 * KiB,
}

# --------------------------------------------------------------------------
# Figures 19–20 — NPB Class C (Section 6.8)
# --------------------------------------------------------------------------

FIG19_NPB_OMP = {
    "host_beats_phi_except": ("MG",),
    "best_on_phi": "BT",
    "worst_on_phi": "CG",
    "usual_best_tpc": 3,
    "cg_gather_scatter_gain": 0.10,  # vectorized sparse BLAS only 10 % faster
}

FIG20_NPB_MPI = {
    "power_of_two": ("CG", "MG", "FT", "LU"),
    "square_counts": ("BT", "SP"),
    "phi_rank_counts_pow2": (64, 128),
    "phi_rank_counts_square": (64, 121, 169, 225),
    "ft_oom": {"needs": 10 * GB, "has": 8 * GB},
    "bt_best_tpc": 4,
}

# --------------------------------------------------------------------------
# Figures 21–23 — applications (Section 6.9)
# --------------------------------------------------------------------------

FIG21_CART3D = {
    "dataset": "OneraM6, 6M grid points",
    "host_over_best_phi": 2.0,
    "best_tpc": 4,
    "host_threads": 16,
    "phi_threads": (59, 118, 177, 236),
}

FIG22_OVERFLOW_NATIVE: Dict[str, Any] = {
    "dataset": "DLRF6-Medium, 10.8M grid points",
    # The decompositions the figure plots, as (MPI ranks I, OpenMP threads J).
    "host_configs": ((16, 1), (8, 2), (4, 4), (2, 8), (1, 16)),
    "phi_configs": ((4, 14), (4, 28), (8, 14), (8, 28)),
    "host_best": (16, 1),
    "host_worst": (1, 16),
    "phi_best": (8, 28),
    "phi_worst": (4, 14),
    "host_over_phi_best": 1.8,
}

FIG23_OVERFLOW_SYMMETRIC = {
    "dataset": "DLRF6-Large, 35.9M grid points, 23 zones",
    "postupdate_gain_pct": (2.0, 28.0),
    "speedup_vs_host_native": 1.9,
    "beats_two_hosts": False,
    "compute_part_speedup_vs_two_hosts": 1.15,
    "best_decomposition": {"host": (8, 1), "phi": (8, 28)},
}

# --------------------------------------------------------------------------
# Figures 24–27 — MG offload study (Sections 6.9.1.4–6.9.1.7)
# --------------------------------------------------------------------------

FIG24_COLLAPSE = {
    "phi_gain": (0.25, 0.28),
    "host_16thr_loss": 0.01,
    "good_thread_counts": (59, 118, 177, 236),
    "bad_thread_counts": (60, 120, 180, 240),
}

FIG25_MG_MODES = {
    "host_16thr_gflops": 23.5 * GFLOP,
    "host_32thr_gflops": 22.2 * GFLOP,  # HT −6 %
    "phi_177thr_gflops": 29.9 * GFLOP,
    "phi_over_host_gain": 0.27,
    "offload_versions": ("loop", "subroutine", "whole"),
    "offload_slower_than_native": True,
}

FIG26_OFFLOAD_OVERHEAD = {
    # overhead ordering: offloading one loop worst, whole computation best
    "worst": "loop",
    "best": "whole",
    "components": ("host_setup", "pcie_transfer", "phi_setup"),
}

FIG27_OFFLOAD_COST = {
    # invocation count and transferred volume, maximal for the loop version
    "max_invocations": "loop",
    "min_invocations": "whole",
    "max_data": "loop",
    "min_data": "whole",
}

# --------------------------------------------------------------------------
# Applications / datasets (Section 3.7)
# --------------------------------------------------------------------------

DATASETS = {
    "DLRF6-Large": {
        "zones": 23,
        "grid_points": 35_900_000,
        "input_gb": 1.6,
        "solution_gb": 2.0,
    },
    "DLRF6-Medium": {"grid_points": 10_800_000},
    "OneraM6": {"grid_points": 6_000_000},
}
