"""Reproduction tests for the microbenchmark layer: every figure's
qualitative claims (Figs 4–18) asserted against the models."""

import math

import pytest

from repro.machine import maia_host_processor, xeon_phi_5110p
from repro.microbench import (
    fig4_data,
    fig5_data,
    fig6_data,
    fig7_data,
    fig8_data,
    fig9_data,
    fig15_data,
    fig16_data,
    fig17_data,
    fig18_data,
    host_over_phi_factors,
    numpy_stream_triad,
)
from repro.microbench.mpifuncs import alltoall_max_feasible_size, factor_range
from repro.microbench.ompbench import simulated_barrier_overhead
from repro.microbench.pingpong import gain_in_regime
from repro.openmp.constructs import construct_overhead
from repro.paperdata import (
    FIG4_STREAM,
    FIG7_MPI_LATENCY,
    FIG8_MPI_BANDWIDTH_4MIB,
    FIG9_UPDATE_GAIN,
    FIG10_SENDRECV,
    FIG12_ALLREDUCE,
    FIG13_ALLGATHER,
    FIG14_ALLTOALL,
    FIG18_OFFLOAD_BW,
)
from repro.units import GB, KiB, MB, MiB


class TestFig4Stream:
    def test_paper_points(self):
        data = dict(fig4_data()["phi"])
        for threads, bw in FIG4_STREAM["phi_bw_by_threads"].items():
            assert data[threads] == pytest.approx(bw, rel=0.05)

    def test_drop_beyond_118_threads(self):
        data = dict(fig4_data()["phi"])
        assert data[177] < 0.85 * data[118]

    def test_real_numpy_stream_runs(self):
        bw = numpy_stream_triad(n=200_000, repeats=2)
        assert bw > 100 * MB  # any real machine beats 100 MB/s


class TestFig5And6Memory:
    def test_latency_staircase_shapes(self):
        data = fig5_data()
        host = dict(data["host"])
        phi = dict(data["phi"])
        # Host: four regions; Phi: three. Check plateau ordering.
        assert host[16 * KiB] < host[128 * KiB] < host[4 * MiB] < host[1024 * MiB]
        assert phi[16 * KiB] < phi[256 * KiB] < phi[64 * MiB]

    def test_bandwidth_read_geq_write_mostly(self):
        data = fig6_data()
        for dev in ("host", "phi"):
            read = dict(data[dev]["read"])
            write = dict(data[dev]["write"])
            assert read[16 * KiB] > write[16 * KiB]


class TestFig7To9Pcie:
    def test_latencies(self):
        data = fig7_data()
        for sw in ("pre", "post"):
            for path, lat in FIG7_MPI_LATENCY[sw].items():
                assert data[sw][path] == pytest.approx(lat, rel=0.02)

    def test_latency_asymmetry_phi1_worse(self):
        data = fig7_data()
        for sw in ("pre", "post"):
            assert data[sw]["host-phi1"] > data[sw]["host-phi0"]
            assert data[sw]["phi0-phi1"] > data[sw]["host-phi1"]

    def test_bandwidth_at_4mib(self):
        data = fig8_data()
        for sw in ("pre", "post"):
            for path, bw in FIG8_MPI_BANDWIDTH_4MIB[sw].items():
                model = dict(data[sw][path])[4 * MiB]
                assert model == pytest.approx(bw, rel=0.05), (sw, path)

    def test_pre_update_asymmetry_removed_post(self):
        data = fig8_data()
        pre0 = dict(data["pre"]["host-phi0"])[4 * MiB]
        pre1 = dict(data["pre"]["host-phi1"])[4 * MiB]
        post0 = dict(data["post"]["host-phi0"])[4 * MiB]
        post1 = dict(data["post"]["host-phi1"])[4 * MiB]
        assert pre0 > 3 * pre1  # the pre-update asymmetry
        assert post0 == pytest.approx(post1, rel=0.05)  # removed post-update

    def test_post_update_curves_have_three_regions(self):
        series = dict(fig8_data()["post"]["host-phi0"])
        # Bandwidth rises through eager, CCL-rendezvous and SCIF regimes.
        assert series[4 * KiB] < series[64 * KiB] < series[4 * MiB]

    @pytest.mark.parametrize(
        "path,regime",
        [(p, r) for p, regs in FIG9_UPDATE_GAIN.items() for r in regs],
    )
    def test_gain_bands(self, path, regime):
        lo, hi = gain_in_regime(path, regime)
        plo, phi_ = FIG9_UPDATE_GAIN[path][regime]
        # Model band must sit inside the paper band (with 15 % slack).
        assert lo >= plo * 0.85, (path, regime, lo)
        assert hi <= phi_ * 1.15, (path, regime, hi)


class TestFig10To14MpiFunctions:
    @pytest.mark.parametrize(
        "bench,band1,band4",
        [
            ("sendrecv", FIG10_SENDRECV["host_over_phi_1tpc"], FIG10_SENDRECV["host_over_phi_4tpc"]),
            ("allreduce", FIG12_ALLREDUCE["host_over_phi_1tpc"], FIG12_ALLREDUCE["host_over_phi_4tpc"]),
            ("allgather", FIG13_ALLGATHER["host_over_phi_1tpc"], FIG13_ALLGATHER["host_over_phi_4tpc"]),
            ("alltoall", FIG14_ALLTOALL["host_over_phi_1tpc"], FIG14_ALLTOALL["host_over_phi_4tpc"]),
        ],
    )
    def test_factor_ranges_inside_paper_bands(self, bench, band1, band4):
        lo1, hi1 = factor_range(bench, 1)
        assert lo1 >= band1[0] * 0.85, bench
        assert hi1 <= band1[1] * 1.15, bench
        lo4, hi4 = factor_range(bench, 4)
        assert lo4 >= band4[0] * 0.85, bench
        assert hi4 <= band4[1] * 1.15, bench

    def test_bcast_band_overlaps_paper(self):
        # Fig 11's "per core" factor quote is ambiguous; we assert overlap
        # at 1 tpc and ordering structure (documented in EXPERIMENTS.md).
        from repro.paperdata import FIG11_BCAST

        lo1, hi1 = factor_range("bcast", 1)
        plo, phi_ = FIG11_BCAST["host_over_phi_1tpc"]
        assert lo1 <= phi_ and hi1 >= plo  # ranges overlap

    def test_host_always_faster(self):
        for bench in ("sendrecv", "bcast", "allreduce", "allgather", "alltoall"):
            for tpc in (1, 4):
                lo, _ = factor_range(bench, tpc)
                assert lo > 1.0, (bench, tpc)

    def test_factors_worse_with_more_ranks_per_core(self):
        # "using more than one thread per core decreases the performance
        # drastically" — factors grow monotonically in tpc.
        for bench in ("sendrecv", "bcast", "allreduce"):
            highs = [factor_range(bench, tpc)[1] for tpc in (1, 2, 3, 4)]
            assert highs == sorted(highs), bench

    def test_alltoall_oom_at_4tpc_beyond_4kib(self):
        assert alltoall_max_feasible_size(4) == FIG14_ALLTOALL["oom_above"]

    def test_alltoall_1tpc_runs_much_larger(self):
        assert alltoall_max_feasible_size(1) >= 64 * KiB

    def test_allgather_factors_span_widest(self):
        # Fig 13's famous 68–1146 range: allgather's p-proportional data
        # makes the 236-rank Phi case catastrophically slower.
        _, hi = factor_range("allgather", 4)
        assert hi > 500


class TestFig15And16OpenMP:
    def test_phi_order_of_magnitude(self):
        data = fig15_data()
        ratios = [data["phi"][c] / data["host"][c] for c in data["host"]]
        assert sum(ratios) / len(ratios) > 7

    def test_reduction_max_atomic_min_both_platforms(self):
        data = fig15_data()
        for dev in ("host", "phi"):
            t = data[dev]
            assert max(t, key=t.get) == "REDUCTION"
            assert min(t, key=t.get) == "ATOMIC"

    def test_scheduling_order(self):
        data = fig16_data()
        for dev in ("host", "phi"):
            t = data[dev]
            assert t["STATIC"] < t["GUIDED"] < t["DYNAMIC"]

    def test_simulated_barrier_matches_model(self):
        # DES cross-check: the Team's measured barrier overhead is the
        # construct model's value (within scheduling noise).
        proc = maia_host_processor()
        measured = simulated_barrier_overhead(proc, 16)
        model = construct_overhead("BARRIER", proc, 16)
        assert measured == pytest.approx(model, rel=0.5)


class TestFig17Io:
    def test_ratios(self):
        data = fig17_data()
        assert data["host"]["write"] / data["phi0"]["write"] == pytest.approx(2.6, rel=0.1)
        assert data["host"]["read"] / data["phi0"]["read"] == pytest.approx(3.9, rel=0.1)

    def test_workaround_beats_native(self):
        data = fig17_data()
        assert data["phi0-via-host"]["write"] > 2 * data["phi0"]["write"]


class TestFig18OffloadBandwidth:
    def test_plateau_6_4_gbs(self):
        data = dict(fig18_data()["host-phi0"])
        assert data[256 * MiB] == pytest.approx(
            FIG18_OFFLOAD_BW["large_transfer_bw"], rel=0.03
        )

    def test_phi0_3pct_over_phi1(self):
        d = fig18_data()
        bw0 = dict(d["host-phi0"])[64 * MiB]
        bw1 = dict(d["host-phi1"])[64 * MiB]
        assert bw0 / bw1 == pytest.approx(FIG18_OFFLOAD_BW["phi0_over_phi1"], abs=0.01)

    def test_dip_at_64kib(self):
        series = dict(fig18_data()["host-phi0"])
        assert series[64 * KiB] < series[16 * KiB] or series[64 * KiB] < series[256 * KiB]
        # The dip recovers: 256 KiB is clearly faster than 64 KiB.
        assert series[256 * KiB] > 1.1 * series[64 * KiB]
