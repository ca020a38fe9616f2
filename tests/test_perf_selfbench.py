"""Tests for the self-benchmark campaigns (repro.perf.selfbench)."""

import json

import pytest

from repro.campaign.experiments import fig22_points
from repro.paperdata import FIG22_OVERFLOW_NATIVE
from repro.perf.selfbench import (
    allreduce_campaign,
    engine_storm,
    fig22_campaign,
    mg_cache_campaign,
    report_failures,
    run_selfperf,
    spawn_join_storm,
)

#: The nine decompositions Fig 22 of the paper plots, pinned literally.
PAPER_FIG22 = [
    ("host", 16, 1), ("host", 8, 2), ("host", 4, 4), ("host", 2, 8),
    ("host", 1, 16),
    ("phi0", 4, 14), ("phi0", 4, 28), ("phi0", 8, 14), ("phi0", 8, 28),
]


class TestCampaigns:
    def test_allreduce_sums_are_correct(self):
        points = allreduce_campaign(quick=True)
        assert len(points) == 2
        assert all(p["correct"] for p in points)
        assert all(p["sim_elapsed"] > 0 for p in points)

    def test_allreduce_time_grows_with_ranks(self):
        points = {p["ranks"]: p["sim_elapsed"] for p in allreduce_campaign(quick=True)}
        assert points[64] > points[16]

    def test_mg_cache_campaign_all_hits_on_second_pass(self):
        report = mg_cache_campaign(quick=True)
        assert report["identical"]
        # Two passes over the same grid: second pass is all hits.
        assert report["cache"]["hits"] == report["cache"]["misses"]
        assert report["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_fig22_quick_grid_is_the_paper_grid(self):
        from repro.apps import OverflowModel, dataset

        paper = [("host", i, j) for i, j in FIG22_OVERFLOW_NATIVE["host_configs"]]
        paper += [("phi0", i, j) for i, j in FIG22_OVERFLOW_NATIVE["phi_configs"]]
        assert paper == PAPER_FIG22
        assert fig22_points(quick=True) == PAPER_FIG22
        fig = OverflowModel(dataset("DLRF6-Medium")).figure22()
        assert list(fig) == PAPER_FIG22

    def test_fig22_full_grid_covers_both_devices(self):
        grid = fig22_points(quick=False)
        devices = {d for d, _, _ in grid}
        assert devices == {"host", "phi0"}
        assert len(grid) == 49
        assert set(PAPER_FIG22) <= set(grid)
        # Every point respects the device thread budget by construction.
        assert all(i * j <= 32 for d, i, j in grid if d == "host")
        assert all(i * j <= 236 for d, i, j in grid if d == "phi0")

    def test_fig22_parallel_identical_to_serial(self):
        serial = fig22_campaign(quick=True, workers=1)
        par = fig22_campaign(quick=True, workers=2)
        assert json.dumps(serial.results_payload()) == json.dumps(
            par.results_payload()
        )
        assert all(r.status == "ok" for r in serial.records)

    def test_fig22_points_carry_sim_validation(self):
        run = fig22_campaign(quick=True)
        multi_rank = [
            r.value for r in run.records
            if r.value.config["ranks"] * r.value.config["omp_threads"] > 1
        ]
        assert len(multi_rank) == len(PAPER_FIG22)
        assert all(m.config["exchange_elapsed_s"] > 0 for m in multi_rank)

    def test_engine_storm_linear_steps(self):
        report = engine_storm(quick=True)
        assert report["engine_steps"] == 2 * report["processes"]

    def test_spawn_join_storm_deterministic(self):
        assert spawn_join_storm(200) == spawn_join_storm(200)


class TestHarness:
    def test_run_selfperf_writes_report(self, tmp_path):
        out = tmp_path / "selfperf.json"
        report = run_selfperf(workers=1, quick=True, output=str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk["schema"] == report["schema"] == 1
        assert set(on_disk["campaigns"]) == {
            "allreduce", "mg_sweep", "fig22", "fig22_batch", "engine_storm",
        }
        assert on_disk["campaigns"]["fig22_batch"]["identical"]

    def test_run_selfperf_scale_campaign_is_opt_in(self, tmp_path):
        report = run_selfperf(workers=1, quick=True, output=None, scale=True)
        scale = report["campaigns"]["scale"]
        assert scale["correct"] and scale["ranks"] == 512

    def test_run_selfperf_records_speedup_fields(self):
        report = run_selfperf(workers=2, quick=True, output=None)
        fig22 = report["campaigns"]["fig22"]
        assert fig22["identical"]
        assert "speedup" in fig22
        assert fig22["serial_wall_s"] > 0
        assert fig22["parallel_wall_s"] > 0

    def test_report_failures_names_each_broken_check(self):
        report = run_selfperf(workers=1, quick=True, output=None)
        assert report_failures(report) == []
        fig22 = report["campaigns"]["fig22"]
        fig22["identical"] = False
        fig22["feasible"] -= 1
        report["campaigns"]["scale"] = {"correct": False}
        assert len(report_failures(report)) == 3
