"""Library checks behind the self-benchmark's ``fig22`` leg.

The self-benchmark itself (``benchmarks/bench_selfperf.py``) times the
``fig22`` campaign; these tests pin what it relies on in the library:
the paper's decomposition grid, campaign-pool payloads identical to
serial ones, and the exchange priced at every point.
"""

import json
import os

from repro.campaign import run_campaign
from repro.campaign.experiments import build_spec, fig22_points
from repro.paperdata import FIG22_OVERFLOW_NATIVE

#: The nine decompositions Fig 22 of the paper plots, pinned literally.
PAPER_FIG22 = [
    ("host", 16, 1), ("host", 8, 2), ("host", 4, 4), ("host", 2, 8),
    ("host", 1, 16),
    ("phi0", 4, 14), ("phi0", 4, 28), ("phi0", 8, 14), ("phi0", 8, 28),
]


def _fig22_run(tmp_path, workers=None):
    """The quick ``fig22`` campaign."""
    journal = os.path.join(str(tmp_path), f"fig22-{workers}.jsonl")
    return run_campaign(build_spec("fig22", quick=True), journal, workers=workers)


class TestCampaigns:
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

    def test_fig22_parallel_identical_to_serial(self, tmp_path):
        serial = _fig22_run(tmp_path)
        pooled = _fig22_run(tmp_path, workers=2)
        assert json.dumps(serial.results_payload()) == json.dumps(
            pooled.results_payload()
        )
        assert all(r.status == "ok" for r in serial.records)

    def test_fig22_points_carry_sim_validation(self, tmp_path):
        run = _fig22_run(tmp_path)
        multi_rank = [
            r.value for r in run.records
            if r.value.config["ranks"] * r.value.config["omp_threads"] > 1
        ]
        assert len(multi_rank) == len(PAPER_FIG22)
        assert all(m.config["exchange_elapsed_s"] > 0 for m in multi_rank)
