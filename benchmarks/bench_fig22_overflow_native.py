"""Figure 22 — OVERFLOW (DLRF6-Medium) native: (I MPI × J OpenMP) sweep."""

from benchmarks.conftest import emit
from repro.apps import OverflowModel, dataset
from repro.core.report import figure_header, render_table
from repro.paperdata import FIG22_OVERFLOW_NATIVE


def _sweep(model):
    fig = model.figure22()
    host = {(i, j): m.time for (d, i, j), m in fig.items() if d == "host"}
    phi = {(i, j): m.time for (d, i, j), m in fig.items() if d == "phi0"}
    return host, phi


def test_fig22_overflow_native(benchmark):
    model = OverflowModel(dataset("DLRF6-Medium"))
    host, phi = benchmark(_sweep, model)
    rows = [("host", f"{i}x{j}", f"{t:.3f}") for (i, j), t in host.items()]
    rows += [("phi", f"{i}x{j}", f"{t:.3f}") for (i, j), t in phi.items()]
    emit(figure_header("Figure 22", "OVERFLOW DLRF6-Medium: seconds per step"))
    emit(render_table(("device", "IxJ", "time/step"), rows))
    emit("paper: host best 16x1 / worst 1x16; Phi best 8x28 / worst 4x14; gap 1.8x")

    assert min(host, key=host.get) == FIG22_OVERFLOW_NATIVE["host_best"]
    assert max(host, key=host.get) == FIG22_OVERFLOW_NATIVE["host_worst"]
    assert min(phi, key=phi.get) == FIG22_OVERFLOW_NATIVE["phi_best"]
    assert max(phi, key=phi.get) == FIG22_OVERFLOW_NATIVE["phi_worst"]
    gap = min(phi.values()) / min(host.values())
    assert abs(gap - FIG22_OVERFLOW_NATIVE["host_over_phi_best"]) / 1.8 < 0.12
