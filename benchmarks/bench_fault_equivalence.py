"""Fault-equivalence gate: the pre-update stack as an injected fault.

The paper's Figs 7–9 compare two *software environments*; ``repro.faults``
expresses the worse one as a :class:`~repro.faults.FaultPlan` of link
degradations applied to the post-update baseline.  This gate requires the
degraded model to reproduce the paper's **pre-update** numbers at the
same tolerances the Figs 7–9 gates of ``repro.figures`` hold the calibrated
pre-update fabric to — i.e. injecting the fault is indistinguishable
from modelling the old stack directly.
"""

from benchmarks.conftest import emit
from repro.core.report import band_str, figure_header, fmt_rate, render_table
from repro.core.software import POST_UPDATE
from repro.faults import pre_update_plan
from repro.microbench.pingpong import default_message_sizes
from repro.mpi.protocols import pcie_fabric
from repro.paperdata import (
    FIG7_MPI_LATENCY,
    FIG8_MPI_BANDWIDTH_4MIB,
    FIG9_UPDATE_GAIN,
)
from repro.units import KiB, MiB, US

PATHS = ("host-phi0", "host-phi1", "phi0-phi1")


def _fabrics():
    """(healthy post-update, degraded-to-pre-update) per path."""
    plan = pre_update_plan()
    out = {}
    for path in PATHS:
        post = pcie_fabric(path, POST_UPDATE)
        out[path] = (post, plan.degrade(post))
    return out


def test_fault_latency_matches_fig07(benchmark):
    fabrics = benchmark(_fabrics)
    rows = []
    for path, (_post, degraded) in fabrics.items():
        paper = FIG7_MPI_LATENCY["pre"][path]
        model = degraded.latency()
        rows.append((path, f"{paper / US:.1f}", f"{model / US:.2f}"))
        assert abs(model - paper) / paper < 0.03, path
    emit(figure_header("Fault equivalence", "degraded latency vs Fig 7 pre (µs)"))
    emit(render_table(("path", "paper pre", "degraded post"), rows))


def test_fault_bandwidth_matches_fig08(benchmark):
    fabrics = benchmark(_fabrics)
    rows = []
    for path, (_post, degraded) in fabrics.items():
        paper = FIG8_MPI_BANDWIDTH_4MIB["pre"][path]
        model = degraded.bandwidth(4 * MiB)
        rows.append((path, fmt_rate(paper), fmt_rate(model)))
        assert abs(model - paper) / paper < 0.05, path
    emit(figure_header("Fault equivalence", "degraded 4 MiB bandwidth vs Fig 8 pre"))
    emit(render_table(("path", "paper pre", "degraded post"), rows))


def test_fault_gain_matches_fig09(benchmark):
    fabrics = benchmark(_fabrics)
    sizes = default_message_sizes()
    rows = []
    checks = []
    for path, regimes in FIG9_UPDATE_GAIN.items():
        post, degraded = fabrics[path]
        for regime, (plo, phi_) in regimes.items():
            ns = [
                n for n in sizes
                if (n <= 256 * KiB if regime == "small_medium" else n > 256 * KiB)
            ]
            gains = [post.bandwidth(n) / degraded.bandwidth(n) for n in ns]
            lo, hi = min(gains), max(gains)
            ok = lo >= plo * 0.85 and hi <= phi_ * 1.15
            checks.append(ok)
            rows.append(
                (path, regime, band_str(plo, phi_), band_str(lo, hi),
                 "ok" if ok else "X")
            )
    emit(figure_header("Fault equivalence", "post/degraded gain vs Fig 9 bands"))
    emit(render_table(("path", "regime", "paper band", "model band", "check"), rows))
    assert all(checks)


def test_degraded_fabric_is_exactly_pre_update():
    """Beyond tolerance bands: the degradation factors are derived from
    the same calibration constants, so degraded-post pricing equals
    pre-update pricing to float exactness at every size."""
    from repro.core.software import PRE_UPDATE

    plan = pre_update_plan()
    for path in PATHS:
        pre = pcie_fabric(path, PRE_UPDATE)
        degraded = plan.degrade(pcie_fabric(path, POST_UPDATE))
        for n in (1, 512, 8 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB):
            assert degraded.p2p_time(n) == pre.p2p_time(n), (path, n)
