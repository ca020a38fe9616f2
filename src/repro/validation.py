"""Programmatic reproduction validation: every paper claim, one verdict each.

:func:`validate_all` runs the full claim battery — the same checks the
figure benchmarks assert, packaged as data so tooling (the CLI's
``validate`` command, CI dashboards, EXPERIMENTS.md regeneration) can
consume them.  Each :class:`Claim` records the figure, the paper's
statement, the model's measured value, and a pass/fail verdict.

This module is intentionally *read-only* over the models: it never tunes
anything, it only asks whether the calibrated system still reproduces
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.units import GB, KiB, MiB


@dataclass(frozen=True)
class Claim:
    """One validated statement from the paper."""

    figure: str
    statement: str
    expected: str
    measured: str
    passed: bool


class ClaimSet:
    """Accumulates claims and summarizes them."""

    def __init__(self) -> None:
        self.claims: List[Claim] = []

    def check(
        self, figure: str, statement: str, expected: str, measured: str, ok: bool
    ) -> None:
        self.claims.append(Claim(figure, statement, expected, measured, bool(ok)))

    def band(
        self, figure: str, statement: str, lo: float, hi: float, value: float,
        slack: float = 0.15,
    ) -> None:
        ok = lo * (1 - slack) <= value <= hi * (1 + slack)
        self.check(figure, statement, f"{lo:.3g}..{hi:.3g}", f"{value:.3g}", ok)

    def approx(
        self, figure: str, statement: str, expected: float, value: float,
        rel: float = 0.05,
    ) -> None:
        ok = abs(value - expected) <= rel * abs(expected)
        self.check(figure, statement, f"{expected:.4g}", f"{value:.4g}", ok)

    @property
    def n_passed(self) -> int:
        return sum(c.passed for c in self.claims)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def failures(self) -> List[Claim]:
        return [c for c in self.claims if not c.passed]


def _validate_memory(cs: ClaimSet) -> None:
    from repro.machine import Processor, sandy_bridge_processor, xeon_phi_5110p

    host = Processor(sandy_bridge_processor(), sockets=2)
    phi = Processor(xeon_phi_5110p())
    cs.approx(
        "Fig 4", "Phi STREAM at 59 threads (GB/s)", 180, phi.stream_bandwidth(59) / GB
    )
    cs.approx(
        "Fig 4",
        "Phi STREAM at 177 threads (GB/s)",
        140,
        phi.stream_bandwidth(177) / GB,
    )
    cs.approx("Fig 5", "host L1 latency (ns)", 1.5, host.load_latency(16 * KiB) * 1e9)
    cs.approx(
        "Fig 5",
        "Phi memory latency (ns)",
        295,
        phi.load_latency(1 << 30) * 1e9,
        rel=0.06,
    )
    cs.approx("Fig 6", "host per-core read bw at MEM (GB/s)", 7.5,
              host.load_bandwidth(1 << 30, "read") / GB, rel=0.06)
    cs.approx("Fig 6", "Phi per-core read bw at MEM (MB/s)", 504,
              phi.load_bandwidth(1 << 30, "read") / 1e6, rel=0.06)


def _validate_pcie(cs: ClaimSet) -> None:
    from repro.core.software import POST_UPDATE, PRE_UPDATE
    from repro.microbench.pingpong import gain_in_regime
    from repro.mpi.protocols import pcie_fabric

    cs.approx("Fig 7", "host-phi0 latency (µs)", 3.3,
              pcie_fabric("host-phi0", POST_UPDATE).latency() * 1e6, rel=0.03)
    cs.approx("Fig 8", "pre-update host-phi0 bw @4MiB (GB/s)", 1.6,
              pcie_fabric("host-phi0", PRE_UPDATE).bandwidth(4 * MiB) / GB)
    cs.approx("Fig 8", "post-update host-phi0 bw @4MiB (GB/s)", 6.0,
              pcie_fabric("host-phi0", POST_UPDATE).bandwidth(4 * MiB) / GB)
    lo, hi = gain_in_regime("host-phi1", "large")
    cs.band("Fig 9", "host-phi1 large-message gain", 7.0, 13.0, lo)
    cs.band("Fig 9", "host-phi1 large-message gain (hi)", 7.0, 13.0, hi)


def _validate_mpi_functions(cs: ClaimSet) -> None:
    from repro.microbench.mpifuncs import alltoall_max_feasible_size, factor_range
    from repro.paperdata import (
        FIG10_SENDRECV,
        FIG12_ALLREDUCE,
        FIG13_ALLGATHER,
        FIG14_ALLTOALL,
    )

    bands = {
        "sendrecv": FIG10_SENDRECV,
        "allreduce": FIG12_ALLREDUCE,
        "allgather": FIG13_ALLGATHER,
        "alltoall": FIG14_ALLTOALL,
    }
    for bench, paper in bands.items():
        for tpc, key in ((1, "host_over_phi_1tpc"), (4, "host_over_phi_4tpc")):
            lo, hi = factor_range(bench, tpc)
            plo, phi_ = paper[key]
            cs.check(
                "Fig 10-14", f"{bench} factor band at {tpc} rank/core",
                f"{plo:.3g}..{phi_:.3g}", f"{lo:.3g}..{hi:.3g}",
                lo >= plo * 0.85 and hi <= phi_ * 1.15,
            )
    cs.check("Fig 14", "alltoall OOM beyond 4 KiB at 236 ranks", "4096",
             str(alltoall_max_feasible_size(4)),
             alltoall_max_feasible_size(4) == 4 * KiB)


def _validate_openmp(cs: ClaimSet) -> None:
    from repro.microbench.ompbench import fig15_data, fig16_data

    sync = fig15_data()
    ratios = [sync["phi"][c] / sync["host"][c] for c in sync["host"]]
    cs.check("Fig 15", "Phi sync overhead ≈ order of magnitude higher",
             "> 7x mean", f"{sum(ratios) / len(ratios):.1f}x",
             sum(ratios) / len(ratios) > 7)
    for dev in ("host", "phi"):
        t = sync[dev]
        cs.check("Fig 15", f"{dev}: REDUCTION worst / ATOMIC best",
                 "REDUCTION, ATOMIC",
                 f"{max(t, key=t.get)}, {min(t, key=t.get)}",
                 max(t, key=t.get) == "REDUCTION" and min(t, key=t.get) == "ATOMIC")
    sched = fig16_data()
    for dev in ("host", "phi"):
        t = sched[dev]
        ordered = t["STATIC"] < t["GUIDED"] < t["DYNAMIC"]
        cs.check(
            "Fig 16",
            f"{dev}: STATIC < GUIDED < DYNAMIC",
            "ordered",
            "ordered" if ordered else "violated",
            ordered,
        )


def _validate_io_offload(cs: ClaimSet) -> None:
    from repro.io.seqrw import SeqRWBenchmark
    from repro.machine import Device, maia_node

    bench = SeqRWBenchmark()
    cs.approx("Fig 17", "host/phi write ratio", 2.6,
              bench.plateau("host", "write") / bench.plateau("phi0", "write"), rel=0.1)
    cs.approx("Fig 17", "host/phi read ratio", 3.9,
              bench.plateau("host", "read") / bench.plateau("phi0", "read"), rel=0.1)
    link = maia_node().link(Device.HOST, Device.PHI0)
    cs.approx(
        "Fig 18", "offload plateau (GB/s)", 6.4, link.bandwidth(1 << 28) / GB, rel=0.03
    )


def _validate_npb(cs: ClaimSet) -> None:
    from repro.core import Evaluator
    from repro.errors import OutOfMemoryError
    from repro.machine import Device
    from repro.npb.characterization import OPENMP_BENCHMARKS, class_c_kernel

    ev = Evaluator()
    ratios: Dict[str, float] = {}
    for b in OPENMP_BENCHMARKS:
        k = class_c_kernel(b)
        host = ev.native(Device.HOST, k, 16).gflops
        best = max(
            ev.native(Device.PHI0, k, 59 * t).gflops for t in (1, 2, 3, 4)
        )
        ratios[b] = best / host
    cs.check("Fig 19", "host beats Phi except MG",
             "only MG > 1", ", ".join(b for b, r in ratios.items() if r > 1),
             all((r > 1) == (b == "MG") for b, r in ratios.items()))
    without_mg = {b: r for b, r in ratios.items() if b != "MG"}
    cs.check("Fig 19", "BT best / CG worst on Phi", "BT, CG",
             f"{max(without_mg, key=without_mg.get)}, {min(ratios, key=ratios.get)}",
             max(without_mg, key=without_mg.get) == "BT"
             and min(ratios, key=ratios.get) == "CG")
    mg = class_c_kernel("MG")
    cs.approx("Fig 25", "MG native host Gflop/s", 23.5,
              ev.native(Device.HOST, mg, 16).gflops)
    cs.approx("Fig 25", "MG native Phi Gflop/s", 29.9,
              ev.native(Device.PHI0, mg, 177).gflops)
    try:
        ev.native(Device.PHI0, class_c_kernel("FT", mpi=True), 128)
        ft_oom = False
    except OutOfMemoryError:
        ft_oom = True
    cs.check("Fig 20", "FT Class C cannot run on the Phi under MPI",
             "OutOfMemoryError", "raised" if ft_oom else "ran", ft_oom)


def _validate_apps(cs: ClaimSet) -> None:
    from repro.apps import Cart3dModel, OverflowModel, dataset
    from repro.core.software import POST_UPDATE, PRE_UPDATE
    from repro.machine import Device

    fig21 = Cart3dModel().figure21()
    best_phi = min(v.time for k, v in fig21.items() if k.startswith("phi"))
    cs.approx("Fig 21", "Cart3D host over best Phi", 2.0,
              best_phi / fig21["host-16"].time, rel=0.1)

    fig22 = OverflowModel(dataset("DLRF6-Medium")).figure22()
    h = {(i, j): m.time for (d, i, j), m in fig22.items() if d == "host"}
    p = {(i, j): m.time for (d, i, j), m in fig22.items() if d == "phi0"}
    cs.check("Fig 22", "host best 16x1, Phi best 8x28", "(16,1), (8,28)",
             f"{min(h, key=h.get)}, {min(p, key=p.get)}",
             min(h, key=h.get) == (16, 1) and min(p, key=p.get) == (8, 28))
    cs.approx("Fig 22", "best host over best Phi", 1.8,
              min(p.values()) / min(h.values()), rel=0.12)

    large = OverflowModel(dataset("DLRF6-Large"))
    host_native = large.native_step(Device.HOST, 16, 1).time
    sym = large.symmetric_step(POST_UPDATE)
    pre = large.symmetric_step(PRE_UPDATE)
    two = large.two_host_step()
    cs.approx("Fig 23", "symmetric speedup vs host native", 1.9,
              host_native / sym["total"], rel=0.08)
    gain = pre["total"] / sym["total"] - 1
    cs.band("Fig 23", "post-update gain (%)", 2, 28, gain * 100, slack=0.0)
    cs.check("Fig 23", "symmetric loses to two hosts", "slower",
             "slower" if sym["total"] > two["total"] else "faster",
             sym["total"] > two["total"])


VALIDATORS: List[Callable[[ClaimSet], None]] = [
    _validate_memory,
    _validate_pcie,
    _validate_mpi_functions,
    _validate_openmp,
    _validate_io_offload,
    _validate_npb,
    _validate_apps,
]


def validate_all() -> ClaimSet:
    """Run the whole claim battery; returns the populated ClaimSet."""
    cs = ClaimSet()
    for fn in VALIDATORS:
        fn(cs)
    return cs


def render_report(cs: ClaimSet) -> str:
    """Human-readable validation report."""
    from repro.core.report import render_table

    rows = [
        (c.figure, c.statement, c.expected, c.measured, "ok" if c.passed else "FAIL")
        for c in cs.claims
    ]
    table = render_table(("figure", "claim", "paper", "model", "verdict"), rows)
    summary = f"\n{cs.n_passed}/{len(cs.claims)} claims reproduced"
    return table + summary
