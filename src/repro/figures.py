"""Every table and figure of the paper, defined once.

:data:`FIGURES` holds one :class:`Figure` per key: ``"table1"``,
``"4"`` … ``"25"`` and ``"26-27"`` (Figures 26 and 27 share one dataset;
:data:`NUMBERS` maps each figure number to its key).  Each entry holds

* its header (``label`` and ``caption``, the
  :func:`~repro.core.report.figure_header` arguments);
* **one** data function, built on the models' own entry points;
* a table builder, ``data -> (columns, rows)``;
* its claims: named predicates over the data and :mod:`repro.paperdata`.
  The ``repro validate`` claims go to one :class:`~repro.validation.ClaimSet`
  and the bench-only gates (stricter forms, extra checks) to another.

``repro figure N``, ``repro figures``, ``repro validate`` and
``benchmarks/bench_figures.py`` are loops over this table, so a figure's
numbers, its rendering and its verdicts cannot drift apart.  Model modules
are imported inside the data functions, so importing the table is cheap.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.report import band_str, figure_header, fmt_rate, fmt_size, render_table
from repro.paperdata import (
    FIG4_STREAM,
    FIG5_LATENCY,
    FIG6_BANDWIDTH,
    FIG7_MPI_LATENCY,
    FIG8_MPI_BANDWIDTH_4MIB,
    FIG9_UPDATE_GAIN,
    FIG10_SENDRECV,
    FIG11_BCAST,
    FIG12_ALLREDUCE,
    FIG13_ALLGATHER,
    FIG14_ALLTOALL,
    FIG15_OMP_SYNC,
    FIG16_OMP_SCHED,
    FIG17_IO,
    FIG18_OFFLOAD_BW,
    FIG19_NPB_OMP,
    FIG20_NPB_MPI,
    FIG21_CART3D,
    FIG22_OVERFLOW_NATIVE,
    FIG23_OVERFLOW_SYMMETRIC,
    FIG25_MG_MODES,
    FIG26_OFFLOAD_OVERHEAD,
    TABLE1,
)
from repro.units import GB, GFLOP, GiB, KiB, MB, MiB, NS, US
from repro.validation import ClaimSet

Rows = List[Sequence[object]]
Table = Tuple[Sequence[str], Rows]


class Figure:
    """One table or figure of the paper: header, data, table and claims."""

    label: str
    caption: str

    def data(self) -> Any:
        """The figure's dataset, from the models' entry points."""
        raise NotImplementedError

    def table(self, data: Any) -> Table:
        """``(columns, rows)`` of the figure's data table."""
        raise NotImplementedError

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        """Append the ``repro validate`` claims to ``cs`` and the bench-only
        gates to ``gates`` (the bench passes one set for both)."""

    def render(self, data: Any = None) -> str:
        """The banner and data table, as ``repro figure`` prints them."""
        columns, rows = self.table(self.data() if data is None else data)
        header = figure_header(self.label, self.caption)
        return f"{header}\n{render_table(columns, rows)}"


# Gate predicates compare strictly, unlike ClaimSet.approx's ``<=``.


def _rel(
    gates: ClaimSet,
    fig: str,
    name: str,
    want: float,
    got: float,
    tol: float,
    unit: float = 1.0,
) -> None:
    """Gate ``|got - want| / want < tol``; ``unit`` scales the display only."""
    ok = abs(got - want) / want < tol
    shown = f"{want / unit:.4g}", f"{got / unit:.4g}"
    gates.check(fig, f"{name} (rel err < {tol:g})", *shown, ok)


def _abs(
    gates: ClaimSet, fig: str, name: str, want: float, got: float, tol: float
) -> None:
    """Gate ``|got - want| < tol``."""
    ok = abs(got - want) < tol
    gates.check(fig, f"{name} (abs err < {tol:g})", f"{want:.4g}", f"{got:.4g}", ok)


def _decreasing(gates: ClaimSet, fig: str, name: str, values: Dict[str, Any]) -> None:
    """Gate: ``values`` strictly decreasing in the dict's order."""
    v = list(values.values())
    ok = all(a > b for a, b in zip(v, v[1:]))
    shown = ", ".join(f"{x:.4g}" for x in v)
    gates.check(fig, name, " > ".join(values), shown, ok)


# --------------------------------------------------------------------------
# Table 1 — system characteristics
# --------------------------------------------------------------------------


class _Table1(Figure):
    label, caption = "Table 1", "Maia system characteristics"

    def data(self) -> Any:
        from repro.machine import maia_system

        return maia_system().summary()

    def table(self, s: Any) -> Table:
        p = TABLE1["system"]
        rows: Rows = [
            ("nodes", p["n_nodes"], s["n_nodes"]),
            ("host cores", p["host_cores_total"], s["total_host_cores"]),
            ("phi cores", p["phi_cores_total"], s["total_phi_cores"]),
            ("host peak (Tflop/s)", p["host_peak_tflops"], s["host_peak_tflops"]),
            ("phi peak (Tflop/s)", p["phi_peak_tflops"], s["phi_peak_tflops"]),
            ("total peak (Tflop/s)", p["total_peak_tflops"], s["total_peak_tflops"]),
        ]
        return ("quantity", "paper", "model"), rows

    def claims(self, s: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        p = TABLE1["system"]
        nodes, want = s["n_nodes"], p["n_nodes"]
        gates.check("Table 1", "node count", str(want), str(nodes), nodes == want)
        peak, want = s["total_peak_tflops"], p["total_peak_tflops"]
        _abs(gates, "Table 1", "total peak (Tflop/s)", want, peak, 3.5)
        share, want = s["phi_flops_pct"], p["phi_flops_pct"]
        ok = round(share) == want
        gates.check("Table 1", "phi flops share (%)", str(want), f"{share:.4g}", ok)


# --------------------------------------------------------------------------
# Figures 4–6 — memory (Sections 6.1–6.2)
# --------------------------------------------------------------------------


class _Fig4(Figure):
    label, caption = "Figure 4", "STREAM triad bandwidth vs threads"

    def data(self) -> Any:
        from repro.microbench.stream import fig4_data

        return fig4_data()

    def table(self, data: Any) -> Table:
        rows: Rows = [("host", t, fmt_rate(bw)) for t, bw in data["host"]]
        rows += [("phi", t, fmt_rate(bw)) for t, bw in data["phi"]]
        return ("device", "threads", "bandwidth"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        phi, paper = dict(data["phi"]), FIG4_STREAM["phi_bw_by_threads"]
        for t in (59, 177):
            name = f"Phi STREAM at {t} threads (GB/s)"
            cs.approx("Fig 4", name, paper[t] / GB, phi[t] / GB)
        # Headline: 180 GB/s at 59/118 threads, dropping to 140 beyond 118.
        for t in (59, 118, 177):
            name = f"Phi STREAM at {t} threads (GB/s)"
            _rel(gates, "Fig 4", name, paper[t], phi[t], 0.05, GB)
        name = "Phi STREAM drops past 118 threads"
        shown = f"{phi[177] / GB:.4g} vs {phi[118] / GB:.4g}"
        gates.check("Fig 4", name, "177 < 118", shown, phi[177] < phi[118])


#: (device, level, working set, tolerance) of the Figs 5-6 plateau gates.
_PLATEAUS = (
    ("host", "L1", 16 * KiB, 0.05),
    ("phi", "L1", 16 * KiB, 0.05),
    ("host", "MEM", 1 * GiB, 0.06),
    ("phi", "MEM", 1 * GiB, 0.06),
)


class _Fig5(Figure):
    label, caption = "Figure 5", "memory load latency (ns)"

    def data(self) -> Any:
        from repro.microbench.memlatency import fig5_data

        return fig5_data()

    def table(self, data: Any) -> Table:
        host, phi = dict(data["host"]), dict(data["phi"])
        rows: Rows = [
            (fmt_size(ws), f"{host[ws] / NS:.1f}", f"{phi[ws] / NS:.1f}")
            for ws in sorted(host)
        ]
        return ("working set", "host", "phi"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        lat = {"host": dict(data["host"]), "phi": dict(data["phi"])}
        want, got = FIG5_LATENCY["host"]["L1"] / NS, lat["host"][16 * KiB] / NS
        cs.approx("Fig 5", "host L1 latency (ns)", want, got)
        want, got = FIG5_LATENCY["phi"]["MEM"] / NS, lat["phi"][1 * GiB] / NS
        cs.approx("Fig 5", "Phi memory latency (ns)", want, got, rel=0.06)
        for dev, level, ws, tol in _PLATEAUS:
            name, want = f"{dev} {level} latency (ns)", FIG5_LATENCY[dev][level]
            _rel(gates, "Fig 5", name, want, lat[dev][ws], tol, NS)


class _Fig6(Figure):
    label, caption = "Figure 6", "per-core load bandwidth"

    def data(self) -> Any:
        from repro.microbench.membandwidth import fig6_data

        return fig6_data()

    def table(self, data: Any) -> Table:
        series = [dict(data[d][a]) for d in ("host", "phi") for a in ("read", "write")]
        rows: Rows = [
            [fmt_size(ws)] + [fmt_rate(s[ws]) for s in series]
            for ws in sorted(series[0])
        ]
        return ("working set", "host r", "host w", "phi r", "phi w"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        read = {dev: dict(data[dev]["read"]) for dev in ("host", "phi")}
        paper = {dev: FIG6_BANDWIDTH[dev]["read"] for dev in ("host", "phi")}
        name = "host per-core read bw at MEM (GB/s)"
        want, got = paper["host"]["MEM"] / GB, read["host"][1 * GiB] / GB
        cs.approx("Fig 6", name, want, got, rel=0.06)
        name = "Phi per-core read bw at MEM (MB/s)"
        want, got = paper["phi"]["MEM"] / MB, read["phi"][1 * GiB] / MB
        cs.approx("Fig 6", name, want, got, rel=0.06)
        for dev, level, ws, tol in _PLATEAUS:
            name = f"{dev} per-core read bw at {level} (MB/s)"
            _rel(gates, "Fig 6", name, paper[dev][level], read[dev][ws], tol, MB)


# --------------------------------------------------------------------------
# Figures 7–9 — MPI over PCIe, pre/post software update (Section 6.3)
# --------------------------------------------------------------------------


class _Fig7(Figure):
    label, caption = "Figure 7", "MPI latency over PCIe (µs)"

    def data(self) -> Any:
        from repro.microbench.pingpong import fig7_data

        return fig7_data()

    def table(self, data: Any) -> Table:
        rows: Rows = [
            (sw, path, f"{lat / US:.2f}")
            for sw, paths in data.items()
            for path, lat in paths.items()
        ]
        return ("software", "path", "latency"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        want = FIG7_MPI_LATENCY["post"]["host-phi0"] / US
        got = data["post"]["host-phi0"] / US
        cs.approx("Fig 7", "host-phi0 latency (µs)", want, got, rel=0.03)
        for sw in ("pre", "post"):
            for path, lat in FIG7_MPI_LATENCY[sw].items():
                name = f"{sw}-update {path} latency (µs)"
                _rel(gates, "Fig 7", name, lat, data[sw][path], 0.03, US)
            # Asymmetry: Phi1 paths always slower than Phi0.
            phi0, phi1 = data[sw]["host-phi0"], data[sw]["host-phi1"]
            name = f"{sw}-update host-phi1 slower than host-phi0"
            shown = f"{phi1 / US:.3g} vs {phi0 / US:.3g}"
            gates.check("Fig 7", name, "slower", shown, phi1 > phi0)


class _Fig8(Figure):
    label, caption = "Figure 8", "MPI bandwidth over PCIe"
    paths = ("host-phi0", "host-phi1", "phi0-phi1")

    def data(self) -> Any:
        from repro.microbench.pingpong import fig8_data

        return fig8_data()

    def table(self, data: Any) -> Table:
        series = [dict(data[sw][p]) for sw in ("pre", "post") for p in self.paths]
        rows: Rows = [
            [fmt_size(n)] + [fmt_rate(s[n]) for s in series]
            for n, _ in data["post"]["host-phi0"]
        ]
        short = ("h-p0", "h-p1", "p-p")
        return ["size"] + [f"{sw} {p}" for sw in ("pre", "post") for p in short], rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        bw = {(sw, p): dict(data[sw][p])[4 * MiB] for sw in data for p in self.paths}
        paper = FIG8_MPI_BANDWIDTH_4MIB
        for sw in ("pre", "post"):
            name = f"{sw}-update host-phi0 bw @4MiB (GB/s)"
            want, got = paper[sw]["host-phi0"] / GB, bw[sw, "host-phi0"] / GB
            cs.approx("Fig 8", name, want, got)
            for path, want in paper[sw].items():
                name = f"{sw}-update {path} bw @4MiB (GB/s)"
                _rel(gates, "Fig 8", name, want, bw[sw, path], 0.05, GB)
        # The pre-update host-phi1 asymmetry disappears post-update.
        pre0, pre1 = bw["pre", "host-phi0"], bw["pre", "host-phi1"]
        name = "pre-update host-phi0 over host-phi1 @4MiB"
        gates.check("Fig 8", name, "> 3x", f"{pre0 / pre1:.3g}x", pre0 > 3 * pre1)
        post0, post1 = bw["post", "host-phi0"], bw["post", "host-phi1"]
        name = "post-update host-phi1 matches host-phi0 @4MiB (GB/s)"
        _rel(gates, "Fig 8", name, post0, post1, 0.05, GB)


class _Fig9(Figure):
    label, caption = "Figure 9", "post/pre bandwidth gain"

    def data(self) -> Any:
        from repro.microbench.pingpong import fig9_data, gain_in_regime

        regimes = {
            (path, regime): gain_in_regime(path, regime)
            for path, by_regime in FIG9_UPDATE_GAIN.items()
            for regime in by_regime
        }
        return {"gain": fig9_data(), "regimes": regimes}

    def table(self, data: Any) -> Table:
        gain = data["gain"]
        rows: Rows = [
            [fmt_size(n)] + [f"{dict(gain[p])[n]:.2f}" for p in gain]
            for n, _ in gain["host-phi0"]
        ]
        return ["size"] + list(gain), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        plo, phi_ = FIG9_UPDATE_GAIN["host-phi1"]["large"]
        lo, hi = data["regimes"]["host-phi1", "large"]
        cs.band("Fig 9", "host-phi1 large-message gain", plo, phi_, lo)
        cs.band("Fig 9", "host-phi1 large-message gain (hi)", plo, phi_, hi)
        for (path, regime), (lo, hi) in data["regimes"].items():
            plo, phi_ = FIG9_UPDATE_GAIN[path][regime]
            ok = lo >= plo * 0.85 and hi <= phi_ * 1.15
            name = f"{path} {regime} gain band (0.85x..1.15x edges)"
            gates.check("Fig 9", name, band_str(plo, phi_), band_str(lo, hi), ok)


# --------------------------------------------------------------------------
# Figures 10–14 — intra-device MPI functions (Section 6.4)
# --------------------------------------------------------------------------


class _MpiFunction(Figure):
    """A Figs 10-14 time-vs-size sweep, host vs Phi at 1-4 ranks/core."""

    def __init__(self, number: int, bench: str, paper: Dict[str, Any]) -> None:
        self.label = f"Figure {number}"
        self.caption = f"MPI_{bench.capitalize()} time (µs)"
        self.bench, self.paper = bench, paper

    def data(self) -> Any:
        from repro.microbench.mpifuncs import factor_range, mpi_function_sweep

        factors = {tpc: factor_range(self.bench, tpc) for tpc in (1, 2, 3, 4)}
        return {"sweep": mpi_function_sweep(self.bench), "factors": factors}

    def table(self, data: Any) -> Table:
        series = ("host", "phi-1tpc", "phi-2tpc", "phi-3tpc", "phi-4tpc")
        times = [dict(data["sweep"][s]) for s in series]
        rows: Rows = [
            [fmt_size(n)]
            + [f"{t[n] * 1e6:.1f}" if t[n] is not None else "OOM" for t in times]
            for n, _ in data["sweep"]["host"]
        ]
        return ("size", "host", "phi 1t/c", "phi 2t/c", "phi 3t/c", "phi 4t/c"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        # The 1- and 4-rank/core factor bands, held to 0.85x..1.15x edges.
        for tpc in (1, 4):
            lo, hi = data["factors"][tpc]
            plo, phi_ = self.paper[f"host_over_phi_{tpc}tpc"]
            ok = lo >= plo * 0.85 and hi <= phi_ * 1.15
            name = f"{self.bench} factor band at {tpc} rank/core"
            cs.check("Fig 10-14", name, band_str(plo, phi_), band_str(lo, hi), ok)


class _Fig11(_MpiFunction):
    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        # The paper quotes the 4-ranks/core comparison "per core", an
        # ambiguous normalization (see EXPERIMENTS.md), so that band is
        # neither claimed nor gated.  Gated instead: the 1-rank/core band
        # overlap, host always faster, and degradation with oversubscription.
        lo, hi = data["factors"][1]
        plo, phi_ = self.paper["host_over_phi_1tpc"]
        name = "bcast factor band at 1 rank/core overlaps the paper's"
        ok = lo <= phi_ and hi >= plo
        gates.check("Fig 11", name, band_str(plo, phi_), band_str(lo, hi), ok)
        highs = [data["factors"][t][1] for t in (1, 2, 3, 4)]
        shown = ", ".join(f"{h:.3g}" for h in highs)
        ok = all(h > 1 for h in highs)
        gates.check("Fig 11", "host faster at every rank/core count", "> 1", shown, ok)
        ok = highs == sorted(highs)
        name = "oversubscription widens the gap"
        gates.check("Fig 11", name, "non-decreasing", shown, ok)


class _Fig13(_MpiFunction):
    def data(self) -> Any:
        from repro.microbench.mpifuncs import function_time
        from repro.mpi.collectives import ALLGATHER_RING_SWITCH
        from repro.mpi.fabrics import phi_fabric

        data = super().data()
        f, n = phi_fabric(1), ALLGATHER_RING_SWITCH
        data["switch"] = (n, function_time("allgather", f, 64, n),
                          function_time("allgather", f, 64, n + 1))
        return data

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        super().claims(data, cs, gates)
        # The paper's "sudden jump at 2KB/4KB": the recursive-doubling ->
        # ring algorithm switch is a discontinuity in the time-vs-size curve.
        n, below, above = data["switch"]
        name = f"allgather time jumps at the {n} B algorithm switch"
        ok = above > 1.5 * below
        gates.check("Fig 13", name, "> 1.5x", f"{above / below:.3g}x", ok)


class _Fig14(_MpiFunction):
    def data(self) -> Any:
        from repro.microbench.mpifuncs import alltoall_max_feasible_size

        data = super().data()
        data["max_size_4tpc"] = alltoall_max_feasible_size(4)
        return data

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        super().claims(data, cs, gates)
        # Section 6.4.5: at 236 ranks the Alltoall runs only up to 4 KiB.
        got, want = data["max_size_4tpc"], self.paper["oom_above"]
        name = "alltoall OOM beyond 4 KiB at 236 ranks"
        cs.check("Fig 14", name, str(want), str(got), got == want)


# --------------------------------------------------------------------------
# Figures 15–16 — OpenMP overheads (Section 6.5)
# --------------------------------------------------------------------------


class _Fig15(Figure):
    label, caption = "Figure 15", "OpenMP synchronization overhead (µs)"

    def data(self) -> Any:
        from repro.microbench.ompbench import fig15_data

        return fig15_data()

    def table(self, data: Any) -> Table:
        from repro.openmp import CONSTRUCTS

        host, phi = data["host"], data["phi"]
        rows: Rows = [
            (c, f"{host[c] / US:.2f}", f"{phi[c] / US:.2f}") for c in CONSTRUCTS
        ]
        return ("construct", "host 16 thr", "phi 236 thr"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        ratios = [data["phi"][c] / data["host"][c] for c in data["host"]]
        mean = sum(ratios) / len(ratios)
        name = "Phi sync overhead ≈ order of magnitude higher"
        cs.check("Fig 15", name, "> 7x mean", f"{mean:.1f}x", mean > 7)
        worst = FIG15_OMP_SYNC["most_expensive"]
        best = FIG15_OMP_SYNC["least_expensive"]
        for dev in ("host", "phi"):
            t = data[dev]
            got = (max(t, key=t.get), min(t, key=t.get))
            name = f"{dev}: {worst} worst / {best} best"
            ok = got == (worst, best)
            cs.check("Fig 15", name, f"{worst}, {best}", ", ".join(got), ok)


class _Fig16(Figure):
    label, caption = "Figure 16", "OpenMP scheduling overhead (µs)"

    def data(self) -> Any:
        from repro.microbench.ompbench import fig16_data

        return fig16_data()

    def table(self, data: Any) -> Table:
        from repro.openmp import SCHEDULES

        host, phi = data["host"], data["phi"]
        rows: Rows = [
            (s, f"{host[s] / US:.2f}", f"{phi[s] / US:.2f}") for s in SCHEDULES
        ]
        return ("policy", "host", "phi"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        from repro.openmp import SCHEDULES

        low, mid, high = FIG16_OMP_SCHED["order"]
        for dev in ("host", "phi"):
            t = data[dev]
            ok = t[low] < t[mid] < t[high]
            shown = "ordered" if ok else "violated"
            cs.check("Fig 16", f"{dev}: {low} < {mid} < {high}", "ordered", shown, ok)
        ratios = [data["phi"][s] / data["host"][s] for s in SCHEDULES]
        shown = ", ".join(f"{r:.3g}x" for r in ratios)
        ok = all(r > 5 for r in ratios)
        gates.check("Fig 16", "Phi over host for every policy", "> 5x", shown, ok)


# --------------------------------------------------------------------------
# Figures 17–18 — I/O and offload bandwidth (Sections 6.6–6.7)
# --------------------------------------------------------------------------


class _Fig17(Figure):
    label, caption = "Figure 17", "sequential I/O bandwidth"

    def data(self) -> Any:
        from repro.microbench.iobench import fig17_data

        return fig17_data()

    def table(self, data: Any) -> Table:
        rows: Rows = []
        for dev, v in data.items():
            read = fmt_rate(v["read"]) if v["read"] == v["read"] else "-"
            rows.append((dev, fmt_rate(v["write"]), read))
        return ("device", "write", "read"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        for access, tol in (("write", 0.3), ("read", 0.4)):
            ratio = data["host"][access] / data["phi0"][access]
            want = FIG17_IO[f"host_over_phi_{access}"]
            name = f"host/phi {access} ratio"
            cs.approx("Fig 17", name, want, ratio, rel=0.1)
            _abs(gates, "Fig 17", name, want, ratio, tol)
        via, direct = data["phi0-via-host"]["write"], data["phi0"]["write"]
        name, shown = "staging Phi writes through the host", f"{via / direct:.3g}x"
        gates.check("Fig 17", name, "> 2x direct", shown, via > 2 * direct)


class _Fig18(Figure):
    label, caption = "Figure 18", "offload PCIe bandwidth"

    def data(self) -> Any:
        from repro.microbench.offloadbw import fig18_data

        return fig18_data()

    def table(self, data: Any) -> Table:
        phi0, phi1 = dict(data["host-phi0"]), dict(data["host-phi1"])
        rows: Rows = [
            (fmt_size(n), fmt_rate(phi0[n]), fmt_rate(phi1[n]))
            for n, _ in data["host-phi0"]
        ]
        return ("size", "host-phi0", "host-phi1"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        phi0, phi1 = dict(data["host-phi0"]), dict(data["host-phi1"])
        want, got = FIG18_OFFLOAD_BW["large_transfer_bw"], phi0[256 * MiB]
        cs.approx("Fig 18", "offload plateau (GB/s)", want / GB, got / GB, rel=0.03)
        _rel(gates, "Fig 18", "offload plateau (GB/s)", want, got, 0.03, GB)
        want, got = FIG18_OFFLOAD_BW["phi0_over_phi1"], phi0[64 * MiB] / phi1[64 * MiB]
        _abs(gates, "Fig 18", "phi0 over phi1 @64MiB", want, got, 0.01)
        dip, after = phi0[64 * KiB], phi0[256 * KiB]
        name, shown = "the 64 KiB dip recovers by 256 KiB", f"{after / dip:.3g}x"
        gates.check("Fig 18", name, "> 1.1x", shown, after > 1.1 * dip)


# --------------------------------------------------------------------------
# Figures 19–20 — NPB Class C (Section 6.8)
# --------------------------------------------------------------------------


class _Fig19(Figure):
    label, caption = "Figure 19", "NPB OpenMP Class C (Gop/s)"

    def data(self) -> Any:
        """``{benchmark: {"host": Gop/s, tpc: Gop/s}}``; OOM points absent."""
        from repro.npb.suite import openmp_figure

        table: Dict[str, Dict[Any, float]] = {}
        for m in openmp_figure():
            row = table.setdefault(m.config["benchmark"], {})
            row[m.config.get("tpc", "host")] = m.gflops
        return table

    def table(self, data: Any) -> Table:
        keys = ("host", 1, 2, 3, 4)
        rows: Rows = [
            [b] + [f"{e[k]:.1f}" if k in e else "OOM" for k in keys]
            for b, e in data.items()
        ]
        return ("bench", "host16", "1 t/c", "2 t/c", "3 t/c", "4 t/c"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        host = {b: e["host"] for b, e in data.items()}
        phi = {b: max(v for k, v in e.items() if k != "host") for b, e in data.items()}
        ratios = {b: phi[b] / host[b] for b in data}
        wins = FIG19_NPB_OMP["host_beats_phi_except"]
        ok = all((r > 1) == (b in wins) for b, r in ratios.items())
        shown = ", ".join(b for b, r in ratios.items() if r > 1)
        want = f"only {', '.join(wins)} > 1"
        cs.check("Fig 19", "host beats Phi except MG", want, shown, ok)
        others = {b: r for b, r in ratios.items() if b not in wins}
        got = (max(others, key=others.get), min(ratios, key=ratios.get))
        paper = (FIG19_NPB_OMP["best_on_phi"], FIG19_NPB_OMP["worst_on_phi"])
        name = "BT best / CG worst on Phi"
        cs.check("Fig 19", name, ", ".join(paper), ", ".join(got), got == paper)
        for b in data:
            ok = phi[b] > host[b] if b in wins else host[b] > phi[b]
            winner = "Phi" if b in wins else "host"
            shown = f"host {host[b]:.1f} vs Phi {phi[b]:.1f}"
            gates.check("Fig 19", f"{b}: {winner} faster", winner, shown, ok)


class _Fig20(Figure):
    label, caption = "Figure 20", "NPB MPI Class C on Phi0 (ranks:Gop/s)"

    def data(self) -> Any:
        from repro.core import Evaluator
        from repro.errors import OutOfMemoryError
        from repro.machine import Device
        from repro.npb.characterization import MPI_BENCHMARKS, class_c_kernel
        from repro.npb.suite import mpi_figure

        ev = Evaluator()
        results = mpi_figure(ev)
        runs = {
            b: {m.config["ranks"]: m.gflops for m in results.where(benchmark=b)}
            for b in MPI_BENCHMARKS
        }
        try:
            ev.native(Device.PHI0, class_c_kernel("FT", mpi=True), 128)
            ft_oom = False
        except OutOfMemoryError:
            ft_oom = True
        return {"runs": runs, "ft_oom": ft_oom}

    def table(self, data: Any) -> Table:
        rows: Rows = [
            (b, "  ".join(f"{r}:{g:.1f}" for r, g in sorted(runs.items())) or "OOM")
            for b, runs in data["runs"].items()
        ]
        return ("bench", "runs"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        oom, runs = data["ft_oom"], data["runs"]
        name = "FT Class C cannot run on the Phi under MPI"
        shown = "raised" if oom else "ran"
        cs.check("Fig 20", name, "OutOfMemoryError", shown, oom)
        n_ft, name = len(runs["FT"]), "FT absent from the sweep"
        gates.check("Fig 20", name, "no runs", str(n_ft), n_ft == 0)
        best = max(runs["BT"], key=runs["BT"].get)  # 225 ranks = 4 ranks/core
        gates.check("Fig 20", "BT peaks at 225 ranks", "225", str(best), best == 225)
        for benches, key in (
            (("BT", "SP"), "phi_rank_counts_square"),
            (("CG", "MG", "LU"), "phi_rank_counts_pow2"),
        ):
            want = sorted(FIG20_NPB_MPI[key])
            for b in benches:
                got, name = sorted(runs[b]), f"{b} rank counts"
                gates.check("Fig 20", name, str(want), str(got), got == want)


# --------------------------------------------------------------------------
# Figures 21–23 — applications (Section 6.9)
# --------------------------------------------------------------------------


class _Fig21(Figure):
    label, caption = "Figure 21", "Cart3D OneraM6"

    def data(self) -> Any:
        from repro.apps import Cart3dModel

        return Cart3dModel().figure21()

    def table(self, fig: Any) -> Table:
        rows: Rows = [(k, f"{v.time:.3f}", f"{v.gflops:.1f}") for k, v in fig.items()]
        return ("config", "time/iter (s)", "Gflop/s"), rows

    def claims(self, fig: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        phi = {k: v.time for k, v in fig.items() if k.startswith("phi")}
        ratio = min(phi.values()) / fig["host-16"].time
        want = FIG21_CART3D["host_over_best_phi"]
        cs.approx("Fig 21", "Cart3D host over best Phi", want, ratio, rel=0.1)
        best, want_best = min(phi, key=phi.get), f"phi-{59 * FIG21_CART3D['best_tpc']}"
        name = "Phi optimum at 4 threads/core"
        gates.check("Fig 21", name, want_best, best, best == want_best)
        _rel(gates, "Fig 21", "Cart3D host over best Phi", want, ratio, 0.1)


class _Fig22(Figure):
    label, caption = "Figure 22", "OVERFLOW DLRF6-Medium (s/step)"

    def data(self) -> Any:
        from repro.apps import OverflowModel, dataset

        return OverflowModel(dataset("DLRF6-Medium")).figure22()

    def table(self, fig: Any) -> Table:
        rows: Rows = [
            ("phi" if dev == "phi0" else dev, f"{i}x{j}", f"{m.time:.3f}")
            for (dev, i, j), m in fig.items()
        ]
        return ("device", "IxJ", "time"), rows

    def claims(self, fig: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        t: Dict[str, Dict[Tuple[int, int], float]] = {"host": {}, "phi": {}}
        for (dev, i, j), m in fig.items():
            t["phi" if dev == "phi0" else dev][i, j] = m.time
        paper = FIG22_OVERFLOW_NATIVE
        best = {dev: min(t[dev], key=t[dev].get) for dev in t}
        hb, pb = paper["host_best"], paper["phi_best"]
        want = f"({hb[0]},{hb[1]}), ({pb[0]},{pb[1]})"
        shown = f"{best['host']}, {best['phi']}"
        ok = best["host"] == hb and best["phi"] == pb
        cs.check("Fig 22", "host best 16x1, Phi best 8x28", want, shown, ok)
        gap = min(t["phi"].values()) / min(t["host"].values())
        want_gap = paper["host_over_phi_best"]
        cs.approx("Fig 22", "best host over best Phi", want_gap, gap, rel=0.12)
        for dev in t:
            got, want_worst = max(t[dev], key=t[dev].get), paper[f"{dev}_worst"]
            name = f"{dev} worst decomposition"
            gates.check("Fig 22", name, str(want_worst), str(got), got == want_worst)
        _rel(gates, "Fig 22", "best host over best Phi", want_gap, gap, 0.12)


class _Fig23(Figure):
    label, caption = "Figure 23", "OVERFLOW DLRF6-Large symmetric (s/step)"
    rows = (
        ("host native 16x1", "host-native"),
        ("symmetric pre-update", "sym-pre"),
        ("symmetric post-update", "sym-post"),
        ("two hosts (IB)", "two-hosts"),
    )

    def data(self) -> Any:
        from repro.apps import OverflowModel, dataset
        from repro.core.software import POST_UPDATE, PRE_UPDATE
        from repro.machine import Device

        m = OverflowModel(dataset("DLRF6-Large"))
        return {
            "host-native": {"total": m.native_step(Device.HOST, 16, 1).time},
            "sym-pre": m.symmetric_step(PRE_UPDATE),
            "sym-post": m.symmetric_step(POST_UPDATE),
            "two-hosts": m.two_host_step(),
        }

    def table(self, runs: Any) -> Table:
        rows: Rows = [(label, f"{runs[key]['total']:.3f}") for label, key in self.rows]
        return ("configuration", "time"), rows

    def claims(self, runs: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        paper = FIG23_OVERFLOW_SYMMETRIC
        sym, two = runs["sym-post"], runs["two-hosts"]
        speedup = runs["host-native"]["total"] / sym["total"]
        want = paper["speedup_vs_host_native"]
        name = "symmetric speedup vs host native"
        cs.approx("Fig 23", name, want, speedup, rel=0.08)
        lo, hi = paper["postupdate_gain_pct"]
        gain = runs["sym-pre"]["total"] / sym["total"] - 1
        cs.band("Fig 23", "post-update gain (%)", lo, hi, gain * 100, slack=0.0)
        ok = sym["total"] > two["total"]
        shown = "slower" if ok else "faster"
        cs.check("Fig 23", "symmetric loses to two hosts", "slower", shown, ok)
        _abs(gates, "Fig 23", name, want, speedup, 0.2)
        ok, shown = lo / 100 <= gain <= hi / 100, f"{gain:.3g}"
        band = band_str(lo / 100, hi / 100)
        gates.check("Fig 23", "post-update gain (fraction)", band, shown, ok)
        adv = two["ideal_compute"] / sym["ideal_compute"]
        want = paper["compute_part_speedup_vs_two_hosts"]
        name = "compute-part advantage over two hosts"
        _abs(gates, "Fig 23", name, want, adv, 0.05)


# --------------------------------------------------------------------------
# Figures 24–27 — MG offload study (Sections 6.9.1.4–6.9.1.7)
# --------------------------------------------------------------------------


class _Fig24(Figure):
    label, caption = "Figure 24", "MG loop-collapse gain"

    def data(self) -> Any:
        from repro.core import Evaluator
        from repro.machine import Device
        from repro.npb.characterization import class_c_kernel
        from repro.npb.mg_offload import collapse_gain

        ev, k = Evaluator(), class_c_kernel("MG")
        gains = {t: collapse_gain("C", t) for t in (16, 59, 118, 177, 236)}
        # The 59·m vs 60·m thread-count comparison (same figure).
        threads = {
            m: [ev.native(Device.PHI0, k, c * m).gflops for c in (59, 60)]
            for m in (1, 2, 3, 4)
        }
        return {"gains": gains, "threads": threads}

    def table(self, data: Any) -> Table:
        gains = data["gains"].items()
        rows: Rows = [(f"{t} threads", f"{g * 100:+.1f}%") for t, g in gains]
        return ("threads", "gain"), rows

    def claims(self, data: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        # The paper reports +25-28 % on the Phi (59-236 threads) and -1 % on
        # the host's 16 threads.  Our quantization-only model varies with
        # grain divisibility (documented deviation, see EXPERIMENTS.md), so
        # the gates hold what it reproduces exactly: collapse helps the Phi
        # and costs the host about 1 %.
        gains = data["gains"]
        for t in (59, 118, 177, 236):
            name = f"collapse helps the Phi at {t} threads"
            shown = f"{gains[t] * 100:+.1f}%"
            gates.check("Fig 24", name, "> +3%", shown, gains[t] > 0.03)
        name = "collapse costs the host about 1% at 16 threads"
        ok, shown = -0.02 < gains[16] < 0.0, f"{gains[16] * 100:+.1f}%"
        gates.check("Fig 24", name, "-2%..0%", shown, ok)
        for m, (good, bad) in data["threads"].items():
            name = f"{59 * m} threads beat {60 * m}"
            shown = f"{good:.1f} vs {bad:.1f} Gop/s"
            gates.check("Fig 24", name, "faster", shown, good > bad)


class _Fig25(Figure):
    label, caption = "Figure 25", "MG Class C modes (Gflop/s)"

    def data(self) -> Any:
        from repro.core import Evaluator
        from repro.machine import Device
        from repro.npb.characterization import class_c_kernel
        from repro.npb.mg_offload import offload_regions

        ev, k = Evaluator(), class_c_kernel("MG")
        modes = {
            "native host 16": ev.native(Device.HOST, k, 16).gflops,
            "native host 32 (HT)": ev.native(Device.HOST, k, 32).gflops,
            "native phi 177": ev.native(Device.PHI0, k, 177).gflops,
        }
        for name, region in offload_regions("C").items():
            modes[f"offload {name}"] = ev.offload(region, n_threads=177).gflops
        return modes

    def table(self, modes: Any) -> Table:
        rows: Rows = [
            (name, f"{g:.2f}" if name.startswith("offload") else f"{g:.1f}")
            for name, g in modes.items()
        ]
        return ("mode", "Gflop/s"), rows

    def claims(self, modes: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        host, phi = modes["native host 16"], modes["native phi 177"]
        for dev, got, key in (
            ("host", host, "host_16thr_gflops"),
            ("Phi", phi, "phi_177thr_gflops"),
        ):
            name, want = f"MG native {dev} Gflop/s", FIG25_MG_MODES[key] / GFLOP
            cs.approx("Fig 25", name, want, got)
            _rel(gates, "Fig 25", name, want, got, 0.05)
        # HT costs ~6 % on the host.
        loss = 1 - modes["native host 32 (HT)"] / host
        _abs(gates, "Fig 25", "host Hyper-Threading loss", 0.06, loss, 0.04)
        # Every offload variant loses to both native modes.
        for mode, g in modes.items():
            if mode.startswith("offload"):
                name = f"{mode} loses to both native modes"
                want = f"< {min(host, phi):.3g}"
                ok = g < host and g < phi
                gates.check("Fig 25", name, want, f"{g:.3g}", ok)


class _Fig26_27(Figure):
    label, caption = "Figures 26-27", "MG offload anatomy"

    def data(self) -> Any:
        from repro.core import Evaluator
        from repro.npb.mg_offload import offload_regions

        model = Evaluator().offload_model(n_threads=177)
        return model.compare(*offload_regions("C").values())

    def table(self, reports: Any) -> Table:
        rows: Rows = [
            (
                name,
                r.invocations,
                fmt_size(r.total_data),
                f"{r.overhead:.2f}",
                f"{r.total:.2f}",
            )
            for name, r in reports.items()
        ]
        return ("version", "invocations", "data", "overhead (s)", "total (s)"), rows

    def claims(self, reports: Any, cs: ClaimSet, gates: ClaimSet) -> None:
        versions = FIG25_MG_MODES["offload_versions"]
        # Offloading one loop is worst, the whole computation best ...
        overhead = {v: reports[v].overhead for v in versions}
        _decreasing(gates, "Fig 26", "offload overhead by version", overhead)
        worst, best = FIG26_OFFLOAD_OVERHEAD["worst"], FIG26_OFFLOAD_OVERHEAD["best"]
        slow, fast = reports[worst].total, reports[best].total
        name = f"{worst} offload slower than {best} offload"
        shown = f"{slow:.3g} vs {fast:.3g} s"
        gates.check("Fig 26", name, "slower", shown, slow > fast)
        # ... and invocations and shipped data are maximal for the loop.
        calls = {v: reports[v].invocations for v in versions}
        _decreasing(gates, "Fig 27", "offload invocations by version", calls)
        shipped = {v: reports[v].total_data for v in versions}
        _decreasing(gates, "Fig 27", "offload data shipped by version", shipped)


FIGURES: Dict[str, Figure] = {
    "table1": _Table1(),
    "4": _Fig4(),
    "5": _Fig5(),
    "6": _Fig6(),
    "7": _Fig7(),
    "8": _Fig8(),
    "9": _Fig9(),
    "10": _MpiFunction(10, "sendrecv", FIG10_SENDRECV),
    "11": _Fig11(11, "bcast", FIG11_BCAST),
    "12": _MpiFunction(12, "allreduce", FIG12_ALLREDUCE),
    "13": _Fig13(13, "allgather", FIG13_ALLGATHER),
    "14": _Fig14(14, "alltoall", FIG14_ALLTOALL),
    "15": _Fig15(),
    "16": _Fig16(),
    "17": _Fig17(),
    "18": _Fig18(),
    "19": _Fig19(),
    "20": _Fig20(),
    "21": _Fig21(),
    "22": _Fig22(),
    "23": _Fig23(),
    "24": _Fig24(),
    "25": _Fig25(),
    "26-27": _Fig26_27(),
}

#: ``repro figure N``'s choices: each figure number -> its :data:`FIGURES` key.
NUMBERS: Dict[int, str] = {
    n: key
    for key in FIGURES
    if key != "table1"
    for n in range(int(key.split("-")[0]), int(key.split("-")[-1]) + 1)
}
