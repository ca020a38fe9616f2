"""Point-by-point bench regression diff against committed baselines.

The nightly workflow re-runs the full bench suite and hands each fresh
``BENCH_*.json`` to this tool alongside the baseline committed in the
repo.  A regression fails the job with a table naming exactly which
point moved and by how much — never a bare "benchmarks failed".

What is compared per report family:

* **selfperf** — per-campaign wall time within budget (``3×`` the
  baseline with a 1 s floor: CI machines are noisy, order-of-magnitude
  blowups are not), plus exact equality of the deterministic outputs
  (engine steps, point counts, ``identical``/``correct`` booleans).
  The cold-start leg's wall has no floor, and the ``repro`` modules it
  loaded must equal the baseline's list.
* **jobcompile** — every gate of ``bench_jobcompile.check_report`` on
  the fresh report, plus per-point replay/memo wall budgets (and the
  halo points' traced wall, the vector points' wall and the lowering
  leg's wall), plus exact equality of each lowered program's phase
  count and sha256 digest.  The traced walls, best of five runs from
  a few milliseconds up, the vector walls, best of five runs of a few
  milliseconds, and the lowering walls, best of five runs of tens of
  microseconds, have no floor.  Walls print in s, ms or µs, whichever
  shows their digits.  The small-collective leg's summed
  per-occurrence µs has its own budget, ``FACTOR`` times the baseline's
  with no floor (its best-of-five sums are milliseconds), and each of
  its points' outcome digests must equal the baseline's.
* **campaign** — every kill-and-resume and worker-kill gate boolean,
  plus reference and resume wall budgets (the killed legs retry with
  doubled throttles, so their walls are not budgeted).

Usage::

    PYTHONPATH=src python benchmarks/benchdiff.py BASELINE.json FRESH.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

#: Wall-time budget: fresh <= max(FLOOR_S, FACTOR * baseline).
FACTOR = 3.0
FLOOR_S = 1.0

#: Seconds per unit of a wall a report records.
_UNIT_S = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


def _fmt_wall(seconds: float) -> str:
    """A wall in the unit that shows its digits: s from 1 s, ms from
    1 ms, else µs."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.1f}µs"


class Diff:
    """Collects point-by-point violations and renders them as a table."""

    def __init__(self) -> None:
        self.rows: List[Any] = []

    def wall(self, point: str, base: float, fresh: float,
             floor: float = FLOOR_S, unit: str = "s") -> None:
        """Budget ``fresh`` at ``max(floor, FACTOR * base)``, all three
        in ``unit`` (a key of ``_UNIT_S``)."""
        budget = max(floor, FACTOR * base)
        if fresh > budget:
            scale = _UNIT_S[unit]
            self.rows.append(
                (point, _fmt_wall(base * scale), _fmt_wall(fresh * scale),
                 f"wall > budget {_fmt_wall(budget * scale)}")
            )

    def exact(self, point: str, base: Any, fresh: Any) -> None:
        if base != fresh:
            self.rows.append((point, repr(base), repr(fresh), "value changed"))

    def gate(self, point: str, message: str) -> None:
        self.rows.append((point, "-", "-", message))

    def render(self) -> str:
        if not self.rows:
            return "benchdiff: all points within budget"
        header = ("point", "baseline", "fresh", "violation")
        w = [
            max(len(str(r[i])) for r in self.rows + [header]) for i in range(4)
        ]
        lines = ["  ".join(h.ljust(w[i]) for i, h in enumerate(header))]
        lines.append("  ".join("-" * w[i] for i in range(4)))
        for r in self.rows:
            lines.append("  ".join(str(r[i]).ljust(w[i]) for i in range(4)))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# per-family comparators
# --------------------------------------------------------------------------


def diff_selfperf(base: Dict[str, Any], fresh: Dict[str, Any], d: Diff) -> None:
    for name, b in base.get("campaigns", {}).items():
        f = fresh.get("campaigns", {}).get(name)
        if f is None:
            d.gate(f"selfperf.{name}", "campaign missing from fresh report")
            continue
        # The cold start is a fraction of a second by design: the floor
        # would leave a tenfold regression inside its budget.
        floor = 0.0 if name == "cold_start" else FLOOR_S
        for wall_key in ("wall_s", "serial_wall_s"):
            if wall_key in b and wall_key in f:
                d.wall(f"selfperf.{name}.{wall_key}", b[wall_key], f[wall_key],
                       floor=floor)
        for exact_key in (
            "points", "feasible", "identical", "correct", "engine_steps",
            "processes", "ranks", "modules",
        ):
            if exact_key in b:
                d.exact(
                    f"selfperf.{name}.{exact_key}",
                    b[exact_key],
                    f.get(exact_key),
                )


def diff_jobcompile(base: Dict[str, Any], fresh: Dict[str, Any], d: Diff) -> None:
    try:  # package import under pytest; bare when run as a script
        from benchmarks.bench_jobcompile import check_report
    except ImportError:
        from bench_jobcompile import check_report

    for violation in check_report(fresh):
        d.gate("jobcompile", violation)
    small = {
        side: {(pt["kind"], pt["ranks"]): pt["resolve"]
               for pt in report.get("small", {}).get("points", ())}
        for side, report in (("base", base), ("fresh", fresh))
    }
    if small["base"].keys() != small["fresh"].keys():
        d.gate("jobcompile.small", "small-collective points changed")
    elif small["base"]:
        d.wall("jobcompile.small.us", sum(r["us"] for r in small["base"].values()),
               sum(r["us"] for r in small["fresh"].values()), floor=0.0,
               unit="us")
        for (kind, p), b in small["base"].items():
            d.exact(f"jobcompile.small[P={p},{kind}].resolve.digest",
                    b["digest"], small["fresh"][(kind, p)]["digest"])
    for family in ("halo", "vector", "lower", "npb"):
        b_points = base.get(family, {}).get("points", [])
        f_points = fresh.get(family, {}).get("points", [])
        if len(b_points) != len(f_points):
            d.gate(
                f"jobcompile.{family}",
                f"point count changed {len(b_points)} -> {len(f_points)}",
            )
            continue
        for bp, fp in zip(b_points, f_points):
            name = bp.get("bench", bp.get("job"))
            tag = f"jobcompile.{family}[P={bp.get('ranks')}" + (
                f",{name}]" if name else "]"
            )
            if "stepped" in bp and "stepped" in fp:
                d.exact(
                    f"{tag}.stepped.engine_steps",
                    bp["stepped"].get("engine_steps"),
                    fp["stepped"].get("engine_steps"),
                )
            labels = {
                "halo": ("replay", "memo", "traced"),
                "vector": ("vector",),
                "lower": ("lower",),
            }.get(family, ("replay", "memo"))
            # The vector, lowering and traced walls are best of five,
            # and milliseconds or less at small P: the floor would pass
            # a thousandfold regression.
            for label in labels:
                floor = (0.0 if family in ("vector", "lower")
                         or label == "traced" else FLOOR_S)
                d.wall(f"{tag}.{label}.wall", bp[label]["wall"],
                       fp[label]["wall"], floor=floor)
            if family == "lower":
                for key in ("phases", "digest"):
                    d.exact(f"{tag}.lower.{key}", bp["lower"].get(key),
                            fp["lower"].get(key))


def diff_campaign(base: Dict[str, Any], fresh: Dict[str, Any], d: Diff) -> None:
    try:  # package import under pytest; bare when run as a script
        from benchmarks.bench_campaign import check_report
    except ImportError:
        from bench_campaign import check_report

    for violation in check_report(fresh):
        d.gate("campaign", violation)
    for leg in ("reference", "resume"):
        d.wall(f"campaign.{leg}.wall", base[leg]["wall"], fresh[leg]["wall"])
        d.exact(
            f"campaign.{leg}.stats.total",
            base[leg]["stats"]["total"],
            fresh[leg]["stats"]["total"],
        )
    d.exact(
        "campaign.gate.payload_identical",
        True,
        fresh["gate"]["payload_identical"],
    )
    d.exact(
        "campaign.net.gate.payload_identical",
        True,
        fresh.get("net", {}).get("gate", {}).get("payload_identical"),
    )


_FAMILIES = {
    "selfperf": diff_selfperf,
    "jobcompile": diff_jobcompile,
    "campaign": diff_campaign,
}


def _family_of(report: Dict[str, Any], path: str) -> str:
    name = report.get("name")
    if name in _FAMILIES:
        return name
    if "campaigns" in report:  # selfperf reports carry no name field
        return "selfperf"
    raise SystemExit(f"{path}: cannot identify report family")


def diff_reports(base: Dict[str, Any], fresh: Dict[str, Any], family: str) -> Diff:
    d = Diff()
    _FAMILIES[family](base, fresh, d)
    return d


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a fresh BENCH report against its committed baseline."
    )
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", help="freshly generated BENCH_*.json")
    args = parser.parse_args(argv)
    base = json.load(open(args.baseline, encoding="utf-8"))
    fresh = json.load(open(args.fresh, encoding="utf-8"))
    family = _family_of(base, args.baseline)
    if _family_of(fresh, args.fresh) != family:
        print(f"report families differ: {args.baseline} vs {args.fresh}")
        return 2
    d = diff_reports(base, fresh, family)
    print(f"benchdiff [{family}]: {args.baseline} vs {args.fresh}")
    print(d.render())
    return 1 if d.rows else 0


def test_benchdiff_selfperf_detects_wall_blowup():
    base = {"campaigns": {"x": {"wall_s": 2.0, "points": 5}}}
    slow = {"campaigns": {"x": {"wall_s": 7.0, "points": 5}}}
    assert diff_reports(base, base, "selfperf").rows == []
    rows = diff_reports(base, slow, "selfperf").rows
    assert len(rows) == 1 and "budget" in rows[0][3]


def test_benchdiff_selfperf_detects_output_change():
    base = {"campaigns": {"x": {"wall_s": 0.1, "identical": True}}}
    broken = {"campaigns": {"x": {"wall_s": 0.1, "identical": False}}}
    rows = diff_reports(base, broken, "selfperf").rows
    assert len(rows) == 1 and rows[0][3] == "value changed"


def test_benchdiff_jobcompile_budgets_the_traced_leg():
    def report(traced_wall):
        leg = {"wall": 0.5, "elapsed": 1e-3, "path": "replay",
               "engine_steps": 0, "rel_err": 0.0, "identical_returns": True,
               "speedup": 50.0}
        point = {
            "ranks": 16384,
            "stepped": {"wall": 25.0, "elapsed": 1e-3, "engine_steps": 9},
            "replay": leg, "memo": dict(leg, path="memo"),
            "traced": {"wall": traced_wall, "elapsed": 1e-3,
                       "path": "replay", "events": 1, "trace_overhead": 2.0},
        }
        return {"name": "jobcompile", "halo": {"points": [point]}}

    assert diff_reports(report(1.0), report(2.5), "jobcompile").rows == []
    rows = diff_reports(report(1.0), report(3.5), "jobcompile").rows
    assert [r[0] for r in rows] == ["jobcompile.halo[P=16384].traced.wall"]


def test_benchdiff_jobcompile_traced_leg_has_no_floor():
    """The traced leg is best of five, milliseconds at P=64: a tenfold
    slowdown fails although it stays under a second."""
    def report(traced_wall):
        leg = {"wall": 1e-3, "elapsed": 1e-3, "path": "replay",
               "engine_steps": 0, "rel_err": 0.0, "identical_returns": True,
               "speedup": 50.0}
        point = {
            "ranks": 8,
            "stepped": {"wall": 0.05, "elapsed": 1e-3, "engine_steps": 9},
            "replay": leg, "memo": dict(leg, path="memo"),
            "traced": {"wall": traced_wall, "untraced_wall": 1e-3,
                       "elapsed": 1e-3, "path": "replay", "events": 1,
                       "trace_overhead": 2.0},
        }
        return {"name": "jobcompile", "halo": {"points": [point]}}

    assert diff_reports(report(2e-3), report(5e-3), "jobcompile").rows == []
    rows = diff_reports(report(2e-3), report(2e-2), "jobcompile").rows
    assert [(r[0], r[3]) for r in rows] == [
        ("jobcompile.halo[P=8].traced.wall", "wall > budget 6.0ms")]


def test_benchdiff_walls_print_in_their_unit():
    assert [_fmt_wall(w) for w in (2.5, 0.0125, 3e-5, 0.0)] == [
        "2.500s", "12.5ms", "30.0µs", "0.0µs"]
    d = Diff()
    d.wall("small.us", 10.0, 40.0, floor=0.0, unit="us")
    assert d.rows == [("small.us", "10.0µs", "40.0µs",
                       "wall > budget 30.0µs")]


def test_benchdiff_jobcompile_gates_lowered_output_exactly():
    def report(digest, phases=9):
        point = {"ranks": 65536, "job": "halo", "iters": 3,
                 "lower": {"wall": 1e-3, "phases": phases, "digest": digest}}
        return {"name": "jobcompile", "halo": {"points": []},
                "lower": {"points": [point]}}

    assert diff_reports(report("ab"), report("ab"), "jobcompile").rows == []
    rows = diff_reports(report("ab"), report("cd", 8), "jobcompile").rows
    assert [r[0] for r in rows] == [
        "jobcompile.lower[P=65536,halo].lower.phases",
        "jobcompile.lower[P=65536,halo].lower.digest",
    ]
    assert {r[3] for r in rows} == {"value changed"}


def test_benchdiff_jobcompile_budgets_the_lowering_leg():
    def report(wall):
        point = {"ranks": 65536, "job": "halo", "iters": 3,
                 "lower": {"wall": wall, "phases": 13, "digest": "ab"}}
        return {"name": "jobcompile", "halo": {"points": []},
                "lower": {"points": [point]}}

    assert diff_reports(report(3e-5), report(8e-5), "jobcompile").rows == []
    rows = diff_reports(report(3e-5), report(3e-4), "jobcompile").rows
    assert [(r[0], r[3]) for r in rows] == [
        ("jobcompile.lower[P=65536,halo].lower.wall", "wall > budget 90.0µs")]
    assert rows[0][1:3] == ("30.0µs", "300.0µs")


def test_benchdiff_jobcompile_budgets_the_small_leg():
    def report(us, digest="ab"):
        point = {"kind": "allreduce", "ranks": 5, "occurrences": 100,
                 "resolve": {"wall": us * 1e-4, "us": us, "digest": digest}}
        return {"name": "jobcompile", "halo": {"points": []},
                "small": {"points": [point]}}

    assert diff_reports(report(10.0), report(29.0), "jobcompile").rows == []
    rows = diff_reports(report(10.0), report(31.0, "cd"), "jobcompile").rows
    assert [r[0] for r in rows] == [
        "jobcompile.small.us", "jobcompile.small[P=5,allreduce].resolve.digest"]


def test_benchdiff_jobcompile_budgets_the_vector_legs():
    def report(wall):
        vec = {"wall": wall, "elapsed": 1e-3, "engine_steps": 0,
               "path": "vector", "phases": 9, "rel_err_replay": 0.0,
               "speedup_vs_replay": 500.0, "minor_faults": 0}
        point = {"ranks": 65537, "replay": {"wall": 4.0, "elapsed": 1e-3},
                 "vector": vec}
        return {"name": "jobcompile", "halo": {"points": []},
                "vector": {"points": [point]}}

    assert diff_reports(report(0.006), report(0.017), "jobcompile").rows == []
    rows = diff_reports(report(0.006), report(0.06), "jobcompile").rows
    assert [(r[0], r[3]) for r in rows] == [
        ("jobcompile.vector[P=65537].vector.wall", "wall > budget 18.0ms")]


def test_benchdiff_passes_the_committed_reports():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    for name in ("BENCH_jobcompile.json", "BENCH_selfperf.json",
                 "BENCH_campaign.json"):
        report = json.loads((root / name).read_text(encoding="utf-8"))
        family = _family_of(report, name)
        assert diff_reports(report, report, family).rows == [], name


def test_benchdiff_selfperf_budgets_the_cold_start():
    modules = ["repro", "repro.mpi", "repro.mpi.compile"]
    base = {"campaigns": {"cold_start": {"wall_s": 0.15, "modules": modules}}}
    slow = {"campaigns": {"cold_start": {"wall_s": 1.5, "modules": modules}}}
    heavier = {"campaigns": {"cold_start": {
        "wall_s": 0.15, "modules": modules + ["repro.core.evaluator"]}}}
    assert diff_reports(base, base, "selfperf").rows == []
    rows = diff_reports(base, slow, "selfperf").rows
    assert [(r[0], r[3]) for r in rows] == [
        ("selfperf.cold_start.wall_s", "wall > budget 450.0ms")]
    rows = diff_reports(base, heavier, "selfperf").rows
    assert [(r[0], r[3]) for r in rows] == [
        ("selfperf.cold_start.modules", "value changed")]


def test_benchdiff_floor_tolerates_noise():
    # Sub-second baselines get the 1 s floor, not 3x of nearly nothing.
    base = {"campaigns": {"x": {"wall_s": 0.01}}}
    noisy = {"campaigns": {"x": {"wall_s": 0.9}}}
    assert diff_reports(base, noisy, "selfperf").rows == []


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
