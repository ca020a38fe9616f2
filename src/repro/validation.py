"""Programmatic reproduction validation: every paper claim, one verdict each.

:func:`validate_all` runs the full claim battery: the ``claims`` of every
entry of :data:`repro.figures.FIGURES`, over that entry's one data
function.  ``benchmarks/bench_figures.py`` asserts the same claims plus
each entry's bench-only gates.  The verdicts are data, so tooling
(the CLI's ``validate`` command, CI dashboards, EXPERIMENTS.md
regeneration) can consume them.  Each :class:`Claim` records the figure,
the paper's statement, the model's measured value, and a pass/fail
verdict.

This module is intentionally *read-only* over the models: it never tunes
anything, it only asks whether the calibrated system still reproduces
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.report import band_str, in_band


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
        ok = in_band(value, lo, hi, slack)
        self.check(figure, statement, band_str(lo, hi), f"{value:.3g}", ok)

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


def validate_all() -> ClaimSet:
    """Run the whole claim battery; returns the populated ClaimSet."""
    from repro.figures import FIGURES

    cs = ClaimSet()
    for fig in FIGURES.values():
        fig.claims(fig.data(), cs, gates=ClaimSet())
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
