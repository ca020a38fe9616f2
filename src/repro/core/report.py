"""Fixed-width text rendering for benchmark harnesses.

``repro figure N`` and ``benchmarks/bench_figures.py`` print every
figure of :mod:`repro.figures`, and the claim rows with their "paper"
column next to the "model" column, via these helpers.  Plain
ASCII so output survives any terminal or CI log.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.units import fmt_rate, fmt_size, fmt_time


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as a fixed-width table; floats get 4 significant digits."""
    srows: List[List[str]] = []
    for row in rows:
        srows.append(
            [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
        )
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def figure_header(fig: str, caption: str) -> str:
    """The banner each bench prints before its table."""
    bar = "=" * 72
    return f"\n{bar}\n{fig}: {caption}\n{bar}"


def band_str(lo: float, hi: float) -> str:
    return f"{lo:.3g}..{hi:.3g}"


def in_band(value: float, lo: float, hi: float, slack: float = 0.15) -> bool:
    """Is ``value`` inside [lo, hi], with fractional ``slack`` at each edge?

    The paper quotes factor ranges read off charts; the model is held to
    the band within 15 % at the edges by default.
    """
    return lo * (1.0 - slack) <= value <= hi * (1.0 + slack)


__all__ = [
    "band_str",
    "figure_header",
    "fmt_rate",
    "fmt_size",
    "fmt_time",
    "in_band",
    "render_table",
]
