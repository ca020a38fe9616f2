"""Cache-hierarchy walk model: latency and bandwidth vs working-set size.

Reproduces the methodology behind the paper's Figures 5 and 6: a
pointer-chase (latency) or streaming sweep (bandwidth) over a working set
``S``.  With cache capacities ``C1 < C2 < … < Cmem = ∞``, the fraction of
accesses served by level ``i`` under a uniform random walk is::

    f_i(S) = (min(C_i, S) - min(C_{i-1}, S)) / S

so the curve is flat while ``S`` fits a level and transitions smoothly to
the next plateau — the staircase shape of the measured figures.

Average latency is the ``f``-weighted arithmetic mean of level latencies;
bandwidth is the ``f``-weighted *harmonic* mean of level bandwidths
(times per byte add, rates do not).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigError
from repro.machine.spec import ProcessorSpec


class CacheWalkModel:
    """Latency/bandwidth vs working set for one core of ``proc``.

    Shared caches contribute their full capacity when a single core walks
    them alone (``exclusive=True``, the microbenchmark setting) or a
    per-core slice when all cores are active.
    """

    def __init__(self, proc: ProcessorSpec, exclusive: bool = True):
        self.proc = proc
        self.exclusive = exclusive
        self._levels = self._effective_levels()

    def _effective_levels(self) -> List[Tuple[str, float, float, float, float]]:
        """(name, capacity, latency, read_bw, write_bw) from L1 out to memory."""
        levels = []
        for c in self.proc.cache_levels:
            cap = c.capacity
            if c.shared and not self.exclusive:
                cap = c.capacity / self.proc.n_cores
            levels.append((c.name, float(cap), c.latency, c.read_bw, c.write_bw))
        mem = self.proc.memory
        levels.append(
            (
                "MEM",
                float("inf"),
                mem.latency,
                mem.read_bw_per_core,
                mem.write_bw_per_core,
            )
        )
        return levels

    # ------------------------------------------------------------------

    def level_fractions(self, working_set: float) -> List[Tuple[str, float]]:
        """Fraction of accesses served by each level for a given working set."""
        if working_set <= 0:
            raise ConfigError("working_set must be positive")
        fractions = []
        prev_cap = 0.0
        for name, cap, _lat, _r, _w in self._levels:
            served = max(0.0, min(cap, working_set) - min(prev_cap, working_set))
            fractions.append((name, served / working_set))
            prev_cap = cap
        return fractions

    def latency(self, working_set: float) -> float:
        """Average load-to-use latency (seconds) for a pointer chase over
        ``working_set`` bytes."""
        total = 0.0
        for (name, frac), (_n, _c, lat, _r, _w) in zip(
            self.level_fractions(working_set), self._levels
        ):
            total += frac * lat
        return total

    def bandwidth(self, working_set: float, access: str = "read") -> float:
        """Sustained single-core streaming bandwidth (bytes/s) over
        ``working_set`` bytes; ``access`` is ``"read"`` or ``"write"``."""
        if access not in ("read", "write"):
            raise ConfigError(f"access must be 'read' or 'write', got {access!r}")
        idx = 3 if access == "read" else 4
        inv = 0.0
        for (name, frac), lvl in zip(self.level_fractions(working_set), self._levels):
            inv += frac / lvl[idx]
        return 1.0 / inv

    def plateau_latencies(self) -> List[Tuple[str, float]]:
        """The asymptotic per-level latencies — the figure's plateau values."""
        return [(name, lat) for name, _c, lat, _r, _w in self._levels]

    def sweep(
        self,
        working_sets: Sequence[float],
        quantity: str = "latency",
        access: str = "read",
    ) -> List[float]:
        """Vector convenience: evaluate latency or bandwidth over a sweep."""
        if quantity == "latency":
            return [self.latency(s) for s in working_sets]
        if quantity == "bandwidth":
            return [self.bandwidth(s, access) for s in working_sets]
        raise ConfigError(f"unknown quantity {quantity!r}")
