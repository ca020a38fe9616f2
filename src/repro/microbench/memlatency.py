"""Memory load latency vs working set (Section 6.2.1 / Figure 5)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.machine.presets import sandy_bridge_processor, xeon_phi_5110p
from repro.machine.processor import Processor
from repro.units import GiB, KiB


def default_working_sets(
    start: int = 4 * KiB, stop: int = 1 * GiB
) -> List[int]:
    """Power-of-two working-set axis (the figure's x-axis)."""
    sets = []
    s = start
    while s <= stop:
        sets.append(s)
        s *= 2
    return sets


def latency_sweep(
    proc: Processor, working_sets: Sequence[int]
) -> List[Tuple[int, float]]:
    """(working_set, latency seconds) pairs for a pointer chase."""
    return [(ws, proc.load_latency(ws)) for ws in working_sets]


def fig5_data(working_sets: Sequence[int] = None) -> Dict[str, List[Tuple[int, float]]]:
    """The Figure 5 series for host and Phi."""
    ws = list(working_sets) if working_sets else default_working_sets()
    host = Processor(sandy_bridge_processor())
    phi = Processor(xeon_phi_5110p())
    return {"host": latency_sweep(host, ws), "phi": latency_sweep(phi, ws)}


def numpy_pointer_chase(
    working_set: int, hops: int = 200_000, subtract_overhead: bool = True
) -> float:
    """Measure *this* machine's load-to-use latency (seconds per hop).

    The classic microbenchmark behind Figure 5: a random cyclic
    permutation of ``working_set`` bytes is chased pointer-by-pointer so
    every load depends on the previous one — prefetchers are useless and
    the measured time per hop is the memory hierarchy's true latency at
    that footprint.

    ``subtract_overhead=False`` returns the raw per-hop time including
    the interpreter's loop cost — noisier environments should compare
    raw values between working sets instead of absolute latencies.
    """
    import time

    import numpy as np

    if working_set < 1024:
        raise ValueError("working_set must be at least 1 KiB")
    n = max(2, working_set // 8)
    rng = np.random.default_rng(7)
    # A single random cycle visiting every slot once (Sattolo's algorithm
    # vectorized via a shuffled successor ring).
    order = rng.permutation(n)
    chain = np.empty(n, dtype=np.int64)
    chain[order[:-1]] = order[1:]
    chain[order[-1]] = order[0]
    # Chase through a memoryview, eight dependent loads per statement: a
    # numpy scalar per hop, or a loop iteration per hop, costs the
    # interpreter more than the cache levels differ by.
    c = memoryview(chain)
    rounds = max(1, hops // 8)
    hops = 8 * rounds
    idx = 0
    # Warm the cache, then time.
    for _ in range(min(hops, n) // 8):
        idx = c[c[c[c[c[c[c[c[idx]]]]]]]]
    t0 = time.perf_counter()
    for _ in range(rounds):
        idx = c[c[c[c[c[c[c[c[idx]]]]]]]]
    dt = time.perf_counter() - t0
    if not subtract_overhead:
        return dt / hops
    # Subtract the Python interpreter's per-hop overhead, measured on an
    # in-register chase (a self-loop) of the same length.
    t = memoryview(np.zeros(1, dtype=np.int64))
    j = 0
    t1 = time.perf_counter()
    for _ in range(rounds):
        j = t[t[t[t[t[t[t[t[j]]]]]]]]
    overhead = time.perf_counter() - t1
    return max(0.0, (dt - overhead)) / hops
