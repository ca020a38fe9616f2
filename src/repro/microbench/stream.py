"""STREAM triad (Section 3.1 / Figure 4).

Two instruments:

* :func:`stream_sweep` / :func:`fig4_data` — the *modeled* sweep over
  thread counts on the Maia host and Phi, reproducing the 180 GB/s
  plateau at 59/118 threads and the bank-thrash drop to 140 GB/s beyond;
* :func:`numpy_stream_triad` — a real STREAM triad in NumPy measuring
  the machine this code runs on (the "make it work, measure it" idiom),
  used by the quickstart example.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.machine.presets import sandy_bridge_processor, xeon_phi_5110p
from repro.machine.processor import Processor


def stream_sweep(
    proc: Processor, thread_counts: Sequence[int]
) -> List[Tuple[int, float]]:
    """Aggregate triad bandwidth (bytes/s) at each thread count."""
    return [(t, proc.stream_bandwidth(t)) for t in thread_counts]


def fig4_data(
    host_threads: Optional[Sequence[int]] = None,
    phi_threads: Optional[Sequence[int]] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """The Figure 4 series: host (1–32 threads) and Phi (1–240 threads)."""
    host = Processor(sandy_bridge_processor(), sockets=2)
    phi = Processor(xeon_phi_5110p())
    host_threads = host_threads or [1, 2, 4, 8, 12, 16, 24, 32]
    phi_threads = phi_threads or [1, 2, 4, 8, 16, 30, 59, 118, 130, 177, 236]
    return {
        "host": stream_sweep(host, host_threads),
        "phi": stream_sweep(phi, phi_threads),
    }


def numpy_stream_triad(
    n: int = 4_000_000, repeats: int = 5, dtype: str = "float64"
) -> float:
    """Measure this machine's STREAM triad bandwidth (bytes/s) with NumPy.

    ``a[:] = b + scalar * c`` moves 3 arrays (2 reads + 1 write) of ``n``
    elements per iteration; the best of ``repeats`` is returned, per
    STREAM convention.
    """
    import numpy as np  # the one numpy user: the models import without it

    if n < 1000 or repeats < 1:
        raise ConfigError("need n >= 1000 and repeats >= 1")
    rng = np.random.default_rng(42)
    b = rng.random(n).astype(dtype)
    c = rng.random(n).astype(dtype)
    a = np.empty_like(b)
    scalar = 3.0
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(c, scalar, out=a)
        np.add(a, b, out=a)
        dt = time.perf_counter() - t0
        best = min(best, dt)
    nbytes = 3 * n * np.dtype(dtype).itemsize
    return nbytes / best
