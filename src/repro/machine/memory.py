"""Main-memory models: DDR3 channels (host) and GDDR5 banks (Phi).

The quantity these models exist to produce is aggregate STREAM-style
bandwidth as a function of concurrent access streams (≈ software threads):

* :class:`DramModel` — bandwidth ramps linearly with threads until the
  channel-limited sustainable ceiling; NUMA spreads threads round-robin
  over sockets so a 2-socket host doubles the ceiling.
* :class:`Gddr5Model` — same ramp, but GDDR5 exposes a finite number of
  simultaneously open banks (16 per device × 8 devices = 128 on the Phi
  5110P).  Once concurrent streams exceed the open-bank count, page
  thrashing multiplies bandwidth by ``bank_thrash_factor`` — the paper's
  explanation for STREAM dropping from 180 GB/s (59/118 threads) to
  140 GB/s beyond 118 threads (Section 6.1).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.machine.spec import MemorySpec


class DramModel:
    """Chip-level DDR bandwidth vs number of requesting threads."""

    def __init__(self, spec: MemorySpec, per_thread_bandwidth: float):
        if per_thread_bandwidth <= 0:
            raise ConfigError("per_thread_bandwidth must be positive")
        self.spec = spec
        self.per_thread_bandwidth = per_thread_bandwidth

    def stream_bandwidth(self, n_threads: int, n_streams: int = None) -> float:
        """Aggregate sustainable STREAM bandwidth (bytes/s) with ``n_threads``.

        ``n_streams`` — concurrent memory access streams (defaults to one
        per thread, the STREAM-triad accounting the paper uses); only the
        GDDR5 subclass cares.
        """
        if n_threads < 1:
            raise ConfigError("n_threads must be >= 1")
        return min(
            n_threads * self.per_thread_bandwidth, self.spec.sustained_bandwidth
        )


class Gddr5Model(DramModel):
    """GDDR5 with an open-bank concurrency limit.

    The thrash penalty triggers on the number of concurrent *streams*:
    STREAM itself counts one per thread (Fig 4's 118 → 177 drop), but an
    application sweeping several arrays per thread crosses the 128-bank
    limit at far lower thread counts.
    """

    def stream_bandwidth(self, n_threads: int, n_streams: int = None) -> float:
        base = super().stream_bandwidth(n_threads)
        banks = self.spec.n_banks
        streams = n_streams if n_streams is not None else n_threads
        if banks is not None and streams > banks:
            return base * self.spec.bank_thrash_factor
        return base


class NumaDramModel:
    """Two (or more) DDR sockets forming one NUMA host.

    Threads are assumed spread round-robin across sockets (the default
    OpenMP placement in the paper's runs), so each socket sees an equal
    share and the aggregate is the sum of per-socket curves.
    """

    def __init__(self, socket_model: DramModel, n_sockets: int):
        if n_sockets < 1:
            raise ConfigError("n_sockets must be >= 1")
        self.socket_model = socket_model
        self.n_sockets = n_sockets

    def stream_bandwidth(self, n_threads: int, n_streams: int = None) -> float:
        if n_threads < 1:
            raise ConfigError("n_threads must be >= 1")
        # Round-robin spread: socket i gets ceil or floor of the share.
        base, extra = divmod(n_threads, self.n_sockets)
        total = 0.0
        for s in range(self.n_sockets):
            share = base + (1 if s < extra else 0)
            if share:
                total += self.socket_model.stream_bandwidth(share)
        return total

    @property
    def sustained_bandwidth(self) -> float:
        return self.socket_model.spec.sustained_bandwidth * self.n_sockets
