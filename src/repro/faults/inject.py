"""Wiring fault plans into running simulations.

Two halves:

* **Degraded fabrics** — :class:`DegradedFabric` /
  :class:`DegradedPciePathFabric` wrap a healthy fabric and reprice every
  message under the link-degradation faults whose time window is active.
  With a ``clock`` (any object with ``now``, e.g. the engine) the factors
  switch on and off as simulated time crosses the windows; without one
  the degradations are permanently active.

* **Injectors** — :func:`arm` schedules the plan's rank crashes and
  window edges against the engine clock.  A crash throws a
  :class:`~repro.errors.FaultError` into the victim rank's process at
  its current yield point; window edges emit ``fault.*`` tracer instants
  so timelines show when the environment changed.  All armed entries are
  cancelled the moment every rank finishes, so an unfired injector never
  extends a run's simulated elapsed time.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.errors import ConfigError, FaultError
from repro.faults.plan import LinkDegradation
from repro.mpi.fabrics import Fabric
from repro.mpi.protocols import _RENDEZVOUS_EXTRA, PciePathFabric


class _FactorMixin:
    """Shared active-window factor computation for degraded fabrics."""

    _faults: Sequence[LinkDegradation]
    _clock: Any

    #: Marks this fabric as repricing with simulated time; the compiled
    #: paths must not price it with fixed rates.
    time_varying = True

    def _factors(self):
        """(latency_factor, bandwidth_factor, disable_scif) right now."""
        clock = self._clock
        now = None if clock is None else clock.now
        lf = bwf = 1.0
        disable = False
        for f in self._faults:
            if now is None or f.active(now):
                lf *= f.latency_factor
                bwf *= f.bandwidth_factor
                disable = disable or f.disable_scif
        return lf, bwf, disable


class DegradedFabric(_FactorMixin, Fabric):
    """A :class:`~repro.mpi.fabrics.Fabric` repriced under link faults."""

    def __init__(self, base: Fabric, faults: Sequence[LinkDegradation],
                 clock: Any = None):
        super().__init__(base.params)
        self.base = base
        self._faults = list(faults)
        self._clock = clock

    def alpha(self, pattern: str = "neighbor", n_senders: int = 1) -> float:
        lf, _bwf, _ = self._factors()
        return self.base.alpha(pattern, n_senders) * lf

    def bandwidth(self, pattern: str = "neighbor") -> float:
        _lf, bwf, _ = self._factors()
        return self.base.bandwidth(pattern) * bwf

    def handshake(self, nbytes: int) -> float:
        lf, _bwf, _ = self._factors()
        return self.base.handshake(nbytes) * lf

    def sender_time(self, nbytes: int) -> float:
        lf, bwf, _ = self._factors()
        return (
            0.5 * self.params.latency * lf
            + nbytes / (self.params.pair_bandwidth * bwf)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DegradedFabric {self.name} x{len(self._faults)} faults>"


class DegradedPciePathFabric(_FactorMixin, PciePathFabric):
    """A :class:`~repro.mpi.protocols.PciePathFabric` under link faults.

    ``disable_scif`` forces the CCL-direct provider for every message
    size — the pre-update software stack's defining behaviour — on top
    of the α/bandwidth derates.
    """

    def __init__(self, base: PciePathFabric, faults: Sequence[LinkDegradation],
                 clock: Any = None):
        super().__init__(base.path, base.software)
        self.base = base
        self._faults = list(faults)
        self._clock = clock

    def provider(self, nbytes: int) -> str:
        _lf, _bwf, disable = self._factors()
        if disable:
            return "ccl"
        return self.software.provider_for(nbytes)

    def data_bandwidth(self, nbytes: int) -> float:
        _lf, bwf, _ = self._factors()
        if self.provider(nbytes) == "scif":
            return self.params.scif_bandwidth * bwf
        return self.params.ccl_bandwidth * bwf

    def p2p_time(self, nbytes: int, pattern: str = "neighbor",
                 n_senders: int = 1) -> float:
        if nbytes < 0:
            raise ConfigError("nbytes must be non-negative")
        lf, _bwf, _ = self._factors()
        a = self.params.latency * lf
        t = a
        if self.protocol(nbytes) == "rendezvous":
            t += _RENDEZVOUS_EXTRA * a
        if self.provider(nbytes) == "scif":
            t += self.params.scif_setup
        return t + nbytes / self.data_bandwidth(nbytes)

    def handshake(self, nbytes: int) -> float:
        lf, _bwf, _ = self._factors()
        if self.protocol(nbytes) == "eager":
            return 0.0
        return _RENDEZVOUS_EXTRA * self.params.latency * lf

    def sender_time(self, nbytes: int) -> float:
        lf, bwf, _ = self._factors()
        return 0.5 * self.params.latency * lf + min(nbytes, self.eager_max) / (
            self.params.ccl_bandwidth * bwf
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DegradedPciePathFabric {self.name} x{len(self._faults)} faults>"


def degrade(fabric: Any, faults: Sequence[LinkDegradation],
            clock: Any = None) -> Any:
    """Wrap ``fabric`` in the matching degraded variant."""
    faults = list(faults)
    if not faults:
        return fabric
    if isinstance(fabric, PciePathFabric):
        return DegradedPciePathFabric(fabric, faults, clock=clock)
    if isinstance(fabric, Fabric):
        return DegradedFabric(fabric, faults, clock=clock)
    raise ConfigError(
        f"cannot degrade fabric of type {type(fabric).__name__}; "
        "wrap the per-pair fabrics it returns instead"
    )


def arm(engine: Any, plan: Any, procs: Sequence[Any],
        tracer: Any = None) -> List[Any]:
    """Schedule the plan's injectors against ``engine``'s clock.

    ``procs`` is the rank-indexed list of :class:`~repro.simcore.process.Process`
    objects.  Returns the armed queue entries; they self-cancel once every
    rank has finished, so a crash scheduled past the job's natural end
    neither fires nor stretches the simulated elapsed time.
    """
    entries: List[Any] = []
    nranks = len(procs)

    def _instant(name: str, cat: str, **args: Any) -> None:
        if tracer is not None and tracer.enabled:
            tracer.instant(name, cat=cat, pid="faults", tid="plan", args=args)

    for crash in plan.crashes:
        if crash.rank >= nranks:
            raise ConfigError(
                f"fault {crash.label!r} targets rank {crash.rank} "
                f"but the job has only {nranks} rank(s)"
            )
        victim = procs[crash.rank]

        def _fire(crash=crash, victim=victim) -> None:
            if victim.finished or victim.failure is not None:
                return
            _instant(
                "crash", cat="fault.crash", fault=crash.label, rank=crash.rank
            )
            victim.fail(
                FaultError(crash.describe(), rank=crash.rank, when=engine.now)
            )

        entries.append(engine.call_at(crash.at, _fire))

    # Window edges only matter for the trace; skip them with no tracer.
    if tracer is not None and tracer.enabled:
        for f in plan.link_faults + plan.stragglers:
            for edge, when in (("start", f.start), ("end", f.end)):
                if when == float("inf"):
                    continue

                def _mark(f=f, edge=edge) -> None:
                    _instant(
                        f"{f.kind}-{edge}", cat=f"fault.{f.kind}",
                        fault=f.label, edge=edge,
                    )

                entries.append(engine.call_at(when, _mark))

    if entries:
        remaining = {"n": nranks}

        def _rank_done(_value: Any) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                for e in entries:
                    engine._queue.cancel(e)

        for proc in procs:
            proc.done._waiters.append(_rank_done)

    return entries
