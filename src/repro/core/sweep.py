"""Parameter sweeps: the shape of every figure in the paper.

Helpers that run an evaluator or cost model over a grid and return a
:class:`~repro.core.results.ResultSet` — thread counts (Figs 19, 21),
message sizes (Figs 8–14), (I × J) MPI×OpenMP decompositions (Fig 22).

Sweeps price their grid serially, in grid order; fanning points over
processes is the campaign runner's job (:mod:`repro.campaign`).
Infeasible points are recognised *only* by the simulator's own error
types (:data:`INFEASIBLE_ERRORS`) — anything else is a genuine bug and
propagates.  Resuming a killed sweep is the campaign runner's job too:
:func:`~repro.campaign.runner.run_campaign` journals every point.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.errors import (
    ConfigError,
    OutOfMemoryError,
    ReproError,
    SimulationError,
    UnsupportedConfigurationError,
)
from repro.core.results import Failure, Measurement, ResultSet
from repro.obs.tracer import Tracer, active
from repro.units import KiB

#: Error types that mark a sweep point as infeasible (skipped, not fatal):
#: hardware-faithful failures (out of memory, unsupported rank counts) and
#: configuration limits (thread counts beyond the device).  A bare
#: ``except Exception`` here once swallowed genuine bugs as "infeasible".
INFEASIBLE_ERRORS = (
    ConfigError,
    OutOfMemoryError,
    SimulationError,
    UnsupportedConfigurationError,
)


def message_size_sweep(start: int = 1, stop: int = 4 * 1024 * KiB) -> List[int]:
    """The classic 1 B → 4 MiB power-of-two message-size axis."""
    sizes = []
    s = start
    while s <= stop:
        sizes.append(s)
        s *= 2
    return sizes


# --------------------------------------------------------------------------
# Grid pricing
# --------------------------------------------------------------------------


def _price_point(
    run_fn: Callable[..., Measurement],
    skip_infeasible: bool,
    capture_failures: bool,
    point: Any,
) -> Any:
    """Price one point.  Returns a Measurement, ``None`` (infeasible and
    skipped) or a :class:`~repro.core.results.Failure` (captured death)."""
    args = point if isinstance(point, tuple) else (point,)
    try:
        return run_fn(*args)
    except ReproError as exc:
        if capture_failures:
            return Failure(
                point=point,
                error=type(exc).__name__,
                message=str(exc),
                when=getattr(exc, "when", None),
            )
        if isinstance(exc, INFEASIBLE_ERRORS) and skip_infeasible:
            return None
        raise


def _emit_sweep_trace(tracer: Tracer, sweep_name: str, results: ResultSet) -> None:
    """Lay a sweep's measurements out as spans, one lane per device.

    Spans are reconstructed from the measurements afterwards —
    deterministic, because results arrive in grid order — with each lane
    packing its points end to end on a local time cursor.
    """
    cursors: dict = {}
    for idx, m in enumerate(results):
        lane = str(m.config.get("device", "grid"))
        t = cursors.get(lane, 0.0)
        tracer.complete(
            f"{m.name}[{idx}]",
            cat="sweep.point",
            pid=f"sweep.{sweep_name}",
            tid=lane,
            ts=t,
            dur=m.time,
            args={"threads": m.config.get("threads"), "gflops": m.gflops},
        )
        cursors[lane] = t + m.time


def grid_sweep(
    run_fn: Callable[..., Measurement],
    points: Iterable[Any],
    skip_infeasible: bool = True,
    trace: Optional[Tracer] = None,
    trace_name: str = "grid",
    capture_failures: bool = False,
) -> ResultSet:
    """Price ``run_fn`` over ``points`` (tuples are splatted as arguments).

    The generic sweep behind every figure axis: message sizes, thread
    counts, decompositions.  Feasible results arrive in grid order.  An
    active ``trace`` tracer receives one span per feasible point on lane
    ``sweep.<trace_name>``/``<device>``.

    ``capture_failures=True`` turns every :class:`~repro.errors.ReproError`
    a point raises — injected faults, timeouts, OOMs — into a
    :class:`~repro.core.results.Failure` on the result set instead of
    aborting the campaign: the remaining points still run.
    """
    priced = [
        _price_point(run_fn, skip_infeasible, capture_failures, point)
        for point in points
    ]
    results = ResultSet(
        (m for m in priced if isinstance(m, Measurement)),
        failures=(f for f in priced if isinstance(f, Failure)),
    )
    tr = active(trace)
    if tr is not None:
        _emit_sweep_trace(tr, trace_name, results)
    return results
