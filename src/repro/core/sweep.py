"""Parameter sweeps: the shape of every figure in the paper.

Helpers that run an evaluator or cost model over a grid and return a
:class:`~repro.core.results.ResultSet` — thread counts (Figs 19, 21),
message sizes (Figs 8–14), (I × J) MPI×OpenMP decompositions (Fig 22).

Sweeps price their grid serially, in grid order; fanning points over
processes is the campaign runner's job (:mod:`repro.campaign`).
Infeasible points are recognised *only* by the simulator's own error
types (:data:`INFEASIBLE_ERRORS`) — anything else is a genuine bug and
propagates.

Every sweep also accepts ``checkpoint=``, a
:class:`~repro.campaign.checkpoint.SweepCheckpoint`: each priced point
is durably journaled as it lands, and re-running the same sweep against
the same checkpoint replays journaled points instead of re-pricing them
— the campaign runner's resume semantics, scaled down to one sweep call.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigError,
    OutOfMemoryError,
    ReproError,
    SimulationError,
    UnsupportedConfigurationError,
)
from repro.core.evaluator import Evaluator
from repro.core.results import Failure, Measurement, ResultSet
from repro.execmodel.kernel import KernelSpec
from repro.machine.node import Device
from repro.obs.tracer import Tracer, active
from repro.perf.batch import HAVE_NUMPY as _HAVE_NUMPY
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
    checkpoint: Optional[Any] = None,
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

    ``checkpoint`` (a :class:`~repro.campaign.checkpoint.SweepCheckpoint`)
    replays points journaled by an earlier run of the same sweep and
    durably records every freshly priced point, so a killed sweep can be
    re-run without re-pricing what already landed.
    """
    priced: List[Any] = []
    for point in points:
        hit, value = (False, None) if checkpoint is None else checkpoint.lookup(point)
        if not hit:
            value = _price_point(run_fn, skip_infeasible, capture_failures, point)
            if checkpoint is not None:
                checkpoint.record(point, value)
        priced.append(value)
    results = ResultSet(
        (m for m in priced if isinstance(m, Measurement)),
        failures=(f for f in priced if isinstance(f, Failure)),
    )
    tr = active(trace)
    if tr is not None:
        _emit_sweep_trace(tr, trace_name, results)
    return results


def thread_sweep(
    evaluator: Evaluator,
    kernel: KernelSpec,
    dev: Device,
    thread_counts: Sequence[int],
    skip_infeasible: bool = True,
    trace: Optional[Tracer] = None,
    batch: Optional[bool] = None,
    capture_failures: bool = False,
    checkpoint: Optional[Any] = None,
) -> ResultSet:
    """Native runs over a list of thread counts (Figs 19/21/25 x-axis).

    ``batch=None`` (the default) evaluates the whole axis in one
    vectorized :meth:`Evaluator.native_batch` call whenever NumPy is
    available — identical results in identical order, including cache
    interaction.  ``batch=False`` forces the per-point path.
    ``capture_failures`` needs the per-point exception objects and
    therefore routes through the scalar path, as does ``checkpoint``
    (points must journal individually to resume).
    """
    counts = list(thread_counts)
    use_batch = (
        (_HAVE_NUMPY if batch is None else batch)
        and not capture_failures
        and checkpoint is None
    )
    if use_batch:
        priced = evaluator.native_batch(dev, kernel, counts)
        if not skip_infeasible:
            for i, m in enumerate(priced):
                if m is None:
                    # The batch masked this point: the scalar evaluation
                    # must raise the same infeasibility.  If it *prices*
                    # the point instead, the two paths disagree — that
                    # used to drop the point silently; it is a bug and
                    # must surface.
                    scalar = evaluator.native(dev, kernel, counts[i])
                    raise SimulationError(
                        f"batch/scalar disagreement for {kernel.name} at "
                        f"threads={counts[i]}: batch marked the point "
                        f"infeasible but the scalar path priced it "
                        f"({scalar.time:.9g}s)"
                    )
        results = ResultSet(m for m in priced if m is not None)
        tr = active(trace)
        if tr is not None:
            _emit_sweep_trace(tr, f"threads.{kernel.name}", results)
        return results
    return grid_sweep(
        lambda t: evaluator.native(dev, kernel, t),
        counts,
        skip_infeasible=skip_infeasible,
        trace=trace,
        trace_name=f"threads.{kernel.name}",
        capture_failures=capture_failures,
        checkpoint=checkpoint,
    )


def decomposition_sweep(
    run_fn: Callable[[int, int], Measurement],
    decompositions: Iterable[Tuple[int, int]],
    skip_infeasible: bool = True,
    trace: Optional[Tracer] = None,
    capture_failures: bool = False,
    checkpoint: Optional[Any] = None,
) -> ResultSet:
    """(I MPI ranks × J OpenMP threads) sweep (Fig 22's x-axis).

    ``run_fn(i, j)`` prices one decomposition; infeasible points raise
    one of :data:`INFEASIBLE_ERRORS` and are skipped.
    """
    points = list(decompositions)
    for i, j in points:
        if i < 1 or j < 1:
            raise ConfigError(f"invalid decomposition {i}x{j}")
    return grid_sweep(
        lambda i, j: run_fn(i, j).with_config(ranks=i, omp_threads=j),
        points,
        skip_infeasible=skip_infeasible,
        trace=trace,
        trace_name="decomposition",
        capture_failures=capture_failures,
        checkpoint=checkpoint,
    )


def phi_thread_counts(threads_per_core: Sequence[int] = (1, 2, 3, 4)) -> List[int]:
    """The paper's Phi thread counts: 59 cores × 1..4 threads."""
    return [59 * k for k in threads_per_core]
