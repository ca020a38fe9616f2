"""Shard execution: the campaign's async job queue.

A campaign's pending points are cut into *shards* (work units of a few
points each) and pushed through a :class:`ShardExecutor` — an interface
deliberately shaped like a remote job queue: ``submit`` enqueues a
shard, :meth:`~ShardExecutor.completed` yields results **in completion
order** as workers finish them.  :func:`make_executor` picks one of
the two local implementations:

* :class:`SerialShardExecutor` — in-process, executes lazily as results
  are pulled; the ``workers <= 1`` path and the fallback when the host
  cannot spawn processes.
* :class:`PoolShardExecutor` — a ``concurrent.futures`` process pool
  fanning shards over N local workers; the one process pool in the
  library (sweeps price their grids serially).

Because the unit of work (a pickled ``(spec, shard)`` pair) and the unit
of result (a :class:`ShardResult` of plain records) are both
serializable, :class:`~repro.campaign.net.SocketShardExecutor` ships
shards to other hosts without touching the runner: the caller builds it
and passes it to :func:`~repro.campaign.runner.run_campaign` as
``executor=``.

Retries happen *inside* the worker: a point that dies with a
:class:`~repro.errors.ReproError` under the campaign's fault plan is
re-priced under progressively relaxed plans per the spec's
:class:`~repro.campaign.retry.RetryPolicy`, with bounded attempts and
exponential wall-clock backoff.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec
from repro.core.results import Failure
from repro.core.sweep import INFEASIBLE_ERRORS
from repro.errors import ReproError

__all__ = [
    "PointRecord",
    "ShardExecutor",
    "ShardResult",
    "SerialShardExecutor",
    "PoolShardExecutor",
    "make_executor",
]

#: One unit of work: (grid index, cache key, point) triples.
Shard = List[Tuple[int, str, Any]]


@dataclass(frozen=True)
class PointRecord:
    """One executed (or replayed) point, ready for journal and results."""

    index: int
    key: str
    status: str  # "ok" | "failure" | "infeasible"
    value: Any  # Measurement | Failure | None
    attempts: int = 1
    relaxation: int = 0


@dataclass(frozen=True)
class ShardResult:
    """Everything one shard produced, labelled with its queue position."""

    shard_index: int
    records: Tuple[PointRecord, ...]
    wall_s: float


# ==========================================================================
# Point execution with retry
# ==========================================================================


def execute_point(spec: CampaignSpec, index: int, key: str, point: Any) -> PointRecord:
    """Price one point under the spec's fault plan and retry policy.

    Attempt 1 runs under ``spec.fault_plan``; attempt ``k`` under
    ``plan.relaxed(k - 1)``.  The simulator is deterministic, so once a
    relaxation step no longer changes the plan further attempts are
    skipped — identical conditions would reproduce the identical death.
    """
    plan = spec.fault_plan
    retry = spec.retry
    max_attempts = retry.max_attempts if plan is not None else 1
    last_exc: Optional[ReproError] = None
    prev_plan = None
    attempt = 1
    for attempt in range(1, max_attempts + 1):
        attempt_plan = retry.plan_for_attempt(plan, attempt)
        if attempt > 1:
            if attempt_plan == prev_plan:
                attempt -= 1  # this attempt never ran
                break
            pause = retry.backoff(attempt)
            if pause > 0.0:
                time.sleep(pause)
        prev_plan = attempt_plan
        try:
            value = spec.point_fn(point, attempt_plan)
        except ReproError as exc:
            last_exc = exc
            continue
        return PointRecord(
            index=index,
            key=key,
            status="ok",
            value=value,
            attempts=attempt,
            relaxation=attempt - 1,
        )
    assert last_exc is not None
    if spec.capture_failures:
        return PointRecord(
            index=index,
            key=key,
            status="failure",
            value=Failure(
                point=point,
                error=type(last_exc).__name__,
                message=str(last_exc),
                when=getattr(last_exc, "when", None),
            ),
            attempts=attempt,
            relaxation=attempt - 1,
        )
    if isinstance(last_exc, INFEASIBLE_ERRORS) and spec.skip_infeasible:
        return PointRecord(
            index=index,
            key=key,
            status="infeasible",
            value=None,
            attempts=attempt,
            relaxation=attempt - 1,
        )
    raise last_exc


def execute_shard(
    spec: CampaignSpec,
    throttle_s: float,
    shard_index: int,
    shard: Shard,
) -> ShardResult:
    """Worker entry point: price every point of one shard, in order.

    ``throttle_s`` sleeps after each point — an execution-side pace knob
    (CI's kill-and-resume gate uses it to make runs interruptible); it
    never affects the results.
    """
    t0 = time.perf_counter()
    records = []
    for index, key, point in shard:
        records.append(execute_point(spec, index, key, point))
        if throttle_s > 0.0:
            time.sleep(throttle_s)
    return ShardResult(
        shard_index=shard_index,
        records=tuple(records),
        wall_s=time.perf_counter() - t0,
    )


# ==========================================================================
# Executors
# ==========================================================================


class ShardExecutor:
    """Async shard queue: submit work units, drain results as they land.

    The contract a multi-host implementation must honour: ``submit`` may
    not block on execution, :meth:`completed` yields every submitted
    shard exactly once (completion order is unspecified), and
    :meth:`close` releases workers.
    """

    def submit(self, shard_index: int, shard: Shard) -> None:
        raise NotImplementedError

    def completed(self) -> Iterator[ShardResult]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialShardExecutor(ShardExecutor):
    """In-process execution, lazily as results are pulled (FIFO order)."""

    def __init__(self, spec: CampaignSpec, throttle_s: float = 0.0):
        self._spec = spec
        self._throttle_s = throttle_s
        self._queue: List[Tuple[int, Shard]] = []

    def submit(self, shard_index: int, shard: Shard) -> None:
        self._queue.append((shard_index, shard))

    def completed(self) -> Iterator[ShardResult]:
        while self._queue:
            shard_index, shard = self._queue.pop(0)
            yield execute_shard(self._spec, self._throttle_s, shard_index, shard)


class PoolShardExecutor(ShardExecutor):
    """Process-pool execution: shards land in completion order.

    Workers start with ``fork`` where the platform has it (near-free
    start-up, no re-import race), else the platform default.
    ``concurrent.futures`` and ``multiprocessing`` are imported only
    here, so importing the library never loads them.  Construction
    raises whatever the host raises when it forbids processes or
    semaphores — use :func:`make_executor`, which degrades to the serial
    executor with a warning naming that error instead.
    """

    def __init__(self, spec: CampaignSpec, workers: int, throttle_s: float = 0.0):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        self._spec = spec
        self._throttle_s = throttle_s
        self._futures: List[Any] = []
        self._backlog: List[Tuple[int, Shard]] = []

    def submit(self, shard_index: int, shard: Shard) -> None:
        try:
            self._futures.append(
                self._pool.submit(
                    execute_shard, self._spec, self._throttle_s, shard_index, shard
                )
            )
        except (OSError, RuntimeError):
            # Submission can fail after construction (pool broken, fork
            # limits hit mid-run): keep the shard for in-process execution.
            self._backlog.append((shard_index, shard))

    def completed(self) -> Iterator[ShardResult]:
        from concurrent.futures import as_completed

        for future in as_completed(self._futures):
            yield future.result()
        for shard_index, shard in self._backlog:
            yield execute_shard(self._spec, self._throttle_s, shard_index, shard)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


def make_executor(
    spec: CampaignSpec,
    workers: Optional[int],
    throttle_s: float = 0.0,
) -> ShardExecutor:
    """The right executor for ``workers``, degrading loudly, never fatally.

    ``workers <= 1`` (or ``None``) is the serial executor by design; a
    host that cannot spawn processes gets the serial executor with a
    :class:`RuntimeWarning` naming the cause, so CI logs show when
    parallelism was disabled.  Other executors (a
    :class:`~repro.campaign.net.SocketShardExecutor`) are built by the
    caller and handed to :func:`~repro.campaign.runner.run_campaign` as
    ``executor=``.
    """
    if workers is None or workers <= 1:
        return SerialShardExecutor(spec, throttle_s)
    can_pickle = _shard_payload_picklable(spec)
    if can_pickle is not None:
        warnings.warn(
            f"campaign {spec.name!r} runs serially: {can_pickle}",
            RuntimeWarning,
            stacklevel=2,
        )
        return SerialShardExecutor(spec, throttle_s)
    try:
        return PoolShardExecutor(spec, workers, throttle_s)
    except (OSError, PermissionError, NotImplementedError) as exc:
        warnings.warn(
            f"campaign {spec.name!r} runs serially: process pool "
            f"unavailable ({exc!r})",
            RuntimeWarning,
            stacklevel=2,
        )
        return SerialShardExecutor(spec, throttle_s)


def _shard_payload_picklable(spec: CampaignSpec) -> Optional[str]:
    """``None`` if the spec ships to workers; else the reason it cannot."""
    import pickle

    try:
        pickle.dumps(spec)
        return None
    except Exception as exc:
        return f"campaign spec does not pickle ({exc!r})"
