"""The simulated ``mpiexec``: launch N rank processes on a fabric and run.

A :class:`MpiJob` owns the engine, the per-rank mailboxes and the fabric
resolver; :func:`mpiexec` is the one-call convenience used throughout the
examples and tests::

    def main(comm):
        total = yield from comm.allreduce(comm.rank)
        return total

    result = mpiexec(8, host_fabric(), main)
    result.elapsed      # simulated seconds
    result.returns      # per-rank return values

Jobs accept a :class:`~repro.faults.FaultPlan` (``fault_plan=``): link
faults reprice the fabric against the engine clock, rank crashes are
armed as injectors, and stragglers slow the victim rank's compute.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Union

from repro.errors import ConfigError, IncompleteJobError
from repro.mpi.api import Communicator, FabricResolver
from repro.mpi.fabrics import Fabric
from repro.obs.tracer import Tracer, active
from repro.simcore import Engine, Store

RankMain = Callable[[Communicator], Generator]


def _traced_rank(tracer: Tracer, pid: str, rank: int, gen: Generator) -> Generator:
    """Wrap a rank main in a lifetime span on its timeline lane.

    The span is closed in a ``finally`` so a rank that dies on an
    exception (deadlock teardown, injected fault) still leaves a
    well-formed trace instead of an unterminated ``B`` event.
    """
    span = tracer.begin(f"rank{rank}", cat="mpi.rank", pid=pid, tid=f"rank{rank}")
    try:
        result = yield from gen
    finally:
        tracer.end(span)
    return result


class JobResult:
    """Outcome of one simulated MPI job.

    Attributes
    ----------
    elapsed:
        Simulated wall time in seconds.
    completed:
        True iff every rank ran to completion.  ``run(until=...)`` can
        stop the clock mid-job; reading :attr:`returns` off such a
        truncated result raises :class:`~repro.errors.IncompleteJobError`
        — use :meth:`partial_returns` to opt in to partial data.
    finished:
        Per-rank completion flags.
    mode:
        How the result was produced: ``"stepped"`` (the event engine),
        ``"replay"`` (:mod:`repro.mpi.compile`'s analytic max-plus
        replay), ``"vector"`` (:mod:`repro.mpi.phasec`'s array-form
        max-plus recurrences) or ``"memo"`` (a warm
        :class:`~repro.perf.cache.EvalCache` hit that stepped no event
        at all).

    Vector-priced (and vector-memoized) results carry no materialized
    per-rank values: payload movement stays on the scalar replay, so
    :attr:`returns` runs it lazily on first access (``returns_factory``)
    and the values remain bit-identical to the stepped engine.
    """

    __slots__ = ("elapsed", "_returns", "_returns_factory", "_n_ranks",
                 "completed", "finished", "mode")

    def __init__(
        self,
        elapsed: float,
        returns: Optional[List[Any]],
        completed: bool = True,
        finished: Optional[List[bool]] = None,
        mode: str = "stepped",
        n_ranks: Optional[int] = None,
        returns_factory: Optional[Callable[[], List[Any]]] = None,
    ):
        if returns is None:
            if n_ranks is None or returns_factory is None:
                raise ConfigError(
                    "lazy JobResult needs n_ranks and returns_factory"
                )
            self._n_ranks = n_ranks
        else:
            self._n_ranks = len(returns)
        self.elapsed = elapsed
        self._returns = returns
        self._returns_factory = returns_factory
        self.completed = completed
        self.finished = (
            [True] * self._n_ranks if finished is None else finished
        )
        self.mode = mode

    def _materialize(self) -> List[Any]:
        if self._returns is None:
            self._returns = self._returns_factory()
        return self._returns

    @property
    def returns(self) -> List[Any]:
        """Per-rank return values; raises on a truncated run.

        A rank that has not finished has no return value — before this
        guard, ``run(until=...)`` silently yielded ``None`` for every
        unfinished rank, indistinguishable from ranks that returned
        ``None``.
        """
        if not self.completed:
            pending = [r for r, done in enumerate(self.finished) if not done]
            raise IncompleteJobError(
                f"job stopped with {len(pending)} unfinished rank(s) "
                f"{pending[:8]}; use partial_returns() to read anyway"
            )
        return self._materialize()

    def partial_returns(self, default: Any = None) -> List[Any]:
        """Per-rank return values with ``default`` for unfinished ranks."""
        return [
            v if done else default
            for v, done in zip(self._materialize(), self.finished)
        ]

    @property
    def n_ranks(self) -> int:
        return self._n_ranks

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.completed else (
            f"{sum(self.finished)}/{self.n_ranks} ranks"
        )
        return f"<JobResult elapsed={self.elapsed:.9g}s [{state}]>"


class MpiJob:
    """N simulated ranks wired to mailboxes over a fabric.

    ``fast_collectives`` controls the analytic collective fast path
    (:mod:`repro.mpi.fastpath`): ``None`` (default) enables it exactly
    when the job is *uniform* — built over a single fabric object, so no
    rank pair diverges; ``True`` demands it (raising
    :class:`~repro.errors.ConfigError` on a non-uniform resolver fabric,
    whose per-rank divergence the analytic schedules cannot express);
    ``False`` forces every collective through the stepped algorithms.
    It changes speed only: the fast path takes just the collectives whose
    schedule releases no rank before the last one arrives, and gives
    every rank the finish time its stepped algorithm would, so elapsed
    times and returns do not depend on it.

    ``fault_plan`` injects a :class:`~repro.faults.FaultPlan`: link
    faults wrap the fabric in a degraded variant gated by the engine
    clock, crashes/window markers are armed at :meth:`launch`, and the
    analytic fast path is disabled (its schedules assume a healthy,
    time-invariant network).

    ``verifier`` arms a :class:`~repro.analyze.verifier.Verifier` on
    every rank's communicator (vector clocks, request/collective
    ledgers).  Verification also disables the analytic fast path so each
    message is individually observable.
    """

    def __init__(
        self,
        n_ranks: int,
        fabric: Union[Any, FabricResolver],
        engine: Optional[Engine] = None,
        name: str = "mpijob",
        tracer: Optional[Tracer] = None,
        fast_collectives: Optional[bool] = None,
        fault_plan: Optional[Any] = None,
        verifier: Optional[Any] = None,
    ):
        if n_ranks < 1:
            raise ConfigError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        self.engine = engine or Engine()
        self.name = name
        self.tracer = tracer
        self.fault_plan = fault_plan
        self.verifier = verifier
        if tracer is not None:
            tracer.bind_engine(self.engine)
        if fault_plan is not None and fault_plan.link_faults:
            fabric = self._degraded(fabric)
        # A uniform job prices every rank pair with one fabric object.
        # ``isinstance`` beats duck-typing here: a callable *resolver*
        # that happens to carry a ``p2p_time`` attribute (e.g. a wrapped/
        # partial-bound fabric function) must still route per rank pair.
        uniform = isinstance(fabric, Fabric) or not callable(fabric)
        if uniform:
            self._fabric_for = lambda src, dst: fabric
        else:
            self._fabric_for = fabric
        if fast_collectives and not uniform:
            raise ConfigError(
                "fast_collectives requires a uniform fabric (a single Fabric "
                "object); this job routes by rank pair and must step every rank"
            )
        if fast_collectives and fault_plan is not None:
            raise ConfigError(
                "fast_collectives cannot run under a fault plan: the analytic "
                "schedules assume a healthy, time-invariant network"
            )
        self.fast = None
        if (
            (fast_collectives or fast_collectives is None)
            and uniform
            and n_ranks > 1
            and fault_plan is None
            and verifier is None
            and not getattr(fabric, "time_varying", False)
        ):
            from repro.mpi.fastpath import FastCollectives

            self.fast = FastCollectives(fabric, n_ranks)
        self.mailboxes = [Store(name=f"{name}.mbox[{r}]") for r in range(n_ranks)]
        self._procs = []
        self._main: Optional[RankMain] = None
        if verifier is not None:
            verifier.attach(self)

    def _degraded(self, fabric: Any) -> Any:
        """Apply the plan's link faults to ``fabric`` (or to each fabric a
        resolver returns), gated by this job's engine clock."""
        plan, engine = self.fault_plan, self.engine
        if isinstance(fabric, Fabric) or not callable(fabric):
            return plan.degrade(fabric, clock=engine)

        def resolver(src: int, dst: int, _base: Any = fabric) -> Any:
            return plan.degrade(_base(src, dst), clock=engine)

        return resolver

    def communicator(self, rank: int) -> Communicator:
        return Communicator(
            self.engine,
            rank,
            self.n_ranks,
            self.mailboxes,
            self._fabric_for,
            tracer=self.tracer,
            trace_pid=self.name,
            fast=self.fast,
            faults=self.fault_plan,
            verifier=self.verifier,
        )

    def launch(self, main: RankMain) -> None:
        """Spawn ``main(comm)`` once per rank (with lifetime spans when
        the job carries a tracer) and arm any fault injectors."""
        tr = active(self.tracer)
        self._main = main  # the compiled fast path reprices from the original
        for rank in range(self.n_ranks):
            comm = self.communicator(rank)
            gen = main(comm)
            if tr is not None:
                gen = _traced_rank(tr, self.name, rank, gen)
            self._procs.append(self.engine.spawn(gen, name=f"{self.name}.rank{rank}"))
        if self.fault_plan is not None and (
            self.fault_plan.crashes
            or self.fault_plan.link_faults
            or self.fault_plan.stragglers
        ):
            from repro.faults.inject import arm

            arm(self.engine, self.fault_plan, self._procs, tracer=tr)

    def run(
        self,
        until: Optional[float] = None,
        *,
        compiled: bool = False,
        cache: Optional[Any] = None,
        stats: Optional[Any] = None,
        vector: Optional[bool] = None,
    ) -> JobResult:
        """Run the engine (to time ``until`` if given).

        Returns a :class:`JobResult`; when ``until`` stops the clock
        before every rank finishes, the result's ``completed`` flag is
        False and its ``returns`` guard against misreads.

        ``compiled=True`` asks :mod:`repro.mpi.compile` to price the job
        without stepping it (memo → vectorized phase recurrences →
        scalar max-plus replay, per its selection heuristics); any
        refusal falls back to the stepped engine transparently.
        ``cache``/``stats``/``vector`` are forwarded to the compiled
        selection; with ``stats`` given the stepped fallback journals
        ``path="stepped"`` and its step count.
        """
        if compiled and until is None:
            from repro.mpi.compile import job_fastpath

            result = job_fastpath(
                self, cache=cache, stats=stats, vector=vector
            )
            if result is not None:
                return result
        start = self.engine.now
        self.engine.run(until=until)
        if stats is not None:
            stats.path = "stepped"
            stats.engine_steps = self.engine.timeline()
        finished = [p.finished for p in self._procs]
        return JobResult(
            elapsed=self.engine.now - start,
            returns=[p.value for p in self._procs],
            completed=all(finished),
            finished=finished,
        )


def mpiexec(
    n_ranks: int,
    fabric: Union[Any, FabricResolver],
    main: RankMain,
    engine: Optional[Engine] = None,
    tracer: Optional[Tracer] = None,
    fast_collectives: Optional[bool] = None,
    fault_plan: Optional[Any] = None,
    verifier: Optional[Any] = None,
) -> JobResult:
    """Launch and run ``main`` on ``n_ranks`` simulated ranks."""
    job = MpiJob(
        n_ranks, fabric, engine=engine, tracer=tracer,
        fast_collectives=fast_collectives, fault_plan=fault_plan,
        verifier=verifier,
    )
    job.launch(main)
    return job.run()
