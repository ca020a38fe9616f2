"""Hybrid MPI × OpenMP execution on the discrete-event engine.

The paper's application mode (Section 4.4, OVERFLOW's I×J decompositions)
is MPI ranks that each drive an OpenMP team.  :class:`HybridJob` wires
that up executably: N rank processes share one engine; each rank owns a
:class:`~repro.openmp.runtime.Team` carved out of its share of the
device's cores, and rank code interleaves team regions with MPI calls::

    def main(comm, team):
        for step in range(5):
            yield from team.parallel_for_region(lambda i: 1e-6, 10_000)
            yield from comm.allreduce(1.0)

    job = HybridJob(n_ranks=8, omp_threads=28, proc=xeon_phi_5110p(),
                    fabric=phi_fabric(4))
    result = job.run(main)

The per-rank sub-processor sees ``usable_cores // n_ranks`` cores, so 8
ranks × 28 threads on the Phi land at 4 threads/core — exactly the
paper's best OVERFLOW configuration.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Generator, Optional

from repro.errors import ConfigError
from repro.machine.spec import ProcessorSpec
from repro.mpi.api import CallLedger, Communicator
from repro.mpi.runtime import JobResult
from repro.openmp.runtime import Team
from repro.simcore import AllOf, Engine, Store, Timeout

HybridMain = Callable[[Communicator, "RankTeam"], Generator]


class RankTeam(Team):
    """A Team whose regions run as sub-steps of a host process.

    Unlike the base class (which owns and drives its engine), RankTeam's
    region methods are generators the rank process ``yield from``s, so
    OpenMP work and MPI communication interleave on one clock.
    """

    def parallel_region(self, body) -> Generator:
        """Fork ``body(tid)`` per thread; resume when all joined."""
        from repro.openmp.constructs import construct_overhead

        fork_cost = construct_overhead("PARALLEL", self.proc, self.n_threads) / 2.0

        def wrapped(tid: int) -> Generator:
            yield Timeout(fork_cost)
            result = yield from body(tid)
            return result

        procs = [
            self.engine.spawn(wrapped(tid), name=f"{id(self)}.t{tid}")
            for tid in range(self.n_threads)
        ]
        results = yield AllOf([p.done for p in procs])
        return results

    def parallel_for_region(
        self,
        iter_cost: Callable[[int], float],
        n_iters: int,
        schedule: str = "STATIC",
        chunk: int = 1,
    ) -> Generator:
        """A parallel loop as a yieldable region."""
        from repro.openmp.constructs import sync_hop
        from repro.openmp.scheduling import SCHEDULES, iteration_schedule, n_chunks

        if schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {schedule!r}")
        per_thread = iteration_schedule(schedule, n_iters, self.n_threads, chunk)
        fetch = 0.6 * sync_hop(self.proc)
        chunks_total = n_chunks(schedule, n_iters, self.n_threads, chunk)
        dynamic = schedule in ("DYNAMIC", "GUIDED")

        def body(tid: int) -> Generator:
            iters = per_thread[tid]
            if dynamic and iters:
                my_chunks = max(1, round(chunks_total * len(iters) / max(1, n_iters)))
                yield Timeout(my_chunks * fetch)
            for i in iters:
                yield from self.work(tid, iter_cost(i))
            yield from self.barrier(tid)

        yield from self.parallel_region(body)


def rank_subprocessor(proc: ProcessorSpec, n_ranks_on_device: int) -> ProcessorSpec:
    """The slice of ``proc`` one of ``n_ranks_on_device`` ranks may use."""
    if n_ranks_on_device < 1:
        raise ConfigError("n_ranks_on_device must be >= 1")
    cores = max(1, proc.usable_cores // n_ranks_on_device)
    return replace(proc, n_cores=cores, os_reserved_cores=0)


class HybridJob:
    """N MPI ranks, each with an OpenMP team, on one engine."""

    def __init__(
        self,
        n_ranks: int,
        omp_threads: int,
        proc: ProcessorSpec,
        fabric,
        engine: Optional[Engine] = None,
    ):
        if n_ranks < 1 or omp_threads < 1:
            raise ConfigError("n_ranks and omp_threads must be >= 1")
        sub = rank_subprocessor(proc, n_ranks)
        if omp_threads > sub.max_threads:
            raise ConfigError(
                f"{omp_threads} threads exceed a rank's {sub.max_threads} contexts "
                f"({sub.n_cores} cores x {sub.core.hw_threads})"
            )
        self.engine = engine or Engine()
        self.n_ranks = n_ranks
        self.omp_threads = omp_threads
        self.proc = proc
        self.sub = sub
        self.fabric = fabric
        self.mailboxes = [Store(name=f"hybrid.mbox[{r}]") for r in range(n_ranks)]

    def run(self, main: HybridMain) -> JobResult:
        procs = []
        calls = CallLedger(self.n_ranks)
        for rank in range(self.n_ranks):
            comm = Communicator(
                self.engine,
                rank,
                self.n_ranks,
                self.mailboxes,
                lambda s, d: self.fabric,
                calls=calls,
            )
            team = RankTeam(self.sub, self.omp_threads, engine=self.engine)
            procs.append(
                self.engine.spawn(main(comm, team), name=f"hybrid.rank{rank}")
            )
        start = self.engine.now
        self.engine.run()
        return JobResult(
            elapsed=self.engine.now - start, returns=[p.value for p in procs]
        )

    @property
    def threads_per_core(self) -> int:
        team = RankTeam(self.sub, self.omp_threads)
        return team.threads_per_core
