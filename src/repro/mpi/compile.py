"""Whole-job compilation: max-plus replay + MpiJob memoization.

The stepped engine prices a P-rank job in O(events) generator
resumptions, envelope matches and heap operations.  But the jobs the
figure campaigns actually run — CG halo exchanges, FT transpose ring
shifts, MG stencil neighbours, NPB collectives — have *static*
communication schedules: every partner, tag and message size is a pure
function of ``(rank, size)``.  For such jobs the engine is pure
interpretation overhead, re-deriving the same max-plus fixpoint on every
run.

This module compiles them instead, in four stages:

1. **Recognition.**  :func:`repro.analyze.staticcheck.rank_program_profile`
   reads the rank program's source once per code object: it
   pre-screens for constructs the replayer cannot express (wildcard
   receives, ``irecv``, timeouts), and :func:`lower` refuses its
   rank-dependent control flow.  The pre-filter is advisory; the
   replay's dynamic guards are authoritative — any unsupported
   operation encountered mid-replay raises :class:`ReplayFallback` and
   the job transparently re-runs stepped.  :func:`compiled_mpiexec` is
   the one compiled entry; ``MpiJob(...).run()`` always steps.

2. **Vectorized phase pricing.**  When numpy is available and the job is
   large enough (``n_ranks >= VECTOR_MIN_RANKS``, traced
   ``n_ranks >= TRACED_VECTOR_MIN_RANKS``, or ``vector=True``),
   :mod:`repro.mpi.phasec` first tries to lower the rank program to a
   :class:`~repro.mpi.phasec.PhaseProgram` and price it with one
   whole-vector max-plus update per communication phase — O(phases)
   array ops instead of O(P·ops) trampoline resumptions.  The
   recurrences are the replay's own equations evaluated in the same
   float order, so elapsed agrees bit-for-bit; per-rank return values
   stay on the replay path and materialize lazily on first access.

3. **Max-plus replay.**  Rank mains run unmodified against a
   :class:`_ReplayComm` — a drop-in for the stepped
   :class:`~repro.mpi.api.Communicator` that advances a per-rank scalar
   clock through the engine's *exact* timing recurrences (eager
   completion ``max(recv_post, send_post + tp)``, rendezvous
   ``max(recv_post, send_post) + tp``, the analytic collective
   schedules) instead of stepping envelopes through the event queue.
   Payloads are moved for real, so results are bit-identical, and so
   are times: the test suite and ``repro compile`` gate elapsed with
   ``==`` against the stepped engine.  The hot operations cost one generator each: ``sendrecv``
   is one step (isend, recv and wait inline, with no request object),
   and ``compute`` advances the rank's clock in place without a
   trampoline round trip.  A collective whose ranks all arrive at once
   is priced in O(rounds) scalar adds by the schedules' uniform-arrival
   rule (:mod:`repro.mpi.collectives`), not O(P) per round.

4. **Memoization.**  A successful replay is stored in an
   :class:`~repro.perf.cache.EvalCache` keyed by the fingerprint of
   ``(rank program, fabric, size)`` — rank-program callables fingerprint
   by bytecode digest, defaults and closure state (see
   :func:`repro.perf.cache.fingerprint`) — so a repeated point in a
   sweep returns its :class:`~repro.mpi.runtime.JobResult` in O(1)
   without replaying, let alone stepping, anything.  Vector-priced jobs
   memoize their elapsed time only (returns stay lazy).

Every collective occurrence is priced with one call to its
:data:`~repro.mpi.collectives.SCHEDULES` entry, where the stepped
engine runs :data:`~repro.mpi.collectives.ALGORITHMS` over
point-to-point messages, hop by hop: both walk the collective's one
round plan, so they agree on every rank's finish time, and a
reduction's results fold ``op`` over the same plan
(:func:`~repro.mpi.collectives.fold_values`).  A job whose fault plan
is *static* — no rank crash, every link and straggler fault active over
``[0, inf)``, memory pressure allowed — replays on
``plan.degrade(fabric)`` with each straggler's constant factor on its
``compute`` and its reduction arithmetic, so elapsed and returns are the
stepped run's.  Such a job takes no vector
path, and its memo key adds the plan's fingerprint.

Jobs that carry a verifier or a windowed or crashing fault plan, or
that run on a resolver or time-varying fabric, never enter the replay:
they go straight to the stepped engine.

A job with an active tracer skips the memo.  With numpy, no fault plan
and at least ``TRACED_VECTOR_MIN_RANKS`` ranks it takes the vector path
when its program lowers (``lower(..., traced=True)``, which refuses
``comm.phase``): :func:`~repro.mpi.phasec.record` prices it keeping
every step's clocks, and :func:`emit_trace` writes its spans from them.
Otherwise it runs the scalar replay.  There is one replay communicator:
traced, it also records the stepped engine's ``mpi.rank``,
``mpi.p2p``, ``mpi.coll`` and ``app.phase`` spans from the replay's
per-rank clocks, and under a static fault plan the ``fault.<kind>``
start instants the stepped injectors emit at t=0.  The events are held
back until the replay succeeds, so a job that falls back leaves the
tracer to the stepped run alone.  Untraced, it builds no span at all.
Both writers order a trace rank by rank, each rank in program order,
so the two paths give the same bytes for the same job.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import repeat
from typing import (Any, Callable, DefaultDict, Deque, Dict, Generator, List,
                    Optional, Tuple)

from repro.errors import ConfigError
from repro.mpi.api import RankComm
from repro.mpi.collectives import _Wires, check_call, finish_times, fold_values
from repro.mpi.fabrics import Fabric
from repro.mpi.messages import ANY_SOURCE, ANY_TAG
from repro.mpi.phasec import (ClockRecord, lower, price, rank_program_profile,
                               record)
from repro.mpi.runtime import JobResult, MpiJob, RankMain
from repro.obs.tracer import NULL_CONTEXT, TraceEvent, Tracer, active
from repro.perf.batch import HAVE_NUMPY, get_numpy
from repro.simcore import Engine, Timeout

__all__ = [
    "CompileStats",
    "ReplayFallback",
    "compiled_mpiexec",
    "emit_trace",
    "replay",
]

#: Below this rank count the vectorized phase backend is not selected
#: automatically (pass ``vector=True`` to force it).  Pricing alone
#: would win lower: ``lower`` + ``price`` runs at 0.9–1.3× the replay's
#: speed at P=16 and 3–5× at P=64 (docs/PERFORMANCE.md §6).  But a
#: vector-priced result replays the job when its ``returns`` are read,
#: so a caller that reads them pays ``lower``, ``price`` and the replay:
#: 1.75–2.1× the replay alone at P=16 and 1.2–1.3× at P=64.  Below 128
#: the replay, which yields both elapsed and returns, stays the default.
VECTOR_MIN_RANKS = 128

#: A traced job prices on the vector path from this rank count up: the
#: traced replay builds every span in its trampoline, while ``lower`` +
#: ``record`` + :func:`emit_trace` builds them in one pass over the
#: clock record, and wins from here even when ``returns`` are read
#: (docs/PERFORMANCE.md, "Traced jobs").
TRACED_VECTOR_MIN_RANKS = 64


class ReplayFallback(Exception):
    """The job uses a construct the max-plus replay cannot express.

    Raised internally by the replay layer and caught by
    :func:`compiled_mpiexec`, which re-runs the job on the stepped
    engine; user code never sees it.
    """


#: Sentinel a replayed comm method yields to park its rank until a
#: registered wake condition (message arrival, rendezvous completion,
#: collective resolution) fires.
_PARK = object()


@dataclass
class CompileStats:
    """Where one :func:`compiled_mpiexec` call actually ran.

    ``path`` is ``"memo"`` (warm cache hit), ``"vector"`` (array-form
    phase recurrences), ``"replay"`` (max-plus replay) or ``"stepped"``
    (fallback to the event engine); ``reason`` names the veto when the
    replay was refused or abandoned, and on a replayed job that asked
    for the vector path it reads ``"lower: <why>"``, the reason the
    phase compiler refused it.  ``engine_steps`` counts
    :meth:`~repro.simcore.engine.Engine.timeline` steps — zero for memo,
    vector and replay paths, the bench's proof that a warm hit steps no
    event at all.  On the vector path ``phases`` is the lowered
    program's phase count and ``replay_ops`` its op estimate (the
    trampoline resumptions the scalar replay would have spent).
    """

    path: str = ""
    reason: str = ""
    engine_steps: int = 0
    replay_ops: int = 0
    phases: int = 0
    cache_hit: bool = False


class _REnv:
    """A replayed envelope: the stepped Envelope minus its Event."""

    __slots__ = ("source", "dest", "tag", "nbytes", "post_time", "payload",
                 "pattern", "done_time", "waiter")

    def __init__(self, source: int, dest: int, tag: int, nbytes: int,
                 post_time: float, payload: Any, pattern: str):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes
        self.post_time = post_time
        self.payload = payload
        self.pattern = pattern
        self.done_time: Optional[float] = None  # receiver's completion
        self.waiter: Optional[int] = None  # rank parked on this envelope

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<_REnv {self.source}->{self.dest} tag={self.tag} "
            f"nbytes={self.nbytes}>"
        )


class _ReplayRequest:
    """Handle for a replayed ``isend`` (mirrors the Request contract)."""

    __slots__ = ("_job", "_owner", "_env", "_ready_at", "cancelled")

    def __init__(self, job: "_ReplayJob", owner: int, env: _REnv,
                 ready_at: Optional[float]):
        self._job = job
        self._owner = owner
        self._env = env
        self._ready_at = ready_at  # eager sender-side timer; None = rendezvous
        self.cancelled = False

    def wait(self) -> Generator:
        job, env = self._job, self._env
        if self._ready_at is None and env.done_time is None:
            env.waiter = self._owner
            while env.done_time is None:
                yield _PARK
            env.waiter = None
        target = self._ready_at if self._ready_at is not None else env.done_time
        if job.clocks[self._owner] < target:
            job.clocks[self._owner] = target
        return None

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def complete(self) -> bool:
        if self._ready_at is not None:
            return self._job.clocks[self._owner] >= self._ready_at
        return self._env.done_time is not None

    completed = complete


class _Instance:
    """One collective occurrence of a replayed job: the rendezvous of
    all ranks' arrivals.  Its ranks park (``parked``) until the last one
    arrives and :meth:`resolve` prices the occurrence."""

    __slots__ = ("kind", "nbytes", "root", "op", "arrivals", "values",
                 "pending", "parked", "outcome")

    def __init__(self, size: int, kind: str, nbytes: int,
                 root: Optional[int], op):
        self.kind = kind
        self.nbytes = nbytes
        #: ``None`` for the unrooted kinds, whose schedules ignore it.
        self.root: Any = root
        self.op = op
        self.arrivals: List[float] = [0.0] * size
        self.values: List[Any] = [None] * size
        self.pending = size
        self.parked: List[int] = []
        #: ``(finish times, results)`` once the last rank has arrived.
        self.outcome: Optional[Tuple[List[float], List[Any]]] = None

    def arrive(self, rank: int, now: float, value: Any) -> bool:
        """Deposit ``rank``'s entry; True when it was the last to arrive."""
        p = len(self.values)
        if self.kind == "alltoall" and value is not None and len(value) != p:
            raise ConfigError(f"alltoall needs {p} values, got {len(value)}")
        self.arrivals[rank] = now
        self.values[rank] = value
        self.pending -= 1
        return self.pending == 0

    def resolve(self, fabric: Any, factors: Optional[List[float]] = None,
                wires: Optional[_Wires] = None
                ) -> Tuple[List[float], List[Any]]:
        """Every rank's finish time
        (:func:`~repro.mpi.collectives.finish_times`) and result;
        ``wires`` is the job's wire table, shared by its occurrences."""
        ends = finish_times(self.kind, fabric, self.nbytes, self.arrivals,
                            self.root, factors, wires)
        self.outcome = ends, _RESULTS[self.kind](self)
        return self.outcome


# Per-rank results.  Reductions fold ``op`` over their plan in the stepped
# algorithm's operand order, so the payloads (float rounding included)
# match the stepped run.


def _bcast_results(inst: _Instance) -> List[Any]:
    return [inst.values[inst.root]] * len(inst.values)


def _fold_results(inst: _Instance) -> List[Any]:
    return fold_values(inst.kind, inst.values, inst.nbytes, inst.root,
                       inst.op)


def _allgather_results(inst: _Instance) -> List[Any]:
    return [list(inst.values) for _ in inst.values]


def _alltoall_results(inst: _Instance) -> List[Any]:
    values = inst.values
    if all(type(row) in (list, tuple) for row in values):
        return [list(col) for col in zip(*values)]  # the transpose
    p = len(values)
    return [
        [values[src][dst] if values[src] is not None else None
         for src in range(p)]
        for dst in range(p)
    ]


def _barrier_results(inst: _Instance) -> List[Any]:
    return [None] * len(inst.values)


def _gather_results(inst: _Instance) -> List[Any]:
    out: List[Any] = [None] * len(inst.values)
    out[inst.root] = list(inst.values)
    return out


def _scatter_results(inst: _Instance) -> List[Any]:
    p = len(inst.values)
    vals = inst.values[inst.root]
    if vals is None or len(vals) != p:
        # Same error the executable algorithm raises at the root.
        raise ConfigError(f"scatter root needs {p} values")
    return list(vals)


_RESULTS: Dict[str, Callable[[_Instance], List[Any]]] = {
    "bcast": _bcast_results,
    "reduce": _fold_results,
    "allreduce": _fold_results,
    "allgather": _allgather_results,
    "alltoall": _alltoall_results,
    "barrier": _barrier_results,
    "gather": _gather_results,
    "scatter": _scatter_results,
}


class _ReplayComm(RankComm):
    """A rank's communicator view inside the max-plus replay.

    Supplies the replay's point-to-point primitives and collective entry
    under the shared :class:`~repro.mpi.api.RankComm` vocabulary;
    operations outside the replayed vocabulary (wildcard receives,
    ``irecv``, timeouts, deadlines) raise :class:`ReplayFallback`, which
    sends the whole job back to the stepped engine.  Under a static
    fault plan a straggler's slowdown is one constant factor per rank,
    on its ``compute`` and on its share of the reduction arithmetic.

    In a traced job (``_trace`` set) each operation also records the
    stepped :class:`~repro.mpi.api.Communicator`'s span for it, timed on
    the replay's per-rank clock; a collective's inner messages are priced
    by its schedule and leave no spans.  Untraced, no span is built.
    """

    __slots__ = ("_job", "rank", "size", "_coll_seq", "_factor", "_trace",
                 "_events", "_tid", "_depth")

    def __init__(self, job: "_ReplayJob", rank: int):
        self._job = job
        self.rank = rank
        self.size = job.size
        self._coll_seq = 0
        self._factor = 1.0 if job.factors is None else job.factors[rank]
        self._trace = trace = job.trace
        if trace is not None:
            self._tid = f"rank{rank}"
            #: This rank's spans, in program order (its block of the trace).
            self._events = trace.events[rank]
        self._depth = 1  # the rank's lifetime span sits at depth 0

    # ------------------------------------------------------------ plumbing

    def fabric(self, peer: int) -> Any:
        return self._job.fabric

    @property
    def now(self) -> float:
        return self._job.clocks[self.rank]

    def phase(self, name: str, cat: str = "app.phase") -> Any:
        if self._trace is None:
            return NULL_CONTEXT
        return _ReplayPhase(self, name, cat)

    def _span(self, name: str, cat: str, ts: float,
              args: Optional[Dict[str, Any]]) -> None:
        """Record a span from ``ts`` to this rank's clock."""
        end = self._job.clocks[self.rank]
        self._events.append(TraceEvent(
            "X", name, cat, self._trace.pid, self._tid, ts,
            max(0.0, end - ts), args, self._depth,
        ))

    # ------------------------------------------------------- point-to-point

    def send(self, dest: int, nbytes: int, tag: int = 0, payload: Any = None,
             pattern: str = "neighbor", _lane: Optional[str] = None,
             timeout: Optional[float] = None, max_retries: int = 0) -> Generator:
        if timeout is not None:
            raise ReplayFallback("timeout-bounded send")
        self._check_send(dest, nbytes)
        job = self._job
        rank = self.rank
        clock = job.clocks[rank]
        env = _REnv(rank, dest, tag, nbytes, clock, payload, pattern)
        job.deliver(env)
        _tp, ts, eager = job.wires[nbytes, pattern]
        if eager:
            # Eager: the sender detaches after its local copy.
            end = clock + ts
        else:
            # Rendezvous: block until the receiver completes the transfer.
            env.waiter = rank
            while env.done_time is None:
                yield _PARK
            env.waiter = None
            end = env.done_time
        job.clocks[rank] = end
        if self._trace is not None:
            self._trace.messages.append((rank, dest, nbytes))
            self._span(f"send->{dest}", "mpi.p2p", clock,
                       {"nbytes": nbytes, "tag": tag})
        return None

    def recv(self, source: Optional[int] = ANY_SOURCE,
             tag: Optional[int] = ANY_TAG, _lane: Optional[str] = None,
             timeout: Optional[float] = None, max_retries: int = 0) -> Generator:
        if timeout is not None:
            raise ReplayFallback("timeout-bounded recv")
        if source is None:
            # Which sender wins an ANY_SOURCE match depends on wall-clock
            # message order — inherently dynamic, so the engine decides.
            raise ReplayFallback("wildcard-source recv")
        self._check_peer(source)
        job = self._job
        rank = self.rank
        edge = rank * self.size + source
        queue = job.queues[edge]
        while True:
            env = _scan_queue(queue, tag)
            if env is not None:
                break
            job.recv_wait[edge] = rank
            yield _PARK
        self._complete(env)
        return env

    def _complete(self, env: _REnv) -> None:
        """Complete the matched receive of ``env`` on this rank's clock:
        eager ``max(clock, post + tp)``, rendezvous ``max(clock, post) +
        tp``; then wake a sender parked on it."""
        job = self._job
        nbytes = env.nbytes
        tp, _ts, eager = job.wires[nbytes, env.pattern]
        clock = job.clocks[self.rank]
        if eager:
            completion = max(clock, env.post_time + tp)
        else:
            completion = max(clock, env.post_time) + tp
        job.clocks[self.rank] = completion
        env.done_time = completion
        if env.waiter is not None:
            job.wake(env.waiter)
        if self._trace is not None:
            self._span("recv", "mpi.p2p", clock,
                       {"source": env.source, "nbytes": nbytes, "tag": env.tag})

    def isend(self, dest: int, nbytes: int, tag: int = 0,
              payload: Any = None,
              pattern: str = "neighbor") -> _ReplayRequest:
        self._check_send(dest, nbytes)
        job = self._job
        clock = job.clocks[self.rank]
        env = _REnv(self.rank, dest, tag, nbytes, clock, payload, pattern)
        job.deliver(env)
        ready = None
        _tp, ts, eager = job.wires[nbytes, pattern]
        if eager:
            ready = clock + ts
            # The engine's sender-side timer fires whether or not the
            # request is waited; it can end the job's clock.
            if ready > job.horizon:
                job.horizon = ready
        if self._trace is not None:
            self._trace_isend(clock, ready, env)
        return _ReplayRequest(job, self.rank, env, ready)

    def _trace_isend(self, ts: float, ready: Optional[float],
                     env: _REnv) -> None:
        """Record an isend's ``.nb`` lane span in program order; its
        end and depth are set at flush (:meth:`_ReplayTrace.flush`)."""
        trace = self._trace
        trace.messages.append((self.rank, env.dest, env.nbytes))
        span = TraceEvent("X", f"send->{env.dest}", "mpi.p2p", trace.pid,
                          f"{self._tid}.nb", ts, 0.0,
                          {"nbytes": env.nbytes, "tag": env.tag})
        self._events.append(span)
        trace.nb_sends[self.rank].append((span, ready, env))

    def sendrecv(self, dest: int, source: int, nbytes: int, tag: int = 0,
                 payload: Any = None) -> Generator:
        """``isend`` + ``recv`` + ``wait`` in one generator, with the
        shared ``sendrecv``'s checks, clocks, deliveries and spans.

        The send's delivery, the receive's match and its completion
        (:meth:`_complete`) run in this frame.  The rank's clock ends at
        or past its eager send's ``ready``, so unlike a bare ``isend``
        that timer never needs the horizon.
        """
        self._check_send(dest, nbytes)
        if source is None:
            raise ReplayFallback("wildcard-source recv")
        self._check_peer(source)
        job = self._job
        rank = self.rank
        size = self.size
        clocks = job.clocks
        wires = job.wires
        clock = clocks[rank]
        out = _REnv(rank, dest, tag, nbytes, clock, payload, "neighbor")
        edge = dest * size + rank
        job.queues[edge].append(out)
        job.replay_ops += 1
        waiter = job.recv_wait.pop(edge, None)
        if waiter is not None:
            job.wake(waiter)
        _tp, ts, eager = wires[nbytes, "neighbor"]
        ready = clock + ts if eager else None
        if self._trace is not None:
            self._trace_isend(clock, ready, out)
        edge = rank * size + source
        queue = job.queues[edge]
        while True:
            if queue:
                env = queue[0]  # usually the match
                if tag is None or env.tag == tag:
                    queue.popleft()
                    break
                env = _scan_queue(queue, tag)
                if env is not None:
                    break
            job.recv_wait[edge] = rank
            yield _PARK
        tp, _ts, eager = wires[env.nbytes, env.pattern]
        clock = clocks[rank]
        if eager:
            completion = max(clock, env.post_time + tp)
        else:
            completion = max(clock, env.post_time) + tp
        clocks[rank] = env.done_time = completion
        if env.waiter is not None:
            job.wake(env.waiter)
        if self._trace is not None:
            self._span("recv", "mpi.p2p", clock, {"source": env.source,
                                                  "nbytes": env.nbytes,
                                                  "tag": env.tag})
        if ready is None:
            # Rendezvous: the send completes when its receiver does.
            if out.done_time is None:
                out.waiter = rank
                while out.done_time is None:
                    yield _PARK
                out.waiter = None
            ready = out.done_time
        if job.clocks[rank] < ready:
            job.clocks[rank] = ready
        return env

    def irecv(self, source: Optional[int] = ANY_SOURCE,
              tag: Optional[int] = ANY_TAG):
        # A concurrent receive process overlapping the rank's own blocking
        # operations has no single-clock equivalent.
        raise ReplayFallback("irecv")

    # ----------------------------------------------------------- utilities

    def compute(self, seconds: float) -> Generator:
        """Advance this rank's clock in place: no command reaches the
        trampoline, whose ``Timeout`` branch serves mains that yield one."""
        if seconds < 0:
            raise ConfigError("compute time must be non-negative")
        self._job.clocks[self.rank] += float(seconds * self._factor)
        return
        yield  # a generator, for ``yield from comm.compute(...)``

    # --------------------------------------------------------- collectives

    def _collective(self, kind: str, value: Any, nbytes: int,
                    root: Optional[int], op: Optional[Callable],
                    deadline: Optional[float]) -> Generator:
        """The stepped :class:`~repro.mpi.api.Communicator`'s checks, in
        its order; then the rank joins its next collective occurrence
        and, once the last rank arrives, resumes at its finish in the
        occurrence's schedule.  A size-1 occurrence resolves on arrival
        with the stepped algorithms' answers and errors.  A deadline
        needs the event queue, so it sends the job to the stepped engine.
        """
        job = self._job
        if kind == "alltoall" and job.plan is not None:
            job.plan.check_alltoall(self.size, nbytes)
        if kind == "barrier" and self.size == 1:
            return None  # resolves on arrival and records no span
        if deadline is not None:
            raise ReplayFallback("deadline-bounded collective")
        seq = self._coll_seq
        self._coll_seq += 1
        ts = job.clocks[self.rank]
        inst = job.coll_instances.get(seq)
        if inst is None:
            inst = job.coll_instances[seq] = _Instance(
                self.size, kind, nbytes, root, op
            )
        else:
            try:
                check_call((inst.kind, inst.nbytes, inst.root),
                           (kind, nbytes, root))
            except ConfigError as exc:
                # The stepped fallback's call ledger raises ConfigError
                # on exactly this mismatch and reports the real error.
                raise ReplayFallback(str(exc)) from None
        if not inst.arrive(self.rank, ts, value):
            inst.parked.append(self.rank)
            while inst.outcome is None:
                yield _PARK
            ends, results = inst.outcome
        else:
            del job.coll_instances[seq]
            ends, results = inst.resolve(job.fabric, job.factors, job.wires)
            job.replay_ops += 1
            for r in inst.parked:
                job.wake(r)
        job.clocks[self.rank] = ends[self.rank]
        if self._trace is not None:
            self._span(kind, "mpi.coll", ts, {"nbytes": nbytes})
        return results[self.rank]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<_ReplayComm rank {self.rank}/{self.size}>"


def _scan_queue(queue: Deque[_REnv], tag: Optional[int]) -> Optional[_REnv]:
    """Pop the first envelope matching ``tag`` (FIFO per source, exactly
    the engine's non-overtaking matching order for a concrete source)."""
    if tag is None:
        return queue.popleft() if queue else None
    for i, env in enumerate(queue):
        if env.tag == tag:
            del queue[i]
            return env
    return None


class _ReplayTrace:
    """The spans and messages of one traced replay, held until it succeeds.

    A replay that falls back mid-job must leave the caller's tracer
    untouched, because the stepped rerun records the whole trace; so
    nothing reaches the tracer before :meth:`flush`.  A static fault
    plan's link and straggler faults open at t=0 and never close, so
    their ``start`` instants are known before the job runs.

    The trace is written rank by rank: the plan's instants, then for
    each rank its ``mpi.rank`` lifetime span and its spans in program
    order, each where the rank recorded it.  The order
    depends on no other rank, so :func:`emit_trace` writes the same
    bytes from a vector-priced job's clock record.
    """

    __slots__ = ("tracer", "pid", "instants", "events", "messages",
                 "nb_sends")

    def __init__(self, tracer: Tracer, pid: str, size: int,
                 plan: Optional[Any] = None):
        self.tracer = tracer
        self.pid = pid
        #: The ``faults/plan`` lane the stepped injectors would fill.
        self.instants: List[TraceEvent] = [] if plan is None else [
            TraceEvent("i", f"{f.kind}-start", f"fault.{f.kind}", "faults",
                       "plan", 0.0, args={"fault": f.label, "edge": "start"})
            for f in plan.link_faults + plan.stragglers
        ]
        #: Per rank, the spans it recorded, in recording order.
        self.events: List[List[TraceEvent]] = [[] for _ in range(size)]
        self.messages: List[Tuple[int, int, int]] = []
        #: Per rank, in post order: (the isend's ``.nb`` span, its eager
        #: ready time or None, its envelope).
        self.nb_sends: List[List[Tuple[TraceEvent, Optional[float],
                                       _REnv]]] = [[] for _ in range(size)]

    def _close_nb_spans(self) -> None:
        """End the isend spans of the ``rank<r>.nb`` lanes.

        A rendezvous isend ends when its receiver completes, which the
        replay may learn after the sender has moved on, so these spans
        are closed once the job is done.  A span's depth counts the
        lane's earlier sends still open when it starts, as the stepped
        tracer's open-span stack does.
        """
        for sends in self.nb_sends:
            open_ends: List[float] = []
            for span, ready, env in sends:
                end = ready if ready is not None else env.done_time
                if end is None:
                    # The stepped isend worker would block forever and
                    # the engine reports the deadlock.
                    raise ReplayFallback("isend never matched")
                ts = span.ts
                open_ends = [e for e in open_ends if e > ts]
                span.dur = max(0.0, end - ts)
                span.depth = len(open_ends)
                open_ends.append(end)

    def flush(self, clocks: List[float]) -> None:
        """Hand every recorded span and message to the tracer."""
        self._close_nb_spans()
        out = list(self.instants)
        for span, events in zip(_lifetimes(self.pid, clocks), self.events):
            out.append(span)
            out.extend(events)
        tr = self.tracer
        tr.extend(out)
        for src, dst, nbytes in self.messages:
            tr.message(src, dst, nbytes)


#: The phase code of every span a job's trace holds.
_X = repeat("X")


def _lifetimes(pid: str, finish: List[float]) -> List[TraceEvent]:
    """Each rank's ``mpi.rank`` span, from 0 to its ``finish``."""
    tids = [f"rank{r}" for r in range(len(finish))]
    return list(map(TraceEvent, _X, tids, repeat("mpi.rank"), repeat(pid),
                    tids, repeat(0.0), finish))


def _spans_between(starts: List[Any], ends: List[Any]
                   ) -> Tuple[List[List[float]], List[List[float]]]:
    """Per span row and rank, the start and the ``max(0.0, end -
    start)`` duration :meth:`_ReplayComm._span` gives it; the rows'
    vectors are arrays or lists, as the record holds them."""
    if not starts or isinstance(starts[0], list):
        return starts, [[max(0.0, e - s) for s, e in zip(row, end)]
                        for row, end in zip(starts, ends)]
    np = get_numpy()
    starts, ends = np.array(starts), np.array(ends)
    dur = np.subtract(ends, starts, out=ends)
    return starts.tolist(), np.maximum(dur, 0.0, out=dur).tolist()


def emit_trace(rec: ClockRecord, tracer: Tracer) -> None:
    """Write the traced replay's trace of a lowered job from its clock
    record (:func:`repro.mpi.phasec.record`), byte for byte.

    Per rank, as :class:`_ReplayComm` records them: each shift step's
    ``send->{dest}`` span on the ``.nb`` lane (depth 0: the shift waited
    its previous send) and its ``recv`` span, each collective step's
    ``mpi.coll`` span, and each rank's message of each shift step in the
    message matrix; a compute leaves no span.  Spans share their ``args`` dicts where the
    values are equal: across ranks, and across the steps of one phase.
    Lowering for a tracer refuses ``comm.phase``, so every span sits at
    the depth the replay gives it outside a phase.

    Every rank records the same spans, so the rank-major order of
    :meth:`_ReplayTrace.flush` is a stride: row ``j`` of ``k`` fills
    every ``k``-th slot from ``j``.
    """
    p = rec.program.n_ranks
    ranks = range(p)
    tids = [f"rank{r}" for r in ranks]
    nb_tids = [f"{tid}.nb" for tid in tids]
    steps = rec.steps
    afters = [step.before for step in steps[1:]] + [rec.finish]
    #: Per span row: (names, cat, lanes, args, depth) iterables over ranks.
    rows: List[Tuple[Any, ...]] = []
    starts: List[Any] = []
    ends: List[Any] = []
    #: Per shift phase: its send names, send args and recv args.
    shifts: Dict[int, Tuple[List[str], Dict[str, Any], List[Any]]] = {}
    sent: DefaultDict[Tuple[int, int], int] = defaultdict(int)
    for step, after in zip(steps, afters):
        ph = step.phase
        if ph.kind == "coll":
            rows.append((repeat(ph.coll), repeat("mpi.coll"), tids,
                         repeat({"nbytes": ph.nbytes}), repeat(1)))
            starts.append(step.before)
            ends.append(after)
        elif ph.kind == "shift":
            o, nbytes, tag = ph.offset, ph.nbytes, ph.tag
            shift = shifts.get(id(ph))
            if shift is None:
                shift = shifts[id(ph)] = (
                    [f"send->{(r + o) % p}" for r in ranks],
                    {"nbytes": nbytes, "tag": tag},
                    [{"source": (r - o) % p, "nbytes": nbytes, "tag": tag}
                     for r in ranks],
                )
            names, send_args, recv_args = shift
            rows.append((names, repeat("mpi.p2p"), nb_tids, repeat(send_args),
                         repeat(0)))
            rows.append((repeat("recv"), repeat("mpi.p2p"), tids, recv_args,
                         repeat(1)))
            starts += (step.before, step.before)
            ends += (step.send_done, step.recv_done)
            sent[o, nbytes] += 1
    finish = rec.finish
    k = len(rows) + 1
    out: List[Any] = [None] * (p * k)
    out[::k] = _lifetimes("mpijob", finish if isinstance(finish, list)
                          else finish.tolist())
    pid = repeat("mpijob")
    for j, ((names, cat, lanes, args, depth), ts, dur) in enumerate(
            zip(rows, *_spans_between(starts, ends)), 1):
        out[j::k] = map(TraceEvent, _X, names, cat, pid, lanes, ts, dur,
                        args, depth)
    tracer.extend(out)
    for (o, nbytes), count in sent.items():
        for r in ranks:
            tracer.message(r, (r + o) % p, nbytes, count)


class _ReplayPhase:
    """``comm.phase(...)`` inside a traced replay: an ``app.phase`` span,
    one level above the spans it encloses."""

    __slots__ = ("_comm", "_name", "_cat", "_ts")

    def __init__(self, comm: _ReplayComm, name: str, cat: str):
        self._comm = comm
        self._name = name
        self._cat = cat
        self._ts = 0.0

    def __enter__(self) -> None:
        self._ts = self._comm.now
        self._comm._depth += 1

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._comm._depth -= 1
        self._comm._span(self._name, self._cat, self._ts, None)
        return False


class _ReplayJob:
    """The replay driver: per-rank clocks, queues and the trampoline.

    With ``tracer`` (an active :class:`~repro.obs.tracer.Tracer`) the
    ranks record their spans, which reach the tracer on process lane
    ``"mpijob"`` only once every rank has finished.  A static fault
    ``plan`` degrades the fabric and slows its stragglers.  The fabric is
    fixed for the whole replay, so each message size's wire is priced
    once, in ``wires``, which every collective occurrence shares.
    """

    def __init__(self, n_ranks: int, fabric: Any,
                 tracer: Optional[Tracer] = None,
                 plan: Optional[Any] = None):
        self.size = n_ranks
        self.fabric = fabric if plan is None else plan.degrade(fabric)
        self.plan = plan
        #: Per-rank straggler factors of a static plan; None without any.
        self.factors: Optional[List[float]] = None
        if plan is not None and plan.stragglers:
            self.factors = [plan.compute_factor(r, 0.0) for r in range(n_ranks)]
        self.trace = (
            None if tracer is None
            else _ReplayTrace(tracer, "mpijob", n_ranks, plan)
        )
        #: (nbytes, pattern) -> (p2p time, sender occupancy, is-eager) at
        #: this job's size.
        self.wires = _Wires(self.fabric, n_ranks)
        self.clocks = [0.0] * n_ranks
        #: Edge ``dest * size + source`` -> FIFO of undelivered envelopes.
        self.queues: DefaultDict[int, Deque[_REnv]] = defaultdict(deque)
        #: Edge -> the rank parked waiting for a message on it.
        self.recv_wait: Dict[int, int] = {}
        self.coll_instances: Dict[int, _Instance] = {}
        #: Latest sender-side isend timer — the engine drains these even
        #: when unwaited, so they bound the job's elapsed time.
        self.horizon = 0.0
        self.replay_ops = 0
        self._runnable: Deque[int] = deque()
        self._queued: set = set()

    # ------------------------------------------------------------ transport

    def deliver(self, env: _REnv) -> None:
        edge = env.dest * self.size + env.source
        self.queues[edge].append(env)
        self.replay_ops += 1
        waiter = self.recv_wait.pop(edge, None)
        if waiter is not None:
            self.wake(waiter)

    def wake(self, rank: int) -> None:
        if rank not in self._queued:
            self._queued.add(rank)
            self._runnable.append(rank)

    # ----------------------------------------------------------- trampoline

    def run(self, main: RankMain) -> JobResult:
        """Drive every rank's generator to completion on scalar clocks."""
        p = self.size
        gens = [main(_ReplayComm(self, r)) for r in range(p)]
        for r, gen in enumerate(gens):
            if not hasattr(gen, "send"):
                raise ReplayFallback("rank main is not a generator")
            self.wake(r)
        finished = [False] * p
        returns: List[Any] = [None] * p
        resume: List[Any] = [None] * p
        runnable, queued = self._runnable, self._queued
        while runnable:
            r = runnable.popleft()
            queued.discard(r)
            while True:
                try:
                    cmd = gens[r].send(resume[r])
                except StopIteration as stop:
                    returns[r] = stop.value
                    finished[r] = True
                    break
                resume[r] = None
                if cmd is _PARK:
                    break  # a registered wake re-queues this rank
                if isinstance(cmd, Timeout):
                    self.clocks[r] += cmd.delay
                    resume[r] = cmd.value
                    continue
                raise ReplayFallback(
                    f"unsupported engine command: {type(cmd).__name__}"
                )
        if not all(finished):
            # Unmatched communication: the stepped engine owns deadlock
            # detection and its error report.
            raise ReplayFallback("replay stalled before every rank finished")
        elapsed = max(max(self.clocks), self.horizon)
        if self.trace is not None:
            self.trace.flush(self.clocks)
        return JobResult(elapsed=elapsed, returns=returns, mode="replay")


def replay(n_ranks: int, fabric: Any, main: RankMain) -> JobResult:
    """Run ``main`` through the max-plus replay (no memoization, no
    stepped fallback).  Raises :class:`ReplayFallback` when the job is
    not replayable — primarily a hook for tests and benchmarks."""
    return _ReplayJob(n_ranks, fabric).run(main)


# ==========================================================================
# The compiled mpiexec
# ==========================================================================


def _plan_refusal(plan: Any) -> Optional[str]:
    """Why the replay cannot price ``plan``, or None when it is static.

    A static plan has no rank crash, and each of its link and straggler
    faults is active over ``[0, inf)``: it changes what messages and
    computes cost, never when the cost changes.
    """
    if plan.crashes:
        return "fault plan: rank crash"
    for f in plan.link_faults + plan.stragglers:
        if f.start != 0.0 or f.end != math.inf:
            return f"fault plan: windowed {f.kind} fault"
    return None


def _refusal(
    n_ranks: int,
    fabric: Any,
    engine: Optional[Engine],
    fault_plan: Optional[Any],
    verifier: Optional[Any],
) -> Optional[str]:
    """Why this job must step, or None when it is a replay candidate.

    ``fabric`` is the caller's, before a fault plan degrades it.
    """
    if engine is not None:
        return "caller-provided engine"
    if verifier is not None:
        return "dynamic verifier armed"
    if n_ranks < 1:
        return "invalid rank count"  # the stepped path raises ConfigError
    if not (isinstance(fabric, Fabric) or not callable(fabric)):
        return "resolver fabric (per-rank-pair routing)"
    if getattr(fabric, "time_varying", False):
        return "time-varying fabric"
    if fault_plan is None:
        return None
    return _plan_refusal(fault_plan)


def _lazy_returns(
    n_ranks: int, fabric: Any, main: RankMain
) -> Callable[[], List[Any]]:
    """Thunk materializing per-rank values through the scalar replay.

    Vector pricing never moves payloads; when a vector-priced result's
    ``returns`` is first read, this replays the job for real so the
    values are bit-identical to the stepped engine.  The program already
    replayed successfully once (lowering is stricter than replay), so
    the thunk cannot fall back.
    """

    def factory() -> List[Any]:
        return _ReplayJob(n_ranks, fabric).run(main)._returns

    return factory


def _memo_hit(
    hit: Tuple[float, Optional[List[Any]]],
    n_ranks: int,
    fabric: Any,
    main: RankMain,
    st: CompileStats,
) -> JobResult:
    """Rebuild a JobResult from a warm cache entry."""
    elapsed, returns = hit
    st.path, st.cache_hit = "memo", True
    if returns is None:  # vector-priced entry: returns stay lazy
        return JobResult(
            elapsed=elapsed, returns=None, mode="memo", n_ranks=n_ranks,
            returns_factory=_lazy_returns(n_ranks, fabric, main),
        )
    return JobResult(elapsed=elapsed, returns=list(returns), mode="memo")


def _compile_or_none(
    n_ranks: int,
    fabric: Any,
    main: RankMain,
    *,
    cache: Optional[Any],
    st: CompileStats,
    vector: Optional[bool],
    tracer: Optional[Tracer],
    plan: Optional[Any] = None,
) -> Optional[JobResult]:
    """Memo, vector pricing or scalar replay; ``None`` (with
    ``st.reason`` set) means the caller must run the job stepped.

    A job with an active tracer reads and writes no memo.  It takes the
    vector path from ``TRACED_VECTOR_MIN_RANKS`` up (not
    ``VECTOR_MIN_RANKS``), when its program lowers for a tracer; it is
    priced from :func:`~repro.mpi.phasec.record`, its spans are written
    by :func:`emit_trace`, and its ``returns`` stay lazy and untraced.
    Otherwise it replays, emitting its spans.  A job with a static fault
    ``plan`` takes no vector path, because phase pricing knows neither
    the degraded fabric nor straggler factors.  Its memo key adds the
    plan's fingerprint.
    """
    tr = active(tracer)
    key = None
    if cache is not None and tr is None:
        parts: Tuple[Any, ...] = ("mpijob", main, fabric, n_ranks)
        if plan is not None:
            parts += (plan.fingerprint(),)
        key = cache.key(*parts)
        hit = cache.get(key)
        if hit is not None:
            return _memo_hit(hit, n_ranks, fabric, main, st)
    profile = rank_program_profile(main)
    vetoes = profile.veto_reasons()
    if vetoes and not profile.unknown:
        st.reason = f"static profile: {vetoes[0]}"
        return None
    min_ranks = VECTOR_MIN_RANKS if tr is None else TRACED_VECTOR_MIN_RANKS
    want_vector = plan is None and (
        vector if vector is not None
        else HAVE_NUMPY and n_ranks >= min_ranks
    )
    if want_vector and n_ranks > 1:
        try:
            program = lower(main, n_ranks, fabric=fabric,
                            traced=tr is not None)
            if tr is None:
                elapsed = price(program, fabric)
            else:
                rec = record(program, fabric)
                elapsed = rec.elapsed
        except Exception as exc:
            # Not phase-uniform (LowerFallback), or a trace-surfaced
            # error (bad peer, mis-sized scatter, a bug in the rank
            # program): the scalar paths decide below, and replay or the
            # stepped engine reproduces any genuine error.
            st.reason = f"lower: {exc}"
        else:
            if tr is not None:
                emit_trace(rec, tr)
            st.path = "vector"
            st.phases = len(program.phases)
            st.replay_ops = program.op_estimate
            if key is not None:
                cache.put(key, (elapsed, None))
            return JobResult(
                elapsed=elapsed, returns=None, mode="vector",
                n_ranks=n_ranks,
                returns_factory=_lazy_returns(n_ranks, fabric, main),
            )
    try:
        job = _ReplayJob(n_ranks, fabric, tracer=tr, plan=plan)
        result = job.run(main)
    except ReplayFallback as exc:
        st.reason = str(exc)
        return None
    except ConfigError:
        # Same error the stepped engine raises; let the fallback
        # reproduce it so behaviour is byte-for-byte transparent.
        st.reason = "config error during replay"
        return None
    except Exception as exc:
        # Anything else (a main poking engine internals the replay
        # comm lacks, a bug in the rank program) also falls back:
        # rank programs are deterministic, so the stepped run either
        # succeeds for real or raises the genuine error.
        st.reason = f"replay error: {type(exc).__name__}"
        return None
    st.path = "replay"
    st.replay_ops = job.replay_ops
    if key is not None:
        cache.put(key, (result.elapsed, list(result._returns)))
    return result


def compiled_mpiexec(
    n_ranks: int,
    fabric: Any,
    main: RankMain,
    *,
    engine: Optional[Engine] = None,
    tracer: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
    verifier: Optional[Any] = None,
    cache: Optional[Any] = None,
    stats: Optional[CompileStats] = None,
    vector: Optional[bool] = None,
) -> JobResult:
    """Run ``main`` like :func:`~repro.mpi.runtime.mpiexec`, compiled.

    Resolution order: warm :class:`~repro.perf.cache.EvalCache` memo →
    vectorized phase recurrences (numpy, ``n_ranks >=
    VECTOR_MIN_RANKS``) → max-plus replay (memoizing on success) →
    transparent stepped fallback.  The stepped
    fallback accepts every job :func:`~repro.mpi.runtime.mpiexec`
    accepts, with identical results and identical errors, so callers can
    substitute this function unconditionally.  A memo hit returns stored
    per-rank values; treat them as read-only (runs sharing a cache share
    the objects).

    An active ``tracer`` skips the memo.  The job's spans land on the
    ``"mpijob"`` process lane, from the vector path when numpy is
    importable, ``n_ranks >= TRACED_VECTOR_MIN_RANKS`` and the program
    lowers without opening ``comm.phase``, else from the max-plus
    replay; both write the same bytes.  The trace leaves out the
    engine's scheduler instants and the point-to-point traffic inside
    collectives (see ``docs/OBSERVABILITY.md``).

    A static ``fault_plan`` replays on the degraded fabric, traced or
    not; a windowed or crashing plan steps.

    ``vector`` overrides the backend selection, traced or not: ``True``
    demands the vectorized phase backend (falling back to scalar paths
    only when the program doesn't lower), ``False`` forbids it, ``None``
    (default) selects it when numpy is importable and ``n_ranks`` is at
    least ``VECTOR_MIN_RANKS``, or ``TRACED_VECTOR_MIN_RANKS`` for a
    traced job.

    Pass a :class:`CompileStats` as ``stats`` to observe which path ran.
    """
    st = stats if stats is not None else CompileStats()
    reason = _refusal(n_ranks, fabric, engine, fault_plan, verifier)
    if reason is None:
        result = _compile_or_none(
            n_ranks, fabric, main, cache=cache, st=st, vector=vector,
            tracer=tracer, plan=fault_plan,
        )
        if result is not None:
            return result
        reason = st.reason
    st.path, st.reason = "stepped", reason or ""
    eng = engine if engine is not None else Engine()
    stepped = MpiJob(
        n_ranks, fabric, engine=eng, tracer=tracer, fault_plan=fault_plan,
        verifier=verifier,
    )
    stepped.launch(main)
    result = stepped.run()
    st.engine_steps = eng.timeline()
    return result

