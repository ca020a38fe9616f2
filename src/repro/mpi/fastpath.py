"""Analytic collective fast paths for uniform communicators.

Stepping a P-rank collective through the event engine costs
O(P log P) generator resumptions, envelope matches and heap operations —
the wall-clock wall that keeps full-system reproductions (the paper's
128-node Maia, 61 440 Phi threads) out of reach.  But when every rank
pair sees the *same* fabric (no per-rank divergence), a collective's
timing is a deterministic function of the per-rank entry times, and
:mod:`repro.mpi.collectives` knows the exact recurrence for it: its
round plan walked as a max-plus schedule
(:data:`~repro.mpi.collectives.SCHEDULES`).

This module short-circuits the collectives :func:`takes_fast_path`
admits on such *uniform* jobs: those whose plan has data-parallel
rounds, namely allreduce, allgather, alltoall and barrier
(:data:`FAST_KINDS`), plus the large bcast, whose scatter ends in a
ring.  Each rank deposits its value and arrival time into a shared
per-job instance; the last rank to arrive evaluates the exact schedule,
computes every rank's result (reductions fold ``op`` over the same
plan in the algorithm's operand order,
:func:`~repro.mpi.collectives.fold_values`, so payloads are
bit-identical to the stepped run), and wakes the others.  Each rank
then sleeps until its own analytic finish time.  Fast-path and full-DES
times agree bit for bit — the test suite gates ``==`` — because the
stepped algorithm and the schedule walk the same plan hop for hop.

Only a collective whose schedule releases no rank before the last
arrival can take this path, since no rank resumes before the last one
arrives.  Every rank of those collectives depends on every arrival (the
large bcast through its ring).  A plan of levels alone does not
(binomial bcast, reduce, gather, scatter): its early subtrees and leaf
senders finish first, so it steps through
:data:`~repro.mpi.collectives.ALGORITHMS`.
The compiled replay and phase pricing therefore price every collective
with the plain :data:`~repro.mpi.collectives.SCHEDULES` entry, and a
job's timing does not depend on which path ran it.

The fast path is *off* when

* the job's fabric is a resolver (per-rank divergence possible),
* a tracer is active (per-rank send/recv spans must be recorded),
* a verifier is armed or the collective has a ``deadline``, or
* the job was built with ``fast_collectives=False``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.mpi.collectives import SCHEDULES, Plan, fold_values, plan
from repro.perf.batch import get_numpy
from repro.simcore import Timeout, WaitEvent
from repro.simcore.resources import Event

__all__ = ["FAST_KINDS", "FastCollectives", "finish_times", "takes_fast_path"]

#: The collectives whose schedule releases no rank before the last arrival.
FAST_KINDS = frozenset(("allreduce", "allgather", "alltoall", "barrier"))


#: Smallest P whose O(P)-round schedules :func:`finish_times` runs
#: on an array: below it numpy's per-call overhead outweighs the rounds
#: it vectorizes (at P=16 a skewed alltoall takes about as long either
#: way, at P=8 the array is twice as slow, at P=64 three times faster).
ARRAY_ROUNDS_MIN_P = 32


def takes_fast_path(kind: str, nbytes: int) -> bool:
    """Whether the stepped Communicator hands collective ``kind`` of
    ``nbytes`` to :class:`FastCollectives`: whether its plan has
    data-parallel rounds, which make every rank depend on every arrival
    (the :data:`FAST_KINDS`, and the large bcast through its ring).  A
    plan has them at every P > 1 or at none, so two ranks decide."""
    return bool(plan(kind, 2, nbytes).rounds)


class _Instance:
    """One collective occurrence: the rendezvous of all ranks' arrivals.

    Shared by the fast path, whose parked ranks wait on ``events``, and
    the max-plus replay (:mod:`repro.mpi.compile`), whose parked ranks
    are listed in ``parked``.
    """

    __slots__ = ("kind", "nbytes", "root", "op", "arrivals", "values",
                 "pending", "events", "parked", "outcome")

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
        self.events: List[Optional[Event]] = [None] * size
        self.parked: List[int] = []
        #: ``(finish times, results)`` once the last rank has arrived.
        self.outcome: Optional[Tuple[List[float], List[Any]]] = None

    def check(self, kind: str, nbytes: int, root: Optional[int]) -> None:
        if (kind, nbytes, root) != (self.kind, self.nbytes, self.root):
            raise ConfigError(
                f"mismatched collective calls: {self.kind}(nbytes={self.nbytes},"
                f" root={self.root}) vs {kind}(nbytes={nbytes}, root={root})"
            )

    def arrive(self, rank: int, now: float, value: Any) -> bool:
        """Deposit ``rank``'s entry; True when it was the last to arrive."""
        p = len(self.values)
        if self.kind == "alltoall" and value is not None and len(value) != p:
            raise ConfigError(f"alltoall needs {p} values, got {len(value)}")
        self.arrivals[rank] = now
        self.values[rank] = value
        self.pending -= 1
        return self.pending == 0

    def resolve(self, fabric: Any, factors: Optional[List[float]] = None
                ) -> Tuple[List[float], List[Any]]:
        """Every rank's finish time (:func:`finish_times`) and result."""
        ends = finish_times(self.kind, fabric, self.nbytes, self.arrivals,
                            self.root, factors)
        self.outcome = ends, _RESULTS[self.kind](self)
        return self.outcome


def finish_times(kind: str, fabric: Any, nbytes: int, arrivals: List[float],
                 root: Any = 0, factors: Optional[List[float]] = None
                 ) -> List[float]:
    """Every rank's finish time of collective ``kind`` from its entry
    times ``arrivals``: the :data:`~repro.mpi.collectives.SCHEDULES`
    entry.  ``factors`` (one per rank) scales the reduction arithmetic
    of reduce and allreduce.

    A schedule that steps O(P) rounds (:func:`_many_rounds`) on
    ``ARRAY_ROUNDS_MIN_P`` ranks or more runs on an array when numpy is
    importable, and its finish times come back as a list of Python
    floats; the two backends agree bit for bit.
    """
    p = len(arrivals)
    t: Any = arrivals
    np = get_numpy()
    on_array = (np is not None and p >= ARRAY_ROUNDS_MIN_P
                and _many_rounds(plan(kind, p, nbytes), arrivals))
    if on_array:
        t = np.array(arrivals, dtype=float)
    args: Tuple[Any, ...] = (fabric, p, nbytes, t, root)
    if factors is not None:
        args += (factors,)
    ends = SCHEDULES[kind](*args)
    return ends.tolist() if on_array else ends


def _many_rounds(pl: Plan, arrivals: List[float]) -> bool:
    """Whether plan ``pl`` steps O(P) rounds from ``arrivals``: a run of
    rounds (the ring, alltoall) after head levels always (the large
    bcast's scatter skews its ring), and with no head unless every rank
    arrives at once, when one scalar carries the rounds."""
    if not any(rnd.count > 1 for rnd in pl.rounds):
        return False
    return bool(pl.head) or min(arrivals) != max(arrivals)


class FastCollectives:
    """Shared per-job state driving the analytic collective fast path.

    One instance per :class:`~repro.mpi.runtime.MpiJob`; the job's
    communicators all reference it.  Collective occurrences are matched
    across ranks by call order (each rank's n-th fast collective joins
    instance n — the MPI requirement that all ranks issue collectives in
    the same sequence), and mismatched parameters raise
    :class:`~repro.errors.ConfigError` instead of deadlocking.
    """

    def __init__(self, fabric: Any, size: int):
        self.fabric = fabric
        self.size = size
        self._instances: Dict[int, _Instance] = {}

    # ------------------------------------------------------------- protocol

    def run(self, comm, seq: int, kind: str, value: Any,
            nbytes: int, root: Optional[int], op: Optional[Callable]):
        """Generator driving one rank through collective occurrence ``seq``."""
        inst = self._instances.get(seq)
        if inst is None:
            inst = self._instances[seq] = _Instance(
                self.size, kind, nbytes, root, op
            )
        else:
            try:
                inst.check(kind, nbytes, root)
            except ConfigError as exc:
                # Fail the ranks already parked on this occurrence so the
                # job surfaces the mismatch instead of a secondary hang.
                self._abort(seq, inst, exc)
                raise
        rank = comm.rank
        engine = comm.engine
        if not inst.arrive(rank, engine.now, value):
            ev = Event(name=f"coll[{seq}].rank{rank}")
            inst.events[rank] = ev
            finish, result = yield WaitEvent(ev)
        else:
            del self._instances[seq]  # last arrival resolves the occurrence
            ends, results = inst.resolve(self.fabric)
            for r in range(self.size):
                ev_r = inst.events[r]
                if ev_r is not None:
                    ev_r.succeed((ends[r], results[r]))
            finish, result = ends[rank], results[rank]
        delay = finish - engine.now
        if delay > 0:
            yield Timeout(delay)
        elif delay < 0:
            # Only collectives whose schedule covers the last arrival
            # come here, so a finish in the past is a pricing bug.
            raise RuntimeError(
                f"{kind} rank {rank} ends at {finish!r}, before the"
                f" last arrival at {engine.now!r}"
            )
        return result

    def _abort(self, seq: int, inst: _Instance, exc: ConfigError) -> None:
        """Fail every rank parked on ``inst`` after a parameter mismatch.

        Without this, the mismatching rank's ConfigError kills the job's
        first run while the already-arrived ranks stay blocked on their
        events forever — a later ``run()`` would then report a deadlock
        instead of the real configuration error.
        """
        self._instances.pop(seq, None)
        for ev in inst.events:
            if ev is None or ev.triggered:
                continue
            waiters, ev._waiters = list(ev._waiters), []
            for proc in waiters:
                if callable(proc) or proc.failure is not None or proc.finished:
                    continue
                try:
                    proc.fail(ConfigError(str(exc)))
                except ConfigError:
                    pass  # the throw propagated out of the rank generator


# --------------------------------------------------------------------------
# Per-rank results.  Reductions fold ``op`` over their plan in the stepped
# algorithm's operand order, so the payloads (float rounding included)
# match the stepped run.
# --------------------------------------------------------------------------


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
