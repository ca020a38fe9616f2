"""Analytic collective schedules vs the stepped DES algorithms.

The fast path (:mod:`repro.mpi.fastpath`) resolves a collective's
per-rank finish times from the closed max-plus schedules in
:mod:`repro.mpi.collectives` instead of stepping every message through
the engine.  It takes only the collectives
:func:`~repro.mpi.fastpath.takes_fast_path` admits; binomial bcast and
reduce step, and the compiled replay prices them with the same
schedules.  These tests gate the contract: on a uniform fabric the
analytic job time equals the full discrete-event run's bit for bit
(``==``) with bit-identical payloads, and
non-uniform (resolver) fabrics refuse the fast path.  A spy on
:meth:`~repro.mpi.fastpath.FastCollectives.run` proves that every side
labelled "fast" really took the fast path, so no test compares stepped
with stepped.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest

from repro.errors import ConfigError
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.fastpath import (
    ARRAY_ROUNDS_MIN_P,
    FastCollectives,
    _alltoall_results,
    _Instance,
    takes_fast_path,
)
from repro.mpi.runtime import MpiJob, mpiexec
from repro.perf.batch import get_numpy

KINDS = ("bcast", "reduce", "allreduce", "allgather", "alltoall", "barrier")
SIZES = (3, 4, 7, 13, 16, 64)  # odd P covers the fold, Bruck and shift paths


def _fabric(name: str):
    return host_fabric() if name == "host" else phi_fabric(2)


def _collective_main(kind: str, nbytes: int, skew: float, comm):
    if skew:
        from repro.simcore import Timeout

        yield Timeout(comm.rank * skew)
    if kind == "bcast":
        return (yield from comm.bcast(
            "payload" if comm.rank == 0 else None, nbytes=nbytes
        ))
    if kind == "allreduce":
        return (yield from comm.allreduce(comm.rank + 1, nbytes=nbytes))
    if kind == "allgather":
        return (yield from comm.allgather(comm.rank, nbytes=nbytes))
    if kind == "alltoall":
        values = [comm.rank * comm.size + d for d in range(comm.size)]
        return (yield from comm.alltoall(values, nbytes=nbytes))
    if kind == "reduce":
        return (yield from comm.reduce(comm.rank + 1, nbytes=nbytes))
    if kind == "barrier":
        yield from comm.barrier()
        return comm.rank
    raise AssertionError(kind)


@pytest.fixture
def fast_runs(monkeypatch):
    """Counts, by kind, the rank entries into the fast path."""
    seen: Counter = Counter()
    run = FastCollectives.run

    def spy(self, comm, seq, kind, *args, **kwargs):
        seen[kind] += 1
        return run(self, comm, seq, kind, *args, **kwargs)

    monkeypatch.setattr(FastCollectives, "run", spy)
    return seen


def _run(kind, fabric, p, nbytes, fast, skew=0.0):
    return mpiexec(
        p, fabric, partial(_collective_main, kind, nbytes, skew),
        fast_collectives=fast,
    )


def _analytic(kind, fabric, p, nbytes, fast_runs, skew=0.0):
    """The job priced by the schedules: on the fast path where the
    collective takes it, else on the compiled replay."""
    main = partial(_collective_main, kind, nbytes, skew)
    if takes_fast_path(kind, nbytes):
        fast_runs.clear()
        res = mpiexec(p, fabric, main, fast_collectives=True)
        assert fast_runs == {kind: p}, (kind, nbytes, fast_runs)
        return res
    st = CompileStats()
    res = compiled_mpiexec(p, fabric, main, vector=False, stats=st)
    assert st.path == "replay", (kind, nbytes, st.reason)
    return res


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fabric_name", ("host", "phi"))
@pytest.mark.parametrize("p", SIZES)
def test_fast_path_matches_des(kind, fabric_name, p, fast_runs):
    """Analytic elapsed time equal to DES, payloads identical."""
    for nbytes in (256, 512 * 1024):  # eager and rendezvous regimes
        fast = _analytic(kind, _fabric(fabric_name), p, nbytes, fast_runs)
        des = _run(kind, _fabric(fabric_name), p, nbytes, fast=False)
        assert fast.returns == des.returns
        assert fast.elapsed == des.elapsed, (
            f"{kind} P={p} {fabric_name} nbytes={nbytes}: "
            f"analytic {fast.elapsed!r} vs DES {des.elapsed!r}"
        )


@pytest.mark.parametrize("kind", ("allreduce", "allgather", "alltoall", "barrier"))
def test_fast_path_matches_des_with_skewed_arrivals(kind, fast_runs):
    """Ranks entering at staggered times still agree with the DES run."""
    for p in (16, 13):
        fast = _analytic(kind, _fabric("host"), p, 4096, fast_runs, skew=1e-6)
        des = _run(kind, _fabric("host"), p, 4096, fast=False, skew=1e-6)
        assert fast.returns == des.returns
        assert fast.elapsed == des.elapsed, p


def _bracket(a, b):
    """A non-commutative reduction: a swapped operand shows in the text."""
    return "(" + a + b + ")"


def _three_paths(main, p):
    """``main`` stepped, on the stepped job's fast path where the
    collective takes it, and on the compiled max-plus replay."""
    stepped = mpiexec(p, host_fabric(), main, fast_collectives=False)
    fast = mpiexec(p, host_fabric(), main, fast_collectives=True)
    st = CompileStats()
    replay = compiled_mpiexec(p, host_fabric(), main, vector=False, stats=st)
    if p > 1:
        assert st.path == "replay", st.reason
    return stepped, fast, replay


def test_allreduce_float_payloads_bit_identical(fast_runs):
    """Reduction order is replayed, so float sums match bit for bit."""

    def main(comm):
        value = 0.1 * (comm.rank + 1)
        total = yield from comm.allreduce(value, nbytes=8)
        return total

    for p in (5, 12, 16):
        fast_runs.clear()
        fast = mpiexec(p, host_fabric(), main, fast_collectives=True)
        assert fast_runs == {"allreduce": p}
        des = mpiexec(p, host_fabric(), main, fast_collectives=False)
        assert fast.returns == des.returns  # exact equality, not approx


@pytest.mark.parametrize("p", range(1, 18))
def test_allreduce_operand_order_on_every_path(p, fast_runs):
    """Float ``+`` is commutative bit for bit, so only a non-commutative
    op pins which operand each combine puts first: every rank's bracketed
    string agrees across the stepped run, the fast path and the replay."""

    def main(comm):
        return (yield from comm.allreduce(str(comm.rank), op=_bracket,
                                          nbytes=8))

    stepped, fast, replay = _three_paths(main, p)
    if p > 1:
        assert fast_runs == {"allreduce": p}
    assert fast.returns == stepped.returns
    assert replay.returns == stepped.returns
    assert sorted(stepped.returns[0].replace("(", "").replace(")", "")) == (
        sorted("".join(str(r) for r in range(p)))
    )


def test_reduce_root_result_bit_identical():
    """Reduce steps; the compiled replay's result replays the binomial
    combine order, so the root's float accumulation matches the DES
    result bit for bit — and only the root holds a value."""

    def main(comm):
        value = 0.1 * (comm.rank + 1)
        total = yield from comm.reduce(value, root=1, nbytes=8)
        return total

    for p in (5, 12, 16):
        st = CompileStats()
        fast = compiled_mpiexec(p, host_fabric(), main, vector=False,
                                stats=st)
        assert st.path == "replay", st.reason
        des = mpiexec(p, host_fabric(), main, fast_collectives=False)
        assert fast.returns == des.returns  # exact equality, not approx
        assert fast.returns[1] is not None
        assert all(r is None for i, r in enumerate(fast.returns) if i != 1)


@pytest.mark.parametrize("p", range(1, 18))
def test_reduce_operand_order_on_every_path_and_root(p):
    """The binomial combine order under a non-commutative op, at every
    root: the three paths return the same bracketing, at the root only."""
    for root in range(p):

        def main(comm, root=root):
            return (yield from comm.reduce(str(comm.rank), op=_bracket,
                                           root=root, nbytes=8))

        stepped, fast, replay = _three_paths(main, p)
        assert fast.returns == stepped.returns, root
        assert replay.returns == stepped.returns, root
        assert [r is None for r in stepped.returns] == (
            [r != root for r in range(p)]
        )


def _slow_rank_resolver():
    """A per-rank-pair fabric: rank 0's links are 10x slower."""
    slow = phi_fabric(4)
    quick = host_fabric()

    def resolver(src: int, dst: int):
        return slow if 0 in (src, dst) else quick

    return resolver


def test_non_uniform_fabric_refuses_fast_path():
    with pytest.raises(ConfigError):
        MpiJob(8, _slow_rank_resolver(), fast_collectives=True)


def test_non_uniform_fabric_defaults_to_stepped_algorithms():
    """fast_collectives=None on a resolver fabric silently uses full DES."""
    job = MpiJob(8, _slow_rank_resolver())
    assert job.fast is None
    job.launch(partial(_collective_main, "allreduce", 1024, 0.0))
    result = job.run()
    assert result.returns == [sum(range(1, 9))] * 8


def test_mismatched_collectives_raise_instead_of_deadlocking():
    def main(comm):
        if comm.rank == 0:
            return (yield from comm.allreduce(1, nbytes=8))
        return (yield from comm.allreduce(1, nbytes=16))

    with pytest.raises(ConfigError, match="mismatched collective"):
        mpiexec(4, host_fabric(), main, fast_collectives=True)


def test_mismatch_fails_blocked_ranks_no_secondary_hang():
    """A mismatch must fail the already-arrived (parked) ranks too, so
    the engine doesn't then report a bogus deadlock among them."""

    def main(comm):
        if comm.rank == comm.size - 1:
            return (yield from comm.allreduce(1, nbytes=16))
        return (yield from comm.allreduce(1, nbytes=8))

    job = MpiJob(4, host_fabric(), fast_collectives=True)
    job.launch(main)
    with pytest.raises(ConfigError, match="mismatched collective"):
        job.run()
    # Every parked rank was failed with the same ConfigError, so a
    # continued run finds no live-but-stuck processes to misdiagnose.
    assert all(p.failure is not None for p in job._procs[:3])
    job.run()


def test_finish_before_last_arrival_raises(monkeypatch):
    """The fast path takes only collectives whose schedule finishes no
    rank before the last arrival, so an earlier finish is a pricing bug:
    it raises instead of resuming the rank late."""
    from repro.mpi.collectives import SCHEDULES

    def early(fabric, p, nbytes, arrivals, root=0):
        return [t - 1e-9 for t in arrivals]

    monkeypatch.setitem(SCHEDULES, "allreduce", early)
    main = partial(_collective_main, "allreduce", 8, 1e-6)
    with pytest.raises(RuntimeError, match="before the last arrival"):
        mpiexec(4, host_fabric(), main, fast_collectives=True)


def test_fast_path_disabled_under_tracer():
    """An active tracer steps every message so spans stay complete."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    job = MpiJob(4, host_fabric(), tracer=tracer)
    assert job.fast is not None  # uniform job builds the fast state...
    comm = job.communicator(0)
    assert not comm._use_fast()  # ...but traced communicators bypass it


def test_scale_p4096_allreduce_fast_path(fast_runs):
    """The headline scaling point: P=4096 allreduce resolves sub-second."""
    import time

    def main(comm):
        total = yield from comm.allreduce(comm.rank, nbytes=65536)
        return total

    p = 4096
    t0 = time.perf_counter()
    result = mpiexec(p, phi_fabric(2), main)
    wall = time.perf_counter() - t0
    expected = p * (p - 1) // 2
    assert all(r == expected for r in result.returns)
    assert fast_runs == {"allreduce": p}
    assert result.elapsed > 0
    assert wall < 30.0, f"P=4096 fast-path allreduce took {wall:.1f}s"


# ------------------------------------------------- resolve's two backends


def _instance(kind, nbytes, values, arrivals=None, root=None):
    inst = _Instance(len(values), kind, nbytes, root, None)
    for rank, row in enumerate(values):
        inst.arrive(rank, 0.0 if arrivals is None else arrivals[rank], row)
    return inst


def _indexed_alltoall(values):
    """The per-element form, which takes any row that can be indexed."""
    p = len(values)
    return [[values[src][dst] if values[src] is not None else None
             for src in range(p)] for dst in range(p)]


def test_alltoall_results_transpose_equals_indexed_form():
    """All-list/tuple rows take the ``zip`` transpose; ``None``, dict
    and array rows keep the indexed form.  Both give the same values of
    the same types."""
    p = 5
    lists = [[(src, dst) for dst in range(p)] for src in range(p)]
    cases = {
        "list": lists,
        "tuple": [tuple(row) for row in lists],
        "mixed": [tuple(row) if src % 2 else row
                  for src, row in enumerate(lists)],
        "none": [None] * p,
        "some none": [None if src == 2 else row
                      for src, row in enumerate(lists)],
        "dict": [dict(enumerate(row)) for row in lists],
    }
    np = get_numpy()
    if np is not None:
        cases["ndarray"] = [np.arange(p) * 0.1 + src for src in range(p)]
        cases["ndarray and list"] = [np.arange(p) * 0.1] + lists[1:]
    for name, values in cases.items():
        got = _alltoall_results(_instance("alltoall", 8, values))
        want = _indexed_alltoall(values)
        assert got == want, name
        assert [[type(x) for x in row] for row in got] == \
            [[type(x) for x in row] for row in want], name
        assert all(type(row) is list for row in got), name


@pytest.mark.parametrize("kind, nbytes, root", (
    ("alltoall", 64, None), ("allgather", 4096, None), ("bcast", 1 << 20, 3),
))
def test_resolve_array_rounds_give_python_floats(kind, nbytes, root,
                                                 monkeypatch):
    """The O(P)-round schedules resolve on an array from
    ``ARRAY_ROUNDS_MIN_P`` ranks; their finish times come back as Python
    floats equal, bit for bit, to the list backend's."""
    import random

    from repro.mpi import fastpath

    rnd = random.Random(7)
    for p in (ARRAY_ROUNDS_MIN_P - 1, ARRAY_ROUNDS_MIN_P, 64, 127):
        arrivals = [rnd.random() * 1e-5 for _ in range(p)]
        values = [[r] * p for r in range(p)]
        ends, _ = _instance(kind, nbytes, values, arrivals, root).resolve(
            host_fabric())
        assert all(type(e) is float for e in ends), (kind, p)
        with monkeypatch.context() as m:
            m.setattr(fastpath, "get_numpy", lambda: None)
            listed, _ = _instance(kind, nbytes, values, arrivals,
                                  root).resolve(host_fabric())
        assert ends == listed, (kind, p)
