"""Round plans: one per collective, O(log P) entries at any P.

Each collective kind in :mod:`repro.mpi.collectives` is one
:func:`~repro.mpi.collectives.plan`: head levels, data-parallel rounds,
tail levels.  The stepped algorithms, the schedules and the payload
folds all walk it, so these tests gate the plan itself:

* **Size** — a run of rounds that follow one rule is one entry, so a
  plan has O(log P) entries at any P, while its rounds add up to the
  algorithm's (P−1 for the ring and alltoall, ⌈log2 P⌉ for the barrier).
* **Hops** — the levels of a binomial tree link every non-root vrank to
  its parent exactly once, and the blocks they carry add up to the
  collective's.
* **Fast path** — :func:`~repro.mpi.fastpath.takes_fast_path` reads the
  two-rank plan; it must agree with the plan at every P.
* **Survivors** — allreduce's rounds run on the ``2^m`` survivors, whose
  member/vrank maps are inverse.
"""

from __future__ import annotations

import pytest

from repro.mpi.collectives import (
    ALLGATHER_RING_SWITCH,
    KINDS,
    LARGE_MESSAGE_SWITCH,
    _member,
    _vrank,
    plan,
)
from repro.mpi.fastpath import takes_fast_path

SIZES = (0, 8, ALLGATHER_RING_SWITCH, ALLGATHER_RING_SWITCH + 1,
         LARGE_MESSAGE_SWITCH, LARGE_MESSAGE_SWITCH + 1, 1 << 20)


def _entries(pl):
    return len(pl.head) + len(pl.rounds) + len(pl.tail)


@pytest.mark.parametrize("kind", KINDS)
def test_plans_have_log_p_entries(kind):
    for p in (2, 3, 127, 128, 129, 4097, 65536, 65537, 1 << 20):
        log2 = (p - 1).bit_length()
        for nbytes in SIZES:
            pl = plan(kind, p, nbytes)
            # A blocks tree splits a level's short last child off.
            assert _entries(pl) <= 2 * log2 + 2, (kind, p, nbytes)


def test_runs_count_every_round():
    p = 1000
    assert [r.count for r in plan("alltoall", p, 8).rounds] == [p - 1]
    ring = plan("allgather", p, ALLGATHER_RING_SWITCH + 1).rounds
    assert [(r.first, r.count, r.stride) for r in ring] == [(1, p - 1, 0)]
    barrier = plan("barrier", p, 0).rounds
    assert [r.first for r in barrier] == [1 << i for i in range(10)]
    assert plan("bcast", 1, 8) == plan("allreduce", 1, 8) == plan(
        "alltoall", 1, 8)


@pytest.mark.parametrize("kind, blocks", (("bcast", False), ("reduce", False),
                                          ("gather", True), ("scatter", True)))
def test_tree_levels_link_every_vrank_once(kind, blocks):
    for p in (2, 3, 5, 12, 33, 127, 128, 129, 1000):
        nbytes = 8
        parent = {}
        carried = 0
        for lvl in plan(kind, p, nbytes).head:
            up = lvl.senders.start > lvl.receivers.start
            kids, pars = ((lvl.senders, lvl.receivers) if up
                          else (lvl.receivers, lvl.senders))
            for c, q in zip(range(p)[kids], range(p)[pars]):
                assert c not in parent, (kind, p, c)
                parent[c] = q
                assert c - q == c & -c  # the child's lowest set bit
                carried += lvl.nbytes
        assert sorted(parent) == list(range(1, p)), (kind, p)
        # A blocks hop carries the child's whole subtree.
        want = sum(min(c & -c, p - c) for c in range(1, p)) if blocks else p - 1
        assert carried == want * nbytes, (kind, p)


@pytest.mark.parametrize("kind", KINDS)
def test_two_ranks_decide_the_fast_path(kind):
    for nbytes in SIZES:
        fast = takes_fast_path(kind, nbytes)
        for p in range(2, 70):
            assert bool(plan(kind, p, nbytes).rounds) == fast, (kind, p, nbytes)


def test_allreduce_survivors():
    for p in range(1, 70):
        pl = plan("allreduce", p, 8)
        r = pl.fold
        assert r == p - (1 << (p.bit_length() - 1))
        members = [v for v in range(p) if _member(v, r) is not None]
        assert len(members) == p - r
        assert [_member(v, r) for v in members] == list(range(p - r))
        assert [_vrank(m, r) for m in range(p - r)] == members
        assert bool(pl.head) == bool(pl.tail) == bool(r)
