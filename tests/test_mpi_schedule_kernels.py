"""Collective schedules: a golden digest and list/array bit equality.

Every ``SCHEDULES[kind]`` in :mod:`repro.mpi.collectives` is composed of
two max-plus steps (a ring shift and an xor-partner exchange) plus the
binomial-tree walks, and runs on whichever container ``arrivals`` is: a
Python list or a numpy array.  Two contracts are gated here:

* **Golden pin** — one sha256 over the ``repr`` of every list-backed
  schedule output on a fixed grid (rank counts around the power-of-two
  and P=128 edges, both roots, the host and a Phi fabric, uniform and
  skewed arrivals, sizes on both sides of every algorithm switch and of
  the eager limit).  Any change to a recurrence's float order moves the
  digest.  This half runs without numpy.
* **List vs array** — the ndarray backend returns an ndarray whose
  ``tolist()`` equals the list backend's output bit for bit.
* **Walk oracle** — the level-synchronous binomial walks equal the
  sequential rank-at-a-time walks they replaced, bit for bit, on lists
  and arrays up to P=65537.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial
from typing import Iterator, List, Tuple

import pytest

from repro.mpi.collectives import (
    ALLGATHER_RING_SWITCH,
    LARGE_MESSAGE_SWITCH,
    SCHEDULES,
    _down_walk,
    _tree,
    _up_walk,
    _wire,
)
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.perf.batch import HAVE_NUMPY, get_numpy

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

P_VALUES = (1, 2, 3, 7, 64, 127, 128, 129, 300)

#: sha256 over the repr of every case's output, in grid order.
GOLDEN_DIGEST = (
    "79d80292ba2bd500605e28dfd25579c05659bb5334451c3c078160f506f1252b"
)

Case = Tuple[str, object, int, int, List[float], int]


def _sizes(fabric) -> List[int]:
    """A small size plus both sides of every switch the schedules take."""
    edges = (fabric.eager_max, ALLGATHER_RING_SWITCH, LARGE_MESSAGE_SWITCH)
    return sorted({8} | {e + d for e in edges for d in (0, 1)})


def _arrivals(p: int, skewed: bool) -> List[float]:
    if not skewed:
        return [1e-6] * p
    rnd = random.Random(p)
    return [rnd.random() * 1e-5 for _ in range(p)]


def grid() -> Iterator[Case]:
    """``(kind, fabric, p, nbytes, arrivals, root)`` in a fixed order."""
    for fabric in (host_fabric(), phi_fabric(2)):
        for p in P_VALUES:
            for skewed in (False, True):
                arrivals = _arrivals(p, skewed)
                for nbytes in _sizes(fabric):
                    for kind in sorted(SCHEDULES):
                        for root in sorted({0, p - 1}):
                            yield kind, fabric, p, nbytes, arrivals, root


def test_schedules_match_golden_digest():
    h = hashlib.sha256()
    for kind, fabric, p, nbytes, arrivals, root in grid():
        out = SCHEDULES[kind](fabric, p, nbytes, list(arrivals), root)
        assert isinstance(out, list) and len(out) == p
        h.update(repr(out).encode())
    assert h.hexdigest() == GOLDEN_DIGEST


@needs_numpy
def test_array_schedules_equal_list_schedules():
    np = get_numpy()
    for kind, fabric, p, nbytes, arrivals, root in grid():
        listed = SCHEDULES[kind](fabric, p, nbytes, list(arrivals), root)
        arrayed = SCHEDULES[kind](
            fabric, p, nbytes, np.asarray(arrivals, dtype=float), root
        )
        assert isinstance(arrayed, np.ndarray), kind
        assert arrayed.tolist() == listed, (kind, fabric.name, p, nbytes, root)


# ------------------------------------------------- large-P walk oracle
#
# The sequential binomial walks the level-synchronous ones replaced,
# kept verbatim as the reference: one rank at a time, each parent's
# sends and receives in the generator's order.


def _ref_hops(fabric, p, nbytes, blocks):
    if not blocks:
        return [_wire(fabric, nbytes)] * p
    wires = {}
    table = [None] * p
    for c in range(1, p):
        k = min(c & -c, p - c)
        w = wires.get(k)
        if w is None:
            w = wires[k] = _wire(fabric, nbytes * k)
        table[c] = w
    return table


def _ref_down_walk(p, root, t, hops):
    finish = [0.0] * p
    stack = [(0, t[root], 1 << (p - 1).bit_length())]
    while stack:
        vrank, s, mask = stack.pop()
        mm = mask >> 1
        while mm > 0:
            cv = vrank + mm
            if cv < p:
                tp, ts, eager = hops[cv]
                child = (cv + root) % p
                if eager:
                    recv_done = max(t[child], s + tp)
                    s += ts
                else:
                    recv_done = max(t[child], s) + tp
                    s = recv_done
                stack.append((cv, recv_done, mm))
            mm >>= 1
        finish[(vrank + root) % p] = s
    return finish


def _ref_up_walk(p, root, t, hops, combine):
    finish = [0.0] * p
    send_post = [0.0] * p
    for v in range(p - 1, -1, -1):
        rank = (v + root) % p
        clock = t[rank]
        mask = 1
        while mask < p and not (v & mask):
            c = v + mask
            if c < p:
                tp, _ts, eager = hops[c]
                sp = send_post[c]
                if eager:
                    recv_done = max(clock, sp + tp)
                else:
                    recv_done = max(clock, sp) + tp
                    finish[(c + root) % p] = recv_done
                clock = recv_done + combine
            mask <<= 1
        if v:
            send_post[v] = clock
            _tp, ts, eager = hops[v]
            if eager:
                finish[rank] = clock + ts
        else:
            finish[rank] = clock
    return finish


def _walk_cases() -> Iterator[Tuple[object, int, int, bool, int]]:
    """``(fabric, p, nbytes, blocks, root)``: large P with random roots,
    eager and rendezvous-only sizes, and a blocks size whose short last
    child is eager while the rest of its level is rendezvous."""
    rnd = random.Random(17)
    for fabric in (host_fabric(), phi_fabric(2)):
        eager_max = fabric.eager_max
        for p in (4097, 8191, 65537):
            root = rnd.randrange(p)
            yield fabric, p, 64, False, root
            yield fabric, p, eager_max + 1, False, root
            yield fabric, p, 64, True, root
            yield fabric, p, eager_max + 1, True, root
            # 3 blocks fit eager_max, 4 do not: on P=8191 the mask-4
            # level's last child carries 3.
            yield fabric, p, eager_max // 3, True, root


def test_short_last_child_crosses_the_eager_limit():
    fabric = host_fabric()
    eager_by_mask = {}
    for par, kid, (_tp, _ts, eager) in _tree(
        fabric, 8191, fabric.eager_max // 3, True
    ):
        eager_by_mask.setdefault(kid.start - par.start, []).append(eager)
    # The mask-4 level: 4-block hops rendezvous, the 3-block tail eager.
    assert eager_by_mask[4] == [False, True]


@pytest.mark.parametrize("direction", ("down", "up"))
def test_level_walks_equal_sequential_walks(direction):
    np = get_numpy()
    for fabric, p, nbytes, blocks, root in _walk_cases():
        rnd = random.Random(p + root)
        t = [rnd.random() * 1e-5 for _ in range(p)]
        hops = _ref_hops(fabric, p, nbytes, blocks)
        tree = _tree(fabric, p, nbytes, blocks)
        if direction == "down":
            want = _ref_down_walk(p, root, t, hops)
            walk = partial(_down_walk, root=root, tree=tree)
        else:
            combine = 0.0 if blocks else fabric.reduce_time(nbytes)
            want = _ref_up_walk(p, root, t, hops, combine)
            walk = partial(_up_walk, root=root, tree=tree, combine=combine)
        case = (fabric.name, p, nbytes, blocks, root)
        assert walk(list(t)) == want, case
        if np is not None:
            assert walk(np.asarray(t, dtype=float)).tolist() == want, case
