"""Collective schedules: a golden digest and list/array bit equality.

Every ``SCHEDULES[kind]`` in :mod:`repro.mpi.collectives` walks its
kind's round plan: point-to-point levels between strided vrank slices
(the binomial trees) and two max-plus steps (a ring shift and an
xor-partner exchange), on whichever container ``arrivals`` is: a Python
list or a numpy array.  These contracts are gated here:

* **Golden pin** — one sha256 over the ``repr`` of every list-backed
  schedule output on a fixed grid (rank counts around the power-of-two
  and P=128 edges, both roots, the host and a Phi fabric, uniform and
  skewed arrivals, sizes on both sides of every algorithm switch and of
  the eager limit).  Any change to a recurrence's float order moves the
  digest.  This half runs without numpy.
* **List vs array** — the ndarray backend returns an ndarray whose
  ``tolist()`` equals the list backend's output bit for bit.
* **Walk oracle** — a binomial tree's levels walked by :func:`_levels`
  equal the sequential rank-at-a-time walks they replaced, bit for bit,
  on lists and arrays up to P=65537.
* **Uniform-arrival oracle** — on equal arrivals the data-parallel
  rounds (alltoall, every allgather, the large bcast's ring, the
  barrier, power-of-two allreduce) advance one scalar per round; each
  equals its rounds stepped one :func:`shift_step` or
  :func:`exchange_step` at a time, bit for bit, on lists and arrays up
  to P=4097.
* **Array kernels** — the array steps and :func:`_roll` write only into
  fresh buffers, never into their input, and equal the list kernels bit
  for bit on every offset class and mask class.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, List, Tuple

import pytest

from repro.mpi.collectives import (
    ALLGATHER_RING_SWITCH,
    LARGE_MESSAGE_SWITCH,
    SCHEDULES,
    Rounds,
    _add_to,
    _Wires,
    _levels,
    _p2p,
    _roll,
    _rounds,
    _tree,
    _wire,
    exchange_step,
    plan,
    shift_step,
)
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.perf.batch import HAVE_NUMPY, get_numpy

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

P_VALUES = (1, 2, 3, 7, 64, 127, 128, 129, 300)

#: sha256 over the repr of every case's output, in grid order.
GOLDEN_DIGEST = (
    "0cf6c9971fec12200b3f3dd4d60215e4ff98dd9a958b744d1d6a8b25e72a0427"
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
    nbytes = fabric.eager_max // 3
    for lvl in plan("gather", 8191, nbytes).head:
        mask = lvl.senders.start - lvl.receivers.start
        eager_by_mask.setdefault(mask, []).append(
            _wire(fabric, lvl.blocks * nbytes)[2])
    # The mask-4 level: 4-block hops rendezvous, the 3-block tail eager.
    assert eager_by_mask[4] == [False, True]


def _tree_walk(t, fabric, p, nbytes, blocks, up, root):
    """A binomial tree's levels on ``t`` by rank: going up without blocks
    (reduce) each receive adds the reduction arithmetic."""
    move = "fold" if up and not blocks else "copy"
    levels = _tree(p, blocks, 0, move, up)
    s = _levels(_roll(t, -root), levels, _Wires(fabric, p),
                fabric.reduce_time(nbytes), nbytes)
    return _roll(s, root)


@pytest.mark.parametrize("direction", ("down", "up"))
def test_level_walks_equal_sequential_walks(direction):
    np = get_numpy()
    for fabric, p, nbytes, blocks, root in _walk_cases():
        rnd = random.Random(p + root)
        t = [rnd.random() * 1e-5 for _ in range(p)]
        hops = _ref_hops(fabric, p, nbytes, blocks)
        if direction == "down":
            want = _ref_down_walk(p, root, t, hops)
        else:
            combine = 0.0 if blocks else fabric.reduce_time(nbytes)
            want = _ref_up_walk(p, root, t, hops, combine)
        up = direction == "up"
        case = (fabric.name, p, nbytes, blocks, root)
        got = _tree_walk(list(t), fabric, p, nbytes, blocks, up, root)
        assert got == want, case
        if np is not None:
            got = _tree_walk(np.asarray(t, dtype=float), fabric, p, nbytes,
                             blocks, up, root)
            assert got.tolist() == want, case


# --------------------------------------------- uniform-arrival oracle
#
# The rounds of each round-synchronous schedule, stepped one at a time
# with no uniform shortcut: the reference the shortcut must equal.

UNIFORM_P = (2, 3, 5, 8, 13, 16, 127, 128, 4097)

UNIFORM_KINDS = ("alltoall", "allgather", "bcast", "barrier", "allreduce")


def _stepped_rounds(kind, fabric, p, nbytes, t):
    if kind == "allreduce":  # power-of-two P: no fold
        wire = _wire(fabric, nbytes)
        mask = 1
        while mask < p:
            t = _add_to(exchange_step(t, mask, *wire),
                        fabric.reduce_time(nbytes))
            mask <<= 1
        return t
    if kind == "allgather" and nbytes <= ALLGATHER_RING_SWITCH:
        k = 1
        while k < p:
            if p & (p - 1) == 0:
                t = exchange_step(t, k, *_wire(fabric, nbytes * k))
            else:
                t = shift_step(t, -k, *_wire(fabric, nbytes * min(k, p - k)))
            k <<= 1
        return t
    if kind == "alltoall":
        step = exchange_step if p & (p - 1) == 0 else shift_step
        for rnd in range(1, p):
            t = step(t, rnd, *_wire(fabric, nbytes, "alltoall", p))
        return t
    if kind == "barrier":
        tp, ts, _ = _wire(fabric, 0)
        k = 1
        while k < p:
            t = shift_step(t, k, tp, ts, True)
            k <<= 1
        return t
    t, chunk = _ring_input(kind, fabric, p, nbytes, t)
    for _ in range(p - 1):
        t = shift_step(t, 1, *_wire(fabric, chunk))
    return t


def _ring_input(kind, fabric, p, nbytes, t):
    """A ring kind's arrivals and block size at its first shift: a large
    bcast first scatters ``nbytes // p`` chunks down a binomial tree."""
    if kind != "bcast":
        return t, nbytes
    chunk = max(1, nbytes // p)
    return SCHEDULES["scatter"](fabric, p, chunk, t, p // 2), chunk


def _uniform_sizes(kind, fabric, p):
    """One eager and one rendezvous message (a bcast's ring chunk), and
    for allgather one block below the ring switch."""
    if kind == "bcast":
        return (LARGE_MESSAGE_SWITCH + 1, (fabric.eager_max + 1) * p)
    if kind == "allgather":
        return (64, ALLGATHER_RING_SWITCH + 1, fabric.eager_max + 1)
    return (64, fabric.eager_max + 1)


def _uniform_ring(kind, fabric, p, nbytes):
    """Whether the schedule's rounds start on uniform arrivals.  Only a
    large bcast's scatter can skew them; stepping a skewed P=4097 ring on
    a list takes seconds and never reaches the uniform rule."""
    t, _ = _ring_input(kind, fabric, p, nbytes, [1e-6] * p)
    return min(t) == max(t)


@pytest.mark.parametrize("kind", UNIFORM_KINDS)
def test_uniform_arrivals_equal_stepped_rounds(kind):
    np = get_numpy()
    for fabric in (host_fabric(), phi_fabric(2)):
        for p in UNIFORM_P:
            if p > 128 and np is None:
                continue
            if kind == "allreduce" and p & (p - 1):
                continue  # the fold's survivors enter the rounds unequal
            arrivals = [1e-6] * p
            for nbytes in _uniform_sizes(kind, fabric, p):
                case = (kind, fabric.name, p, nbytes)
                # A P^2 reference is slow on lists; the two containers'
                # steps agree bit for bit, so large P steps an array.
                if p <= 128:
                    want = _stepped_rounds(kind, fabric, p, nbytes,
                                           list(arrivals))
                else:
                    want = _stepped_rounds(kind, fabric, p, nbytes,
                                           np.asarray(arrivals)).tolist()
                root = p // 2
                if p <= 128 or _uniform_ring(kind, fabric, p, nbytes):
                    got = SCHEDULES[kind](fabric, p, nbytes, list(arrivals),
                                          root)
                    assert got == want, case
                if np is not None:
                    got = SCHEDULES[kind](fabric, p, nbytes,
                                          np.asarray(arrivals), root)
                    assert got.tolist() == want, case


class _FixedWire:
    """A fabric whose every eager message costs ``tp`` on the wire and
    ``ts`` at the sender."""

    eager_max = 1 << 30

    def __init__(self, tp, ts):
        self.tp, self.ts = tp, ts

    def p2p_time(self, nbytes, pattern="neighbor", n_senders=1):
        return self.tp

    def sender_time(self, nbytes):
        return self.ts


@pytest.mark.parametrize("tp, ts", ((3e-7, 1e-7), (1e-7, 3e-7)))
def test_uniform_rule_on_either_eager_cost(tp, ts):
    """The shipped fabrics' eager transfer outlasts the sender's copy
    (``tp > ts``); the rule must hold the other way round too, and
    arrivals that differ must be stepped."""
    shifts = (Rounds(False, 1, 8, 0, "copy", count=4, stride=1),)
    for t in ([1e-6] * 5, [1e-6, 2e-6, 1e-6, 3e-6, 1e-6]):
        want = t
        for rnd in range(1, 5):
            want = shift_step(want, rnd, tp, ts, True)
        assert _rounds(t, shifts, _Wires(_FixedWire(tp, ts), 5), 0.0) == want


# ------------------------------------------------------ array kernels
#
# The array steps build their output in a fresh buffer with slice writes
# and in-place ufuncs.  The input must come back untouched (callers
# reuse their clock vectors), and each kernel must still evaluate the
# list kernel's float operations, bit for bit.

KERNEL_P = (1, 2, 3, 8, 13, 64)

#: (tp, ts) pairs with either eager cost the larger.
KERNEL_WIRES = ((3e-7, 1e-7), (1e-7, 3e-7))


def _offsets(p):
    """Positive, negative, ``o >= p`` and ``o ≡ 0 (mod p)`` offsets."""
    return sorted({0, 1, 2, p - 1, p, p + 1, 2 * p, 3 * p + 2,
                   -1, -2, -p, -p - 3})


def _frozen(np, values):
    """A read-only array of ``values``: a write into it raises."""
    t = np.array(values, dtype=float)
    t.flags.writeable = False
    return t


def _fresh(np, out, t):
    assert isinstance(out, np.ndarray) and out.flags.writeable
    assert not np.shares_memory(out, t)
    return out.tolist()


@needs_numpy
def test_roll_returns_a_fresh_rotation():
    np = get_numpy()
    for p in KERNEL_P:
        listed = _arrivals(p, True)
        t = _frozen(np, listed)
        for o in _offsets(p):
            want = _roll(listed, o)
            assert want is not listed
            assert _fresh(np, _roll(t, o), t) == want, (p, o)
        copy = _roll(t, 0)
        copy[0] = -1.0  # a copy: the caller may write into it
        assert t.tolist() == listed


@needs_numpy
@pytest.mark.parametrize("eager", (True, False))
def test_array_shift_step_is_fresh_and_equals_list(eager):
    np = get_numpy()
    for p in KERNEL_P:
        listed = _arrivals(p, True)
        t = _frozen(np, listed)
        for o in _offsets(p):
            for tp, ts in KERNEL_WIRES:
                want = shift_step(listed, o, tp, ts, eager)
                got = _fresh(np, shift_step(t, o, tp, ts, eager), t)
                assert got == want, (p, o, tp, ts, eager)
        assert t.tolist() == listed


@needs_numpy
@pytest.mark.parametrize("eager", (True, False))
def test_array_exchange_step_is_fresh_and_equals_list(eager):
    """Every mask of a power-of-two P: the block swap for power-of-two
    masks, the gather for the others (pairwise alltoall's rounds)."""
    np = get_numpy()
    for p in (2, 8, 64):
        listed = _arrivals(p, True)
        t = _frozen(np, listed)
        for mask in range(1, p):
            for tp, ts in KERNEL_WIRES:
                want = exchange_step(listed, mask, tp, ts, eager)
                got = _fresh(np, exchange_step(t, mask, tp, ts, eager), t)
                assert got == want, (p, mask, tp, ts, eager)
        assert t.tolist() == listed


@needs_numpy
@pytest.mark.parametrize("eager", (True, False))
def test_array_p2p_is_fresh_and_equals_list(eager):
    np = get_numpy()
    send_l, recv_l = _arrivals(13, True), _arrivals(14, True)[1:]
    send, recv = _frozen(np, send_l), _frozen(np, recv_l)
    for tp, ts in KERNEL_WIRES:
        want = _p2p(send_l, recv_l, tp, ts, eager)
        got = _p2p(send, recv, tp, ts, eager)
        for out in got:
            assert not np.shares_memory(out, send)
            assert not np.shares_memory(out, recv)
        assert [out.tolist() for out in got] == list(want)
    assert (send.tolist(), recv.tolist()) == (send_l, recv_l)


@needs_numpy
def test_array_schedules_leave_their_arrivals():
    """Every schedule copies its arrivals before the kernels write."""
    np = get_numpy()
    fabric = host_fabric()
    for p in (2, 13, 64):
        listed = _arrivals(p, True)
        t = _frozen(np, listed)
        for kind in sorted(SCHEDULES):
            for nbytes in _sizes(fabric):
                got = _fresh(np, SCHEDULES[kind](fabric, p, nbytes, t, 1), t)
                assert got == SCHEDULES[kind](fabric, p, nbytes, listed, 1)
