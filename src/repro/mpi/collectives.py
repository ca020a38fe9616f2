"""MPI collective operations: algorithms, exact schedules, closed-form costs.

Three coupled parts:

1. **Algorithms** — generator functions over the simulated
   :class:`~repro.mpi.api.Communicator`, implementing the textbook
   algorithms Intel MPI uses at these scales: binomial broadcast/reduce,
   recursive-doubling allreduce/allgather, ring allgather for large
   blocks, pairwise-exchange alltoall.  They move real payloads, so the
   test suite verifies collective *semantics* against NumPy references.

2. **Schedules** — the exact per-rank completion times of the same
   algorithms as max-plus recurrences over a clock vector (a list, or a
   numpy array), the analytic fast path behind
   :mod:`repro.mpi.fastpath`, the compiled replay and phase pricing.
   Every data-parallel round is one of two steps written once:
   :func:`shift_step` (ring allgather, Bruck, the dissemination barrier,
   non-power-of-two alltoall, phase-compiled halo shifts) and
   :func:`exchange_step` (recursive doubling, power-of-two alltoall, the
   allreduce rounds).

3. **Cost models** — closed-form times for the same algorithms on a
   fabric's α–β parameters.  The figure sweeps (Figs 10–14) use these
   (running 236 simulated ranks per sample would be wasteful), and the
   test suite checks them against the simulated algorithms at small rank
   counts so the two halves cannot drift apart.

The allgather algorithm switch (recursive doubling → ring) at a 2 KiB
block is the paper's "sudden jump in time at 2 KB and 4 KB message size
… due to a change in [algorithm] used in MPI_Allgather" (Section 6.4.4).
The alltoall memory model reproduces its out-of-memory failure beyond
4 KiB at 236 ranks (Section 6.4.5).
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import ConfigError, OutOfMemoryError
from repro.mpi.api import Communicator
from repro.perf.batch import get_numpy
from repro.units import GiB, KiB

#: Block size at which allgather switches from recursive doubling to ring.
ALLGATHER_RING_SWITCH = 2 * KiB

#: Message size at which bcast/allreduce switch to the bandwidth-optimal
#: (scatter + allgather / Rabenseifner) algorithms.
LARGE_MESSAGE_SWITCH = 32 * KiB

# Intel-MPI-like internal memory footprint per connected rank pair:
# a fixed connection context plus staging buffers proportional to the
# message size, capped at a pipeline chunk.
CONN_BASE = 64 * KiB
STAGING_MULT = 16
STAGING_CAP = 64 * KiB

_TAG_COLL = -2000  # tag space reserved for collective traffic


def _default_op(op: Optional[Callable]) -> Callable:
    return operator.add if op is None else op


def _log2_rounds(p: int) -> int:
    return max(1, math.ceil(math.log2(p))) if p > 1 else 0


# ==========================================================================
# Executable algorithms
# ==========================================================================


def bcast(comm: Communicator, value: Any, root: int = 0, nbytes: int = 8) -> Generator:
    """Broadcast; every rank returns the root's value.

    Binomial tree for small messages; scatter + ring-allgather (van de
    Geijn) for large ones, which halves the bandwidth term.
    """
    p = comm.size
    if p == 1:
        return value
    if nbytes > LARGE_MESSAGE_SWITCH:
        return (yield from _bcast_scatter_allgather(comm, value, root, nbytes))
    vrank = (comm.rank - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            src = (vrank - mask + root) % p
            env = yield from comm.recv(source=src, tag=_TAG_COLL)
            value = env.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            dest = (vrank + mask + root) % p
            yield from comm.send(dest, nbytes, tag=_TAG_COLL, payload=value)
        mask >>= 1
    return value


def _bcast_scatter_allgather(
    comm: Communicator, value: Any, root: int, nbytes: int
) -> Generator:
    """Large-message broadcast: scatter 1/p-size chunks down a binomial
    tree, then ring-allgather them back together."""
    p = comm.size
    chunk = max(1, nbytes // p)
    chunks = [value] * p if comm.rank == root else None
    part = yield from scatter(comm, chunks, root=root, nbytes=chunk)
    parts = yield from _allgather_ring(comm, part, chunk)
    return parts[root]


def reduce(
    comm: Communicator,
    value: Any,
    op: Optional[Callable] = None,
    root: int = 0,
    nbytes: int = 8,
) -> Generator:
    """Binomial-tree reduction; ``root`` returns the combined value,
    everyone else ``None``."""
    op = _default_op(op)
    p = comm.size
    vrank = (comm.rank - root) % p
    result = value
    mask = 1
    while mask < p:
        if vrank & mask:
            dest = (vrank - mask + root) % p
            yield from comm.send(dest, nbytes, tag=_TAG_COLL - 1, payload=result)
            return None
        partner = vrank + mask
        if partner < p:
            env = yield from comm.recv(
                source=(partner + root) % p, tag=_TAG_COLL - 1
            )
            yield from comm.compute(comm.fabric(env.source).reduce_time(nbytes))
            result = op(result, env.payload)
        mask <<= 1
    return result


def allreduce(
    comm: Communicator,
    value: Any,
    op: Optional[Callable] = None,
    nbytes: int = 8,
) -> Generator:
    """Recursive-doubling allreduce (MPICH-style non-power-of-two folding).

    With ``p = 2^m + r``: the first ``2r`` ranks fold pairwise so ``2^m``
    ranks run the doubling exchange, then results fan back out.
    """
    op = _default_op(op)
    p = comm.size
    if p == 1:
        return value
    m = int(math.log2(p))
    pow2 = 1 << m
    r = p - pow2
    rank = comm.rank
    result = value
    new_rank = -1  # surviving-rank id within the power-of-two group

    if rank < 2 * r:
        if rank % 2 == 0:  # folds into its odd neighbour, waits for answer
            yield from comm.send(rank + 1, nbytes, tag=_TAG_COLL - 2, payload=result)
            env = yield from comm.recv(source=rank + 1, tag=_TAG_COLL - 3)
            return env.payload
        env = yield from comm.recv(source=rank - 1, tag=_TAG_COLL - 2)
        yield from comm.compute(comm.fabric(rank - 1).reduce_time(nbytes))
        result = op(result, env.payload)
        new_rank = rank // 2
    else:
        new_rank = rank - r

    mask = 1
    while mask < pow2:
        new_partner = new_rank ^ mask
        partner = new_partner * 2 + 1 if new_partner < r else new_partner + r
        req = comm.isend(partner, nbytes, tag=_TAG_COLL - 4, payload=result)
        env = yield from comm.recv(source=partner, tag=_TAG_COLL - 4)
        yield from req.wait()
        yield from comm.compute(comm.fabric(partner).reduce_time(nbytes))
        result = op(result, env.payload)
        mask <<= 1

    if rank < 2 * r:  # odd survivors hand the result back to the folded even
        yield from comm.send(rank - 1, nbytes, tag=_TAG_COLL - 3, payload=result)
    return result


def allgather(comm: Communicator, value: Any, nbytes: int = 8) -> Generator:
    """Allgather; returns the list of every rank's value in rank order.

    Recursive doubling for small blocks on power-of-two rank counts; ring
    otherwise (the algorithm switch behind Fig 13's jump).
    """
    p = comm.size
    if p == 1:
        return [value]
    if nbytes <= ALLGATHER_RING_SWITCH:
        if p & (p - 1) == 0:
            return (yield from _allgather_recursive_doubling(comm, value, nbytes))
        return (yield from _allgather_bruck(comm, value, nbytes))
    return (yield from _allgather_ring(comm, value, nbytes))


def _allgather_recursive_doubling(
    comm: Communicator, value: Any, nbytes: int
) -> Generator:
    p = comm.size
    blocks = {comm.rank: value}
    mask = 1
    while mask < p:
        partner = comm.rank ^ mask
        env_blocks = dict(blocks)
        req = comm.isend(
            partner, nbytes * len(env_blocks), tag=_TAG_COLL - 5, payload=env_blocks
        )
        env = yield from comm.recv(source=partner, tag=_TAG_COLL - 5)
        yield from req.wait()
        blocks.update(env.payload)
        mask <<= 1
    return [blocks[i] for i in range(p)]


def _allgather_bruck(comm: Communicator, value: Any, nbytes: int) -> Generator:
    """Bruck's allgather for non-power-of-two rank counts (small blocks):
    ⌈log2 p⌉ rounds of doubling block transfers."""
    p = comm.size
    blocks = {comm.rank: value}
    k = 1
    step = 0
    while k < p:
        dest = (comm.rank - k) % p
        src = (comm.rank + k) % p
        count = min(k, p - k)
        req = comm.isend(
            dest, nbytes * count, tag=_TAG_COLL - 10 - step, payload=dict(blocks)
        )
        env = yield from comm.recv(source=src, tag=_TAG_COLL - 10 - step)
        yield from req.wait()
        blocks.update(env.payload)
        k <<= 1
        step += 1
    return [blocks[i] for i in range(p)]


def _allgather_ring(comm: Communicator, value: Any, nbytes: int) -> Generator:
    p = comm.size
    blocks = {comm.rank: value}
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    send_block = comm.rank
    for _ in range(p - 1):
        req = comm.isend(
            right, nbytes, tag=_TAG_COLL - 6, payload=(send_block, blocks[send_block])
        )
        env = yield from comm.recv(source=left, tag=_TAG_COLL - 6)
        yield from req.wait()
        idx, val = env.payload
        blocks[idx] = val
        send_block = idx
    return [blocks[i] for i in range(p)]


def alltoall(comm: Communicator, values: List[Any], nbytes: int = 8) -> Generator:
    """Pairwise-exchange alltoall; ``values[i]`` goes to rank ``i``.

    Returns the list of received values in source-rank order.  Raises
    :class:`~repro.errors.OutOfMemoryError` when the library's internal
    per-pair buffers would exceed the device memory (checked by the
    caller/runtime via :func:`alltoall_memory_required`).
    """
    p = comm.size
    if values is not None and len(values) != p:
        raise ConfigError(f"alltoall needs {p} values, got {len(values)}")
    result: List[Any] = [None] * p
    result[comm.rank] = values[comm.rank] if values is not None else None
    for round_no in range(1, p):
        if p & (p - 1) == 0:
            partner = comm.rank ^ round_no
        else:
            partner = (comm.rank + round_no) % p
        send_to = partner
        recv_from = partner if p & (p - 1) == 0 else (comm.rank - round_no) % p
        req = comm.isend(
            send_to,
            nbytes,
            tag=_TAG_COLL - 7 - round_no,
            payload=values[send_to] if values is not None else None,
        )
        env = yield from comm.recv(source=recv_from, tag=_TAG_COLL - 7 - round_no)
        yield from req.wait()
        result[env.source] = env.payload
    return result


def gather(
    comm: Communicator, value: Any, root: int = 0, nbytes: int = 8
) -> Generator:
    """Binomial-tree gather; ``root`` returns the rank-ordered list."""
    p = comm.size
    vrank = (comm.rank - root) % p
    blocks = {comm.rank: value}
    mask = 1
    while mask < p:
        if vrank & mask:
            dest = (vrank - mask + root) % p
            yield from comm.send(
                dest, nbytes * len(blocks), tag=_TAG_COLL - 8, payload=blocks
            )
            return None
        partner = vrank + mask
        if partner < p:
            env = yield from comm.recv(
                source=(partner + root) % p, tag=_TAG_COLL - 8
            )
            blocks.update(env.payload)
        mask <<= 1
    return [blocks[i] for i in range(p)]


def scatter(
    comm: Communicator, values: Optional[List[Any]], root: int = 0, nbytes: int = 8
) -> Generator:
    """Binomial-tree scatter; every rank returns its own block."""
    p = comm.size
    vrank = (comm.rank - root) % p
    if comm.rank == root:
        if values is None or len(values) != p:
            raise ConfigError(f"scatter root needs {p} values")
        blocks = {i: values[(i + root) % p] for i in range(p)}  # keyed by vrank
    else:
        blocks = {}
    mask = 1
    while mask < p:
        if vrank & mask:
            env = yield from comm.recv(
                source=((vrank - mask) + root) % p, tag=_TAG_COLL - 9
            )
            blocks = env.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            subtree = {k: v for k, v in blocks.items() if k >= vrank + mask}
            blocks = {k: v for k, v in blocks.items() if k < vrank + mask}
            yield from comm.send(
                (vrank + mask + root) % p,
                nbytes * max(1, len(subtree)),
                tag=_TAG_COLL - 9,
                payload=subtree,
            )
        mask >>= 1
    return blocks[vrank]


# ==========================================================================
# Exact per-rank schedules (the analytic fast path)
# ==========================================================================
#
# Each ``*_schedule`` function replays one collective's communication
# pattern as a max-plus recurrence over a per-rank clock vector instead
# of stepping every rank through the event engine.  The recurrences
# encode the engine's exact eager/rendezvous timing semantics:
#
# * eager send:    sender detaches after ``sender_time``; the receiver
#                  completes at ``max(recv_post, send_post + p2p_time)``.
# * rendezvous:    both sides synchronize, then transfer:
#                  ``max(recv_post, send_post) + p2p_time`` — and the
#                  sender's request completes at the same instant.
#
# Because they mirror the executable algorithms above *hop for hop*
# (same tree shapes, same per-round message sizes, same algorithm
# switches), the schedules agree with full DES runs to float precision —
# a property the test suite gates at 1e-9 relative error.
#
# Every schedule has the signature ``(fabric, p, nbytes, arrivals,
# root=0)``: ``arrivals`` holds the ranks' entry times, unrooted kinds
# ignore ``root`` and the barrier ignores ``nbytes``.  The clock vector
# is a Python list or a float numpy array, and the output is the same
# container.  The data-parallel recurrences are compositions of two
# steps, :func:`shift_step` and :func:`exchange_step`, each written once
# for both containers with the same float operations in the same order,
# so the two backends agree bit for bit.  The binomial trees are one
# walk per direction, :func:`_down_walk` (bcast, scatter) and
# :func:`_up_walk` (reduce, gather), level-synchronous over the
# :func:`_tree` table: each of the ⌈log2 P⌉ levels is one :func:`_p2p`
# between strided slices of parent and child vranks, in the same
# per-rank float order as the generators' sequential sends and recvs.


def _wire(fabric, nbytes: int):
    """(p2p transfer, sender occupancy, is-eager) for one message size."""
    return (
        fabric.p2p_time(nbytes),
        fabric.sender_time(nbytes),
        nbytes <= fabric.eager_max,
    )


def _arrivals(p: int, arrivals: Any) -> Any:
    if len(arrivals) != p:
        raise ConfigError(f"need {p} arrival times, got {len(arrivals)}")
    return arrivals.copy()


# ------------------------------------------------- clock-vector containers


def _roll(t: Any, o: int) -> Any:
    """``t`` rotated by ``o``: ``out[i] == t[(i - o) % len(t)]``."""
    if isinstance(t, list):
        o %= len(t)
        return t[-o:] + t[:-o]
    return get_numpy().roll(t, o)


def _add(t: Any, c: float) -> Any:
    return [x + c for x in t] if isinstance(t, list) else t + c


def _floor(t: Any, lo: float) -> Any:
    """``max(x, lo)`` for every element ``x`` of ``t``."""
    if isinstance(t, list):
        return [max(x, lo) for x in t]
    return get_numpy().maximum(t, lo)


def _extrema(t: Any) -> Tuple[Any, Any]:
    return (min(t), max(t)) if isinstance(t, list) else (t.min(), t.max())


def _full(t: Any, value: float) -> Any:
    """A vector shaped like ``t`` holding ``value`` everywhere."""
    if isinstance(t, list):
        return [value] * len(t)
    return get_numpy().full(len(t), value)


# ----------------------------------------------------------- the two steps


def shift_step(t: Any, o: int, tp: float, ts: float, eager: bool) -> Any:
    """One ring-shift round: rank ``i`` sends to ``i + o`` and receives
    from ``i - o`` (mod P), then waits for its send.

    Eager: ``t' = max(t + ts, roll(t, o) + tp)``.  Rendezvous: the rank
    also waits for its receiver, ``t' = max(t, roll(t, o), roll(t, -o))
    + tp``.
    """
    left = _roll(t, o)
    if isinstance(t, list):
        if eager:
            return [max(a + ts, b + tp) for a, b in zip(t, left)]
        return [
            max(a, b, c) + tp for a, b, c in zip(t, left, _roll(t, -o))
        ]
    np = get_numpy()
    if eager:
        return np.maximum(t + ts, left + tp)
    return np.maximum(np.maximum(t, left), np.roll(t, -o)) + tp


def exchange_step(t: Any, mask: int, tp: float, ts: float,
                  eager: bool) -> Any:
    """One pairwise-exchange round between ranks ``i`` and ``i ^ mask``.

    Eager: ``t' = max(t + ts, t[i ^ mask] + tp)``; rendezvous:
    ``t' = max(t, t[i ^ mask]) + tp``.  On an array a power-of-two mask
    is a contiguous block swap (reshape to ``(…, 2, mask)`` and flip the
    pair axis), which beats fancy indexing on 100k-rank vectors.
    """
    if isinstance(t, list):
        if eager:
            return [max(t[i] + ts, t[i ^ mask] + tp) for i in range(len(t))]
        return [max(t[i], t[i ^ mask]) + tp for i in range(len(t))]
    np = get_numpy()
    if mask & (mask - 1) == 0:
        other = t.reshape(-1, 2, mask)[:, ::-1, :].reshape(-1)
    else:
        other = t[np.arange(len(t)) ^ mask]
    if eager:
        return np.maximum(t + ts, other + tp)
    return np.maximum(t, other) + tp


def _p2p(send: Any, recv: Any, tp: float, ts: float,
         eager: bool) -> Tuple[Any, Any]:
    """Sender and receiver completion of one message per element pair,
    from their post times."""
    if isinstance(send, list):
        if eager:
            return ([s + ts for s in send],
                    [max(r, s + tp) for s, r in zip(send, recv)])
        done = [max(s, r) + tp for s, r in zip(send, recv)]
        return done, done
    np = get_numpy()
    if eager:
        return send + ts, np.maximum(recv, send + tp)
    done = np.maximum(send, recv) + tp
    return done, done


# ----------------------------------------------------- binomial-tree walks


def _tree(fabric, p: int, nbytes: int, blocks: bool) -> List[Any]:
    """The hops of a binomial tree over vranks, by level, mask ascending.

    Level ``mask`` links every parent vrank ``v ≡ 0 (mod 2·mask)`` to its
    child ``v + mask < p``: parents ``[0:p-mask:2·mask]``, children
    ``[mask:p:2·mask]``.  A hop carries ``nbytes``, or with ``blocks``
    (scatter, gather) the ``min(mask, p - c)`` blocks of child ``c``'s
    subtree: ``mask`` for all but possibly the level's last child, whose
    short hop is split off with its own wire.  Each entry is ``(parents,
    children, wire)``; both directions move the same counts.
    """
    hops: List[Any] = []
    wire = _wire(fabric, nbytes)
    mask = 1
    while mask < p:
        step = 2 * mask
        last = p - 1 - (p - 1 - mask) % step  # the level's last child
        cut = p
        if blocks:
            wire = _wire(fabric, nbytes * mask)
            if p - last < mask:
                cut = last
        if cut > mask:
            hops.append((slice(0, cut - mask, step), slice(mask, cut, step),
                         wire))
        if cut < p:
            hops.append((slice(last - mask, last - mask + 1),
                         slice(last, last + 1),
                         _wire(fabric, nbytes * (p - last))))
        mask <<= 1
    return hops


def _down_walk(t: Any, root: int, tree: List[Any]) -> Any:
    """Top-down binomial tree (bcast, scatter): per-rank completion times.

    Levels run mask high to low, one :func:`_p2p` each: a parent's clock
    already holds its earlier sends, and a child's is its arrival.
    """
    s = _roll(t, -root)  # by vrank
    for par, kid, (tp, ts, eager) in reversed(tree):
        s[par], s[kid] = _p2p(s[par], s[kid], tp, ts, eager)
    return _roll(s, root)


def _up_walk(t: Any, root: int, tree: List[Any], combine: float) -> Any:
    """Bottom-up binomial tree (reduce, gather): per-rank completion times.

    Levels run mask low to high, one :func:`_p2p` each: a child's clock
    is final (its own receives came at lower masks), and a parent adds
    ``combine`` after each receive, in the generator's recv order.
    """
    s = _roll(t, -root)  # by vrank
    for par, kid, (tp, ts, eager) in tree:
        s[kid], done = _p2p(s[kid], s[par], tp, ts, eager)
        s[par] = _add(done, combine)
    return _roll(s, root)


def _ring_times(fabric, p: int, nbytes: int, t: Any) -> Any:
    """Ring allgather: p−1 shifts by one at block size."""
    tp, ts, eager = _wire(fabric, nbytes)
    lo, hi = _extrema(t)
    if lo == hi:
        # Uniform arrivals: every round advances all ranks by the same
        # per-round cost, so the recurrence collapses to closed form.
        per_round = max(ts, tp) if eager else tp
        return _full(t, lo + (p - 1) * per_round)
    for _ in range(p - 1):
        t = shift_step(t, 1, tp, ts, eager)
    return t


# ------------------------------------------------------------ the schedules


def bcast_schedule(fabric, p: int, nbytes: int, arrivals: Any,
                   root: int = 0) -> Any:
    """Per-rank completion times of :func:`bcast` on a uniform fabric."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    if nbytes <= LARGE_MESSAGE_SWITCH:
        return _down_walk(t, root, _tree(fabric, p, nbytes, False))
    chunk = max(1, nbytes // p)
    after_scatter = _down_walk(t, root, _tree(fabric, p, chunk, True))
    return _ring_times(fabric, p, chunk, after_scatter)


def allreduce_schedule(fabric, p: int, nbytes: int, arrivals: Any,
                       root: int = 0) -> Any:
    """Per-rank completion times of :func:`allreduce` on a uniform fabric.

    With ``p = 2^m + r`` the first ``2r`` ranks fold pairwise (even into
    odd), the ``2^m`` survivors run the doubling exchange, and the odd
    ranks hand the result back to their even neighbours.
    """
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    tp, ts, eager = _wire(fabric, nbytes)
    tred = fabric.reduce_time(nbytes)
    pow2 = 1 << int(math.log2(p))
    r = p - pow2

    even_ready, recv_done = _p2p(t[0:2 * r:2], t[1:2 * r:2], tp, ts, eager)
    surv = t[r:].copy()  # surv[r:] is already t[2r:], the unfolded ranks
    surv[:r] = _add(recv_done, tred)

    mask = 1
    while mask < pow2:
        surv = _add(exchange_step(surv, mask, tp, ts, eager), tred)
        mask <<= 1
    if not r:
        return surv

    odd_done, even_done = _p2p(surv[:r], even_ready, tp, ts, eager)
    finish = t.copy()
    finish[0:2 * r:2] = even_done
    finish[1:2 * r:2] = odd_done
    finish[2 * r:] = surv[r:]
    return finish


def allgather_schedule(fabric, p: int, nbytes: int, arrivals: Any,
                       root: int = 0) -> Any:
    """Per-rank completion times of :func:`allgather` on a uniform fabric."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    if nbytes > ALLGATHER_RING_SWITCH:
        return _ring_times(fabric, p, nbytes, t)
    if p & (p - 1) == 0:
        # Recursive doubling; each round exchanges every block held.
        mask = 1
        while mask < p:
            t = exchange_step(t, mask, *_wire(fabric, nbytes * mask))
            mask <<= 1
        return t
    # Bruck: doubling shifted transfers of min(k, p−k) blocks.
    k = 1
    while k < p:
        t = shift_step(t, -k, *_wire(fabric, nbytes * min(k, p - k)))
        k <<= 1
    return t


def alltoall_schedule(fabric, p: int, nbytes: int, arrivals: Any,
                      root: int = 0) -> Any:
    """Per-rank completion times of :func:`alltoall` on a uniform fabric."""
    t = _arrivals(p, arrivals)
    wire = _wire(fabric, nbytes)
    step = exchange_step if p & (p - 1) == 0 else shift_step
    for rnd in range(1, p):
        t = step(t, rnd, *wire)
    return t


def reduce_schedule(fabric, p: int, nbytes: int, arrivals: Any,
                    root: int = 0) -> Any:
    """Per-rank completion times of :func:`reduce` on a uniform fabric:
    the bottom-up walk with ``nbytes`` hops and the reduction arithmetic
    after each receive."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    tree = _tree(fabric, p, nbytes, False)
    return _up_walk(t, root, tree, fabric.reduce_time(nbytes))


def gather_schedule(fabric, p: int, nbytes: int, arrivals: Any,
                    root: int = 0) -> Any:
    """Per-rank completion times of :func:`gather` on a uniform fabric:
    the bottom-up walk with hops of the blocks gathered so far and no
    arithmetic on the way up."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    return _up_walk(t, root, _tree(fabric, p, nbytes, True), 0.0)


def scatter_schedule(fabric, p: int, nbytes: int, arrivals: Any,
                     root: int = 0) -> Any:
    """Per-rank completion times of :func:`scatter` on a uniform fabric:
    the top-down walk of :func:`bcast_schedule`, with hops of the blocks
    handed down."""
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    return _down_walk(t, root, _tree(fabric, p, nbytes, True))


def barrier_schedule(fabric, p: int, nbytes: int, arrivals: Any,
                     root: int = 0) -> Any:
    """Per-rank completion times of the dissemination barrier.

    ⌈log2 p⌉ rounds of zero-byte sendrecv (always eager), each a
    :func:`shift_step` by ``k = 1, 2, 4, …``.  ``nbytes`` is accepted
    for dispatch uniformity and ignored — barrier traffic is zero-byte
    by construction.
    """
    t = _arrivals(p, arrivals)
    if p == 1:
        return t
    tp, ts, _ = _wire(fabric, 0)
    lo, hi = _extrema(t)
    if lo == hi:
        # Uniform arrivals: every rank advances identically per round.
        # Iterate (not closed-form) to keep float rounding bit-identical.
        cur = lo
        k = 1
        while k < p:
            cur = max(cur + ts, cur + tp)
            k <<= 1
        return _full(t, cur)
    k = 1
    while k < p:
        t = shift_step(t, k, tp, ts, True)
        k <<= 1
    return t


#: Schedule functions by collective kind (the fast path's dispatch table).
SCHEDULES = {
    "bcast": bcast_schedule,
    "reduce": reduce_schedule,
    "allreduce": allreduce_schedule,
    "allgather": allgather_schedule,
    "alltoall": alltoall_schedule,
    "barrier": barrier_schedule,
    "gather": gather_schedule,
    "scatter": scatter_schedule,
}


# ==========================================================================
# Closed-form cost models (per-operation wall time)
# ==========================================================================


def sendrecv_ring_time(fabric, p: int, nbytes: int) -> float:
    """Fig 10's primitive: every rank sends right / receives left, all
    concurrent — one matched transfer on the clock."""
    if p < 2:
        return 0.0
    return fabric.p2p_time(nbytes)


def bcast_time(fabric, p: int, nbytes: int) -> float:
    """Binomial tree (small) or scatter+allgather à la van de Geijn (large)."""
    if p < 2:
        return 0.0
    rounds = _log2_rounds(p)
    if nbytes <= LARGE_MESSAGE_SWITCH:
        return rounds * fabric.p2p_time(nbytes)
    alpha_part = (rounds + (p - 1) / p) * fabric.p2p_time(0)
    bw = (
        fabric.bandwidth()
        if hasattr(fabric, "params")
        else fabric.data_bandwidth(nbytes)
    )
    return alpha_part + 2.0 * (p - 1) / p * nbytes / bw


def allreduce_time(fabric, p: int, nbytes: int) -> float:
    """Recursive doubling: ⌈log2 p⌉ rounds, each a full-size exchange plus
    the local reduction arithmetic (matches the simulated algorithm)."""
    if p < 2:
        return 0.0
    rounds = _log2_rounds(p)
    return rounds * (fabric.p2p_time(nbytes) + fabric.reduce_time(nbytes))


def allgather_time(fabric, p: int, nbytes: int) -> float:
    """Recursive doubling below the switch, ring above (Fig 13's jump).

    ``nbytes`` is the per-rank block size.
    """
    if p < 2:
        return 0.0
    bw = (
        fabric.bandwidth()
        if hasattr(fabric, "params")
        else fabric.data_bandwidth(nbytes)
    )
    if nbytes <= ALLGATHER_RING_SWITCH:
        # Recursive doubling (power-of-two) / Bruck (otherwise): same cost.
        rounds = _log2_rounds(p)
        return rounds * fabric.p2p_time(0) + (p - 1) * nbytes / bw
    return (p - 1) * fabric.p2p_time(nbytes)


def alltoall_time(fabric, p: int, nbytes: int) -> float:
    """Pairwise exchange: p−1 rounds under all-to-all congestion."""
    if p < 2:
        return 0.0
    alpha = (
        fabric.alpha("alltoall", p)
        if hasattr(fabric, "alpha")
        else fabric.p2p_time(0)
    )
    if hasattr(fabric, "params"):
        bw = fabric.bandwidth("alltoall")
        handshake = fabric.handshake(nbytes)
    else:
        bw = fabric.data_bandwidth(nbytes)
        handshake = fabric.handshake(nbytes)
    return (p - 1) * (alpha + handshake + nbytes / bw)


def alltoall_memory_required(p: int, nbytes: int) -> float:
    """Total bytes an alltoall of per-pair size ``nbytes`` needs on one card.

    Application send+receive buffers (``2·p·nbytes`` per rank) plus the
    MPI library's per-pair connection contexts and staging buffers.  At
    236 ranks this crosses a Phi card's 8 GB between 4 KiB and 8 KiB —
    the paper's observed failure point.
    """
    if p < 1 or nbytes < 0:
        raise ConfigError("invalid alltoall parameters")
    app = 2.0 * p * p * nbytes
    internal = p * p * (CONN_BASE + STAGING_MULT * min(nbytes, STAGING_CAP))
    return app + internal


def alltoall_fits(p: int, nbytes: int, device_memory: float = 8 * GiB) -> bool:
    """Does an alltoall of this shape fit in ``device_memory``?"""
    return alltoall_memory_required(p, nbytes) <= device_memory


def check_alltoall_memory(p: int, nbytes: int, device_memory: float) -> None:
    """Raise :class:`OutOfMemoryError` if the alltoall cannot allocate."""
    required = alltoall_memory_required(p, nbytes)
    if required > device_memory:
        raise OutOfMemoryError(required, device_memory, f"MPI_Alltoall p={p}")
