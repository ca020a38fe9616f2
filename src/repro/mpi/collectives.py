"""MPI collective operations: one round plan per collective, walked three ways.

Each collective kind is written once, as a :class:`Plan` that
:func:`plan` builds from ``(kind, p, nbytes)``.  The plans are the
textbook algorithms Intel MPI uses at these scales: binomial
broadcast/reduce/gather/scatter, recursive-doubling allreduce/allgather,
Bruck and ring allgather, pairwise-exchange alltoall and the
dissemination barrier.  A plan has three parts:

* a ``head`` of :class:`Level` s, each one point-to-point hop per pair of
  strided vrank slices (a binomial tree's levels, allreduce's fold);
* a body of data-parallel :class:`Rounds`, each a shift by an offset or
  an exchange across an xor mask, on every rank or on allreduce's
  survivors;
* a ``tail`` of levels (allreduce's hand-back).

Every entry carries its bytes per hop, its wire pattern, its tag and its
payload rule (``move``).  A run of rounds that follow one rule (the
ring's P−1 shifts by one, alltoall's P−1 rounds) is one entry, so a plan
has O(log P) entries at any P.  The algorithm switches, the power-of-two
tests, the MPICH fold and the alltoall and Bruck peer rules live in
:func:`plan` alone.  Three walks read a plan:

1. **Algorithms** — :data:`ALGORITHMS`, all with the signature ``(comm,
   value, nbytes, root, op)``, step one rank through the plan's rounds
   over the stepped :class:`~repro.mpi.api.Communicator`'s
   point-to-point layer.  The stepped communicator's one collective
   entry runs them for every collective, hop by hop, so the stepped
   engine is the oracle the other walks are gated against.  They move
   real payloads, so the test suite verifies collective *semantics*
   against NumPy references.

2. **Schedules** — :data:`SCHEDULES` fold the same rounds as max-plus
   recurrences over a clock vector (a list, or a numpy array) into the
   exact per-rank completion times.  Every path that does not step a
   collective's messages prices it with its schedule as given: the
   compiled replay and the Figs 10–14 sweeps through
   :func:`finish_times`, and phase pricing on its clock vector.  Under a static fault plan reduce and
   allreduce take each rank's straggler factor on their reduction
   arithmetic.  A level is one :func:`_p2p` between the two slices, and
   a round is one of two steps written once: :func:`shift_step` (which
   also prices phase-compiled halo shifts) and :func:`exchange_step`.
   When every member enters the rounds at once, one scalar carries them
   (:func:`_rounds`): equal arrivals stay equal.  On an array each step
   writes into one output buffer with the list step's float operations
   in the same order.  A shift's rotation is two slice writes (no
   ``np.roll``), an exchange first copies each rank's partner clock
   into the output (:func:`_partners`), and the maxima and sums are
   in-place ufuncs; an eager step also needs a ``t + ts`` scratch.  The
   output and the scratch are ``out=`` and ``scratch=`` when given,
   else fresh.  No step writes its input.  :func:`_rounds` ping-pongs
   between the vector its schedule owns and one workspace per thread,
   which never reaches a caller, and adds the reduction arithmetic in
   place (:func:`_add_to`).  The Figs 10–14 sweeps
   (:mod:`repro.microbench.mpifuncs`) are these schedules on zero
   arrivals, so a figure point and a stepped job of the same collective
   report the same time.

3. **Payload folds** — :func:`fold_values` folds a reduction's ``op``
   over the same rounds in the stepped algorithm's operand order; the
   compiled replay takes reduce and allreduce results from it, so
   payloads (float rounding included) match the stepped run.

The allgather algorithm switch (recursive doubling → ring) at a 2 KiB
block is the paper's "sudden jump in time at 2 KB and 4 KB message size
… due to a change in [algorithm] used in MPI_Allgather" (Section 6.4.4).
The alltoall memory model reproduces its out-of-memory failure beyond
4 KiB at 236 ranks (Section 6.4.5).
"""

from __future__ import annotations

import operator
import threading
from functools import lru_cache, partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    NamedTuple, Optional, Tuple)

from repro.errors import ConfigError, OutOfMemoryError
from repro.perf.batch import get_numpy
from repro.units import GiB, KiB

if TYPE_CHECKING:
    from repro.mpi.api import Communicator

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


# ==========================================================================
# Round plans
# ==========================================================================
#
# A payload rule (``move``) says what a hop carries and what its receiver
# does with it:
#
# * ``copy``  — the sender's value; the receiver takes it.
# * ``fold``  — the sender's value; the receiver runs the reduction
#               arithmetic, then holds ``op(own, received)``.
# * ``merge`` — a copy of the sender's blocks; the receiver merges them.
# * ``split`` — the blocks of the receiver's subtree (vranks from the
#               receiver's on), which the sender gives up; the receiver
#               takes them.
# * ``ring``  — the one block the sender received last (its own in the
#               first round); the receiver merges it.
# * ``route`` — the sender's value for the receiver; the receiver files
#               it by source rank.


class Level(NamedTuple):
    """One point-to-point hop per pair of vrank slices: vrank
    ``senders[k]`` sends ``blocks`` blocks (of :meth:`Plan.unit` bytes)
    to vrank ``receivers[k]`` under ``tag``.  The two slices have one
    length and one stride."""

    senders: slice
    receivers: slice
    blocks: int
    tag: int
    move: str


class Rounds(NamedTuple):
    """``count`` data-parallel rounds of one rule over the plan's ``n``
    members.  Round ``i`` has ``arg = first + i·stride`` and tag ``tag −
    i·stride``: with ``exchange`` member ``m`` swaps with ``m ^ arg``,
    else it sends to ``m + arg`` and receives from ``m − arg`` (mod
    ``n``).  Every hop carries ``blocks`` blocks on the ``pattern``
    wire."""

    exchange: bool
    first: int
    blocks: int
    tag: int
    move: str
    count: int = 1
    stride: int = 0
    pattern: str = "neighbor"


class Plan(NamedTuple):
    """A collective's rounds: ``head`` levels, then the data-parallel
    ``rounds``, then ``tail`` levels.  Levels address vranks, ``(rank −
    root) mod p``.  The rounds' members are every vrank, or with ``fold
    = r`` allreduce's ``p − r`` survivors: member ``m`` is vrank ``2m +
    1`` for ``m < r`` and ``m + r`` after.  A ``chunked`` plan moves
    ``1/p``-size chunks of the message (:meth:`unit`)."""

    head: Tuple[Level, ...] = ()
    rounds: Tuple[Rounds, ...] = ()
    tail: Tuple[Level, ...] = ()
    fold: int = 0
    chunked: bool = False

    def unit(self, p: int, nbytes: int) -> int:
        """The bytes of one block when each rank moves ``nbytes``."""
        return max(1, nbytes // p) if self.chunked else nbytes


@lru_cache(maxsize=256)
def _tree_hops(p: int, blocks: bool) -> Tuple[Tuple[slice, slice, int], ...]:
    """A binomial tree's hops over vranks, by level, mask ascending: each
    ``(parents, children, blocks per hop)``.

    Level ``mask`` links every parent vrank ``v ≡ 0 (mod 2·mask)`` to its
    child ``v + mask < p``: parents ``[0:p-mask:2·mask]``, children
    ``[mask:p:2·mask]``.  A hop carries one block, or with ``blocks``
    (scatter, gather) the ``min(mask, p - c)`` blocks of child ``c``'s
    subtree: ``mask`` for all but possibly the level's last child, whose
    short hop is split off as a level of its own.
    """
    hops = []
    mask = 1
    while mask < p:
        step = 2 * mask
        last = p - 1 - (p - 1 - mask) % step  # the level's last child
        cut = last if blocks and p - last < mask else p
        if cut > mask:
            hops.append((slice(0, cut - mask, step), slice(mask, cut, step),
                         mask if blocks else 1))
        if cut < p:
            hops.append((slice(last - mask, last - mask + 1),
                         slice(last, last + 1), p - last))
        mask <<= 1
    return tuple(hops)


def _tree(p: int, blocks: bool, tag: int, move: str,
          up: bool) -> Tuple[Level, ...]:
    """A binomial tree's levels in walk order: mask ascending going
    ``up`` (children send to parents), descending going down
    (:func:`_tree_hops`)."""
    if up:
        return tuple(Level(kid, par, k, tag, move)
                     for par, kid, k in _tree_hops(p, blocks))
    return tuple(Level(par, kid, k, tag, move)
                 for par, kid, k in reversed(_tree_hops(p, blocks)))


def _powers(n: int) -> List[int]:
    """``1, 2, 4, …``: the first ``n`` powers of two."""
    return [1 << i for i in range(n)]


def plan(kind: str, p: int, nbytes: int) -> Plan:
    """The round plan of collective ``kind`` on ``p`` ranks moving
    ``nbytes`` per rank (per block for allgather and alltoall).

    Its entries count blocks of :meth:`Plan.unit` bytes, so the plan
    depends on ``nbytes`` only through the algorithm switches, and one
    cached plan serves every message size an algorithm covers.
    """
    if kind == "bcast":
        return _plan(kind, p, nbytes > LARGE_MESSAGE_SWITCH)
    if kind == "allgather":
        return _plan(kind, p, nbytes > ALLGATHER_RING_SWITCH)
    return _plan(kind, p, False)


@lru_cache(maxsize=256)
def _plan(kind: str, p: int, large: bool) -> Plan:
    """:func:`plan` for one algorithm: ``large`` picks the large-message
    bcast and the ring allgather."""
    if p == 1:
        return Plan()
    pow2 = 1 << (p.bit_length() - 1)
    if kind == "bcast" and not large:
        return Plan(_tree(p, False, _TAG_COLL, "copy", up=False))
    if kind == "bcast":
        # van de Geijn: scatter 1/p-size chunks down the binomial tree,
        # then ring-allgather them; every chunk is the root's value.
        return Plan(_tree(p, True, _TAG_COLL - 9, "copy", up=False),
                    (Rounds(False, 1, 1, _TAG_COLL - 6, "copy", p - 1),),
                    chunked=True)
    if kind == "reduce":
        return Plan(_tree(p, False, _TAG_COLL - 1, "fold", up=True))
    if kind == "gather":
        return Plan(_tree(p, True, _TAG_COLL - 8, "merge", up=True))
    if kind == "scatter":
        return Plan(_tree(p, True, _TAG_COLL - 9, "split", up=False))
    if kind == "allreduce":
        # MPICH: with p = 2^m + r the first 2r ranks fold pairwise (even
        # into odd), the 2^m survivors run the doubling exchange, and the
        # odd ranks hand the result back to their even neighbours.
        r = p - pow2
        evens, odds = slice(0, 2 * r, 2), slice(1, 2 * r, 2)
        return Plan(
            (Level(evens, odds, 1, _TAG_COLL - 2, "fold"),) if r else (),
            tuple(Rounds(True, m, 1, _TAG_COLL - 4, "fold")
                  for m in _powers(p.bit_length() - 1)),
            (Level(odds, evens, 1, _TAG_COLL - 3, "copy"),) if r else (),
            r,
        )
    if kind == "allgather" and large:
        return Plan(rounds=(Rounds(False, 1, 1, _TAG_COLL - 6, "ring",
                                   p - 1),))
    if kind == "allgather" and pow2 == p:
        # Recursive doubling; each round exchanges every block held.
        return Plan(rounds=tuple(
            Rounds(True, m, m, _TAG_COLL - 5, "merge")
            for m in _powers(p.bit_length() - 1)
        ))
    if kind == "allgather":
        # Bruck: doubling shifted transfers of min(k, p−k) blocks.
        return Plan(rounds=tuple(
            Rounds(False, -k, min(k, p - k), _TAG_COLL - 10 - i, "merge")
            for i, k in enumerate(_powers((p - 1).bit_length()))  # ⌈log2 p⌉
        ))
    if kind == "alltoall":
        # Round rnd = 1 … p−1 pairs i with i ^ rnd on a power of two,
        # else sends to i + rnd and receives from i − rnd.
        return Plan(rounds=(Rounds(pow2 == p, 1, 1, _TAG_COLL - 8,
                                   "route", p - 1, 1, "alltoall"),))
    if kind == "barrier":
        # Dissemination: zero-byte shifts by 1, 2, 4, … off the user tags.
        return Plan(rounds=tuple(
            Rounds(False, k, 0, -1000 - i, "copy")
            for i, k in enumerate(_powers((p - 1).bit_length()))
        ))
    raise ConfigError(f"unknown collective {kind!r}")


def _root(kind: str, root: Optional[int]) -> int:
    """The root the walks roll vranks by: 0 for the unrooted kinds."""
    return (root or 0) if kind in ROOTED else 0


def _member(v: int, r: int) -> Optional[int]:
    """Vrank ``v``'s member index in the rounds (``None``: folded away)."""
    if v >= 2 * r:
        return v - r
    return v // 2 if v % 2 else None


def _vrank(m: int, r: int) -> int:
    return 2 * m + 1 if m < r else m + r


def _peers(rnd: Rounds, i: int, m: int, n: int) -> Tuple[int, int]:
    """Member ``m``'s (destination, source) in round ``i`` of ``rnd``."""
    arg = rnd.first + i * rnd.stride
    if rnd.exchange:
        return m ^ arg, m ^ arg
    return (m + arg) % n, (m - arg) % n


def _group(t: Any, r: int) -> Any:
    """The members' entries of a per-vrank vector: all of it, or with
    ``r`` folded pairs the odd vranks below ``2r`` then the rest."""
    if not r:
        return t
    if isinstance(t, list):
        return t[1:2 * r:2] + t[2 * r:]
    g = t[r:].copy()  # g[r:] is already t[2r:]
    g[:r] = t[1:2 * r:2]
    return g


def _ungroup(t: Any, g: Any, r: int) -> Any:
    """Write the members' entries ``g`` back into ``t`` (:func:`_group`'s
    inverse)."""
    if not r:
        return g
    t[1:2 * r:2] = g[:r]
    t[2 * r:] = g[r:]
    return t


# ==========================================================================
# Walk 1: the stepped algorithms
# ==========================================================================


def _start(kind: str, value: Any, rank: int, v: int, p: int,
           root: int) -> Any:
    """A rank's payload state before the first round."""
    if kind in ("gather", "allgather"):
        return {rank: value}
    if kind == "alltoall":
        if value is not None and len(value) != p:
            raise ConfigError(f"alltoall needs {p} values, got {len(value)}")
        state = [None] * p
        state[rank] = None if value is None else value[rank]
        return state
    if kind == "scatter" and v == 0:
        if value is None or len(value) != p:
            raise ConfigError(f"scatter root needs {p} values")
        return {i: value[(i + root) % p] for i in range(p)}  # by vrank
    return value


def _finish(kind: str, state: Any, v: int, p: int) -> Any:
    """A rank's result from its payload state after the last round."""
    if v and kind in ("reduce", "gather"):
        return None
    if kind in ("gather", "allgather"):
        return [state[i] for i in range(p)]
    if kind == "scatter":
        return state[v]
    return state


def _outgoing(move: str, state: Any, value: Any, dest: int,
              block: int) -> Tuple[Any, Any]:
    """(payload, the sender's state after) of one hop to rank ``dest``;
    ``block`` is the receiver's vrank (``split``) or the block a ``ring``
    round forwards."""
    if move == "merge":
        return dict(state), state
    if move == "split":
        return ({k: x for k, x in state.items() if k >= block},
                {k: x for k, x in state.items() if k < block})
    if move == "ring":
        return {block: state[block]}, state
    if move == "route":
        return (None if value is None else value[dest]), state
    return state, state


def _absorb(move: str, state: Any, env: Any, op: Callable) -> Any:
    """The receiver's state once ``env`` has arrived (after a ``fold``'s
    reduction arithmetic)."""
    if move == "fold":
        return op(state, env.payload)
    if move in ("merge", "ring"):
        state.update(env.payload)
        return state
    if move == "route":
        state[env.source] = env.payload
        return state
    return env.payload


def _stepped(kind: str, comm: Communicator, value: Any, nbytes: int,
             root: Optional[int], op: Optional[Callable]) -> Generator:
    """Collective ``kind`` on one rank of the stepped communicator: its
    plan's levels as blocking sends and receives, its rounds as
    ``isend``/``recv``/``wait``, each ``fold`` receive followed by the
    reduction arithmetic and ``op(own, received)``."""
    p, rank = comm.size, comm.rank
    root = _root(kind, root)
    op = _default_op(op)
    v = (rank - root) % p
    pl = plan(kind, p, nbytes)
    unit = pl.unit(p, nbytes)

    def levels(state: Any, lvls: Tuple[Level, ...]) -> Generator:
        for lvl in lvls:
            d = lvl.receivers.start - lvl.senders.start
            size = lvl.blocks * unit
            if v in range(p)[lvl.senders]:
                payload, state = _outgoing(lvl.move, state, value, 0, v + d)
                yield from comm.send((v + d + root) % p, size,
                                     tag=lvl.tag, payload=payload)
            elif v in range(p)[lvl.receivers]:
                src = (v - d + root) % p
                env = yield from comm.recv(source=src, tag=lvl.tag)
                if lvl.move == "fold":
                    yield from comm.compute(comm.fabric(src).reduce_time(size))
                state = _absorb(lvl.move, state, env, op)
        return state

    state = yield from levels(_start(kind, value, rank, v, p, root), pl.head)
    r, n = pl.fold, p - pl.fold
    m = _member(v, r)
    for rnd in pl.rounds if m is not None else ():
        for i in range(rnd.count):
            to, frm = _peers(rnd, i, m, n)
            dest, src = (_vrank(to, r) + root) % p, (_vrank(frm, r) + root) % p
            tag = rnd.tag - i * rnd.stride
            payload, state = _outgoing(rnd.move, state, value, dest,
                                       (m - i) % n)
            req = comm.isend(dest, rnd.blocks * unit, tag=tag,
                             payload=payload, pattern=rnd.pattern)
            env = yield from comm.recv(source=src, tag=tag)
            yield from req.wait()
            if rnd.move == "fold":
                yield from comm.compute(
                    comm.fabric(src).reduce_time(rnd.blocks * unit))
            state = _absorb(rnd.move, state, env, op)
    state = yield from levels(state, pl.tail)
    return _finish(kind, state, v, p)


# ==========================================================================
# Walk 2: the exact per-rank schedules
# ==========================================================================
#
# A schedule replays one collective's plan as a max-plus recurrence over
# a per-rank clock vector instead of stepping every rank through the
# event engine.  The recurrences encode the engine's exact
# eager/rendezvous timing semantics:
#
# * eager send:    sender detaches after ``sender_time``; the receiver
#                  completes at ``max(recv_post, send_post + p2p_time)``.
# * rendezvous:    both sides synchronize, then transfer:
#                  ``max(recv_post, send_post) + p2p_time`` — and the
#                  sender's request completes at the same instant.
#
# Because the stepped algorithms walk the same plan *hop for hop*, the
# schedules agree with full DES runs bit for bit — a property the test
# suite gates with ``==``.
#
# Every schedule has the signature ``(fabric, p, nbytes, arrivals,
# root=0, factors=None, wires=None)``: ``arrivals`` holds the ranks'
# entry times, ``factors`` (one per rank) scales each rank's reduction
# arithmetic, and ``wires`` is a job's :class:`_Wires` table, which the
# compiled replay shares between its messages and every occurrence.
# The clock vector is a Python list or a float numpy array, and the
# output is the same container.  The steps are written once for both
# containers with the same float operations in the same order, so the
# two backends agree bit for bit.  A level is one :func:`_p2p` between
# its strided slices, in the same per-rank float order as the
# generators' sequential sends and receives: going down a tree a
# parent's clock already holds its earlier sends, going up a child's
# clock is final (its own receives came at lower masks).


def _wire(fabric, nbytes: int, pattern: str = "neighbor", p: int = 1):
    """(p2p transfer, sender occupancy, is-eager) for one message size,
    on the wire a receiver of a ``p``-rank job prices ``pattern`` with."""
    return (
        fabric.p2p_time(nbytes, pattern, p),
        fabric.sender_time(nbytes),
        nbytes <= fabric.eager_max,
    )


class _Wires(dict):
    """:func:`_wire` by ``(nbytes, pattern)`` for one ``p``-rank job on
    one fabric, each priced on first use."""

    def __init__(self, fabric, p: int):
        self.fabric, self.p = fabric, p

    def __missing__(self, key: Tuple[int, str]) -> Tuple[float, float, bool]:
        wire = self[key] = _wire(self.fabric, key[0], key[1], self.p)
        return wire


def _arrivals(p: int, arrivals: Any) -> Any:
    if len(arrivals) != p:
        raise ConfigError(f"need {p} arrival times, got {len(arrivals)}")
    return arrivals.copy()


# ------------------------------------------------- clock-vector containers


def _roll(t: Any, o: int) -> Any:
    """A new vector, ``t`` rotated by ``o``: ``out[i] == t[(i - o) % len(t)]``.

    On an array, two slice copies into a fresh buffer; even ``o ≡ 0``
    returns a copy, so callers may write into the result.
    """
    p = len(t)
    o %= p
    if isinstance(t, list):
        return t[-o:] + t[:-o]
    out = get_numpy().empty_like(t)
    out[:o] = t[p - o:]
    out[o:] = t[:p - o]
    return out


def _add_to(t: Any, c: Any) -> Any:
    """``t + c`` elementwise (``c`` a scalar or a list as long as ``t``),
    written into ``t`` when it is an array (a buffer the caller owns); a
    list gets a new list."""
    if isinstance(t, list):
        if isinstance(c, list):
            return [x + y for x, y in zip(t, c)]
        return [x + c for x in t]
    return get_numpy().add(t, c, out=t)


def _extrema(t: Any) -> Tuple[Any, Any]:
    return (min(t), max(t)) if isinstance(t, list) else (t.min(), t.max())


def _full(t: Any, value: float) -> Any:
    """``t`` holding ``value`` everywhere: a new list, or the array (a
    buffer the caller owns) filled in place."""
    if isinstance(t, list):
        return [value] * len(t)
    t.fill(value)
    return t


# ----------------------------------------------------------- the two steps


def _outputs(np: Any, t: Any, out: Any, scratch: Any) -> Any:
    """A step's output buffer: ``out``, or a fresh one when it is
    ``None``.  Raises :class:`ValueError` when ``out`` or ``scratch``
    shares memory with ``t`` (a step never writes its input), or
    ``scratch`` with ``out`` (eager's ``t + ts`` would land in it)."""
    if out is None:
        out = np.empty(len(t))
    elif np.may_share_memory(out, t):
        raise ValueError("a step's out= shares memory with its input")
    if scratch is not None and (np.may_share_memory(scratch, t)
                                or np.may_share_memory(scratch, out)):
        raise ValueError("a step's scratch= shares memory with its input"
                         " or its output")
    return out


def shift_step(t: Any, o: int, tp: float, ts: float, eager: bool,
               out: Any = None, scratch: Any = None) -> Any:
    """One ring-shift round: rank ``i`` sends to ``i + o`` and receives
    from ``i - o`` (mod P), then waits for its send.

    Eager: ``t' = max(t + ts, roll(t, o) + tp)``.  Rendezvous: the rank
    also waits for its receiver, ``t' = max(t, roll(t, o), roll(t, -o))
    + tp``.  On an array each roll is two slice operations writing
    straight into the output: ``out`` when given (and returned), else a
    fresh buffer.  Eager computes ``t + ts`` into ``scratch`` when given,
    else into a fresh temporary; rendezvous needs none.  ``t`` is never
    written, and ``out`` or ``scratch`` sharing its memory raises
    :class:`ValueError`.  A list ignores both and returns a new list.
    """
    if isinstance(t, list):
        left = _roll(t, o)
        if eager:
            return [max(a + ts, b + tp) for a, b in zip(t, left)]
        return [
            max(a, b, c) + tp for a, b, c in zip(t, left, _roll(t, -o))
        ]
    np = get_numpy()
    p = len(t)
    o %= p
    out = _outputs(np, t, out, scratch)
    if eager:
        np.add(t[p - o:], tp, out=out[:o])
        np.add(t[:p - o], tp, out=out[o:])
        return np.maximum(np.add(t, ts, out=scratch), out, out=out)
    np.maximum(t[:o], t[p - o:], out=out[:o])
    np.maximum(t[o:], t[:p - o], out=out[o:])
    np.maximum(out[:p - o], t[o:], out=out[:p - o])
    np.maximum(out[p - o:], t[:o], out=out[p - o:])
    return np.add(out, tp, out=out)


def exchange_step(t: Any, mask: int, tp: float, ts: float, eager: bool,
                  out: Any = None, scratch: Any = None) -> Any:
    """One pairwise-exchange round between ranks ``i`` and ``i ^ mask``.

    Eager: ``t' = max(t + ts, t[i ^ mask] + tp)``; rendezvous:
    ``t' = max(t, t[i ^ mask]) + tp``.  On an array the partners' clocks
    are first copied into the output (:func:`_partners`), and the rest
    is contiguous in-place ufuncs on it.  The output is ``out`` when
    given (and returned), else a fresh buffer; eager computes ``t + ts``
    into ``scratch`` when given, else into a fresh temporary, and
    rendezvous needs none.  ``t`` is never written, and ``out`` or
    ``scratch`` sharing its memory raises :class:`ValueError`.  A list
    ignores both and returns a new list.
    """
    if isinstance(t, list):
        if eager:
            return [max(t[i] + ts, t[i ^ mask] + tp) for i in range(len(t))]
        return [max(t[i], t[i ^ mask]) + tp for i in range(len(t))]
    np = get_numpy()
    out = _partners(np, t, mask, _outputs(np, t, out, scratch))
    if eager:
        np.add(out, tp, out=out)
        return np.maximum(np.add(t, ts, out=scratch), out, out=out)
    np.maximum(t, out, out=out)
    return np.add(out, tp, out=out)


def _partners(np: Any, t: Any, mask: int, out: Any) -> Any:
    """``out[i] = t[i ^ mask]``, written into ``out`` and returned.

    A power-of-two mask swaps the two halves of each ``2 * mask`` block:
    the ``(…, 2, mask)`` views' halves are two slice copies, which beat
    fancy indexing on 100k-rank vectors.  Masks 1 and 2 copy one strided
    column at a time instead, since rows of one or two elements are slow
    to iterate.  Any other mask (pairwise alltoall's rounds) gathers.
    """
    if mask & (mask - 1):
        return np.take(t, np.arange(len(t)) ^ mask, out=out)
    if mask <= 2:
        v, dst = t.reshape(-1, 2 * mask), out.reshape(-1, 2 * mask)
        for j in range(2 * mask):
            dst[:, j] = v[:, j ^ mask]
    else:
        v, dst = t.reshape(-1, 2, mask), out.reshape(-1, 2, mask)
        dst[:, 0] = v[:, 1]
        dst[:, 1] = v[:, 0]
    return out


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
        recv_done = send + tp
        return send + ts, np.maximum(recv, recv_done, out=recv_done)
    done = np.maximum(send, recv)
    np.add(done, tp, out=done)
    return done, done


def _levels(t: Any, levels: Tuple[Level, ...], wires: _Wires,
            combine: Any, unit: int = 1) -> Any:
    """``levels`` on the per-vrank clock vector ``t``, written in place,
    each hop ``unit`` bytes a block: a ``fold`` receiver adds ``combine``
    (one time, or one per vrank) after its receive."""
    for lvl in levels:
        snd, rcv = lvl.senders, lvl.receivers
        t[snd], done = _p2p(t[snd], t[rcv],
                            *wires[unit * lvl.blocks, "neighbor"])
        if lvl.move == "fold":
            done = _add_to(done, combine[rcv] if isinstance(combine, list)
                           else combine)
        t[rcv] = done
    return t


#: Per-thread workspace of :func:`_rounds` on arrays: a step output
#: and an eager scratch, each as long as the largest member count the
#: thread has walked.
_WORKSPACE = threading.local()


def _workspace(n: int) -> Tuple[Any, Any]:
    """This thread's step buffer and scratch, ``n`` floats each.  They
    outlive the walk (freed P-sized buffers make glibc trim and re-fault
    the heap), and no caller ever receives one."""
    ws = getattr(_WORKSPACE, "buffers", None)
    if ws is None or len(ws[0]) < n:
        np = get_numpy()
        ws = _WORKSPACE.buffers = (np.empty(n), np.empty(n))
    return ws[0][:n], ws[1][:n]


def _rounds(t: Any, rounds: Tuple[Rounds, ...], wires: _Wires,
            combine: Any, unit: int = 1) -> Any:
    """The data-parallel ``rounds`` on the members' clock vector ``t``,
    each hop ``unit`` bytes a block: each round one exchange or shift
    step, and a ``fold`` round adds ``combine`` (one time, or one per
    member).

    On an array ``t`` is a vector the schedule owns, and the result is
    written into it and returned.  The steps ping-pong between ``t`` and
    this thread's workspace (:func:`_workspace`), with its scratch taking
    eager's ``t + ts``; a walk that ends in the workspace copies the
    result back into ``t`` once, so no workspace buffer reaches the
    caller.  A list gets a new list.

    When every member enters at once, one scalar carries every round.
    Rounding is monotone, so a round maps a uniform vector ``c`` to the
    uniform ``max(c + ts, c + tp) == c + max(ts, tp)`` (eager) or ``c +
    tp`` (rendezvous), whatever its offset or mask; a fold's one
    ``combine`` keeps it uniform, per-rank factors do not.  The scalar
    takes one add at a time, as the steps do (the product ``count *
    cost`` rounds differently); on an array a run's adds are one
    ``np.add.accumulate``, so a P=65536 ring stays a vector op.
    """
    lo, hi = _extrema(t)
    uniform = lo == hi and not (
        isinstance(combine, list)
        and any(rnd.move == "fold" for rnd in rounds)
    )
    owned, spare, scratch = t, None, None
    if not (uniform or isinstance(t, list)):
        spare, scratch = _workspace(len(t))
    for rnd in rounds:
        tp, ts, eager = wires[unit * rnd.blocks, rnd.pattern]
        fold = rnd.move == "fold"
        if uniform:
            adds = [max(ts, tp) if eager else tp] + ([combine] if fold else [])
            if isinstance(t, list) or rnd.count == 1:
                for _ in range(rnd.count):
                    for a in adds:
                        lo += a
            else:
                np = get_numpy()
                steps = np.concatenate(([lo], np.tile(adds, rnd.count)))
                lo = np.add.accumulate(steps)[-1]
            continue
        step = exchange_step if rnd.exchange else shift_step
        arg = rnd.first
        for _ in range(rnd.count):  # a list step ignores out=
            spare, t = t, step(t, arg, tp, ts, eager, out=spare,
                               scratch=scratch)
            if fold:
                t = _add_to(t, combine)
            arg += rnd.stride
    if uniform:
        return _full(t, lo)
    if t is not owned and not isinstance(t, list):
        owned[:] = t
        t = owned
    return t


def _schedule(kind: str, fabric, p: int, nbytes: int, arrivals: Any,
              root: Optional[int] = 0,
              factors: Optional[List[float]] = None,
              wires: Optional[_Wires] = None) -> Any:
    """Per-rank completion times of collective ``kind`` on a uniform
    fabric from the ranks' entry times ``arrivals``: its plan's head
    levels, rounds and tail levels on one clock vector, by vrank.
    ``factors`` (one per rank) scales each rank's reduction arithmetic
    exactly as a straggler's ``compute`` scales it.  ``wires`` is the
    job's wire table for ``fabric`` at ``p`` ranks, shared by its
    occurrences; without one the call prices its own."""
    t = _arrivals(p, arrivals)
    pl = plan(kind, p, nbytes)
    unit = pl.unit(p, nbytes)
    root = _root(kind, root)
    combine: Any = fabric.reduce_time(nbytes)
    if factors is not None and any(x.move == "fold"
                                   for x in pl.head + pl.rounds):
        combine = _roll([combine * f for f in factors], -root)
    if root:
        t = _roll(t, -root)
    if wires is None:
        wires = _Wires(fabric, p)
    if pl.head:
        t = _levels(t, pl.head, wires, combine, unit)
    if pl.rounds:
        members = (_group(combine, pl.fold) if isinstance(combine, list)
                   else combine)
        g = _rounds(_group(t, pl.fold), pl.rounds, wires, members, unit)
        t = _ungroup(t, g, pl.fold)
    if pl.tail:
        t = _levels(t, pl.tail, wires, combine, unit)
    return _roll(t, root) if root else t


# ==========================================================================
# Walk 3: the payload folds of the reductions
# ==========================================================================


def _fold_levels(s: List[Any], levels: Tuple[Level, ...],
                 op: Callable) -> List[Any]:
    """``levels`` on the per-vrank values ``s``, written in place: a
    ``fold`` receiver holds ``op(own, received)``, a ``copy`` receiver
    the sender's value."""
    for lvl in levels:
        rcv = lvl.receivers
        s[rcv] = ([op(x, y) for x, y in zip(s[rcv], s[lvl.senders])]
                  if lvl.move == "fold" else s[lvl.senders])
    return s


def fold_values(kind: str, values: List[Any], nbytes: int,
                root: Optional[int], op: Optional[Callable]) -> List[Any]:
    """Every rank's result of reduction ``kind`` (reduce, allreduce) from
    the ranks' ``values``: ``op`` folded over the plan's levels and rounds
    as the stepped algorithm folds it, ``op(own, received)``, and a
    ``copy`` level hands the sender's value on (a reduction's rounds all
    fold).  A level or a round is one list operation over its receivers,
    as in the schedules."""
    op = _default_op(op)
    p = len(values)
    root = _root(kind, root)
    pl = plan(kind, p, nbytes)
    s = list(values)
    s = _fold_levels(_roll(s, -root) if root else s, pl.head, op)  # by vrank
    if pl.rounds:
        g = _group(s, pl.fold)
        for rnd in pl.rounds:
            arg = rnd.first
            for _ in range(rnd.count):
                if rnd.exchange:
                    g = [op(x, g[m ^ arg]) for m, x in enumerate(g)]
                else:  # from m - arg
                    g = [op(x, y) for x, y in zip(g, _roll(g, arg))]
                arg += rnd.stride
        s = _ungroup(s, g, pl.fold)
    s = _fold_levels(s, pl.tail, op)
    if kind in ROOTED:  # the root alone returns the result: vrank 0's
        out: List[Any] = [None] * p
        out[root] = s[0]
        return out
    return s  # the unrooted kinds' vranks are their ranks


#: The collective kinds; each is one :func:`plan`.
KINDS = ("bcast", "reduce", "allreduce", "allgather", "alltoall", "barrier",
         "gather", "scatter")

#: The kinds with a root; the others ignore ``root`` and run on ranks.
ROOTED = frozenset(("bcast", "reduce", "gather", "scatter"))

#: The stepped algorithm of each collective kind, all with the signature
#: ``(comm, value, nbytes, root, op)``; unrooted kinds get ``root=None``.
ALGORITHMS: Dict[str, Callable[..., Generator]] = {
    kind: partial(_stepped, kind) for kind in KINDS
}

#: Schedule functions by collective kind, all with the signature
#: ``(fabric, p, nbytes, arrivals, root=0, factors=None, wires=None)``.
SCHEDULES: Dict[str, Callable[..., Any]] = {
    kind: partial(_schedule, kind) for kind in KINDS
}

#: Smallest P whose O(P)-round schedules :func:`finish_times` runs
#: on an array: below it numpy's per-call overhead outweighs the rounds
#: it vectorizes (at P=16 a skewed alltoall takes about as long either
#: way, at P=8 the array is twice as slow, at P=64 three times faster).
ARRAY_ROUNDS_MIN_P = 32


def finish_times(kind: str, fabric: Any, nbytes: int, arrivals: List[float],
                 root: Any = 0, factors: Optional[List[float]] = None,
                 wires: Optional[_Wires] = None) -> List[float]:
    """Every rank's finish time of collective ``kind`` from its entry
    times ``arrivals``: the :data:`SCHEDULES` entry.  ``factors`` (one
    per rank) scales the reduction arithmetic of reduce and allreduce;
    ``wires``, when given, is the caller's wire table for ``fabric`` at
    this rank count.

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
    ends = SCHEDULES[kind](fabric, p, nbytes, t, root, factors, wires)
    return ends.tolist() if on_array else ends


def _many_rounds(pl: Plan, arrivals: List[float]) -> bool:
    """Whether plan ``pl`` steps O(P) rounds from ``arrivals``: a run of
    rounds (the ring, alltoall) after head levels always (the large
    bcast's scatter skews its ring), and with no head unless every rank
    arrives at once, when one scalar carries the rounds."""
    if not any(rnd.count > 1 for rnd in pl.rounds):
        return False
    return bool(pl.head) or min(arrivals) != max(arrivals)


def check_call(first: Tuple[str, int, Any], call: Tuple[str, int, Any]
               ) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless a rank's
    collective ``call``, its ``(kind, nbytes, root)``, matches ``first``,
    the first caller's of the same occurrence: MPI requires every rank
    to issue the same collectives in the same order."""
    if call != first:
        raise ConfigError(
            "mismatched collective calls: {}(nbytes={}, root={}) vs"
            " {}(nbytes={}, root={})".format(*first, *call)
        )


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
