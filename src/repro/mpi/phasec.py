"""Phase compilation: array-form max-plus recurrences over a clock vector.

:mod:`repro.mpi.compile`'s scalar replay prices a static job by resuming
one Python generator per rank per operation — O(P·ops) trampoline work
that keeps P=100k decomposition studies minutes away.  But the jobs it
recognizes are *phase-synchronous*: every rank executes the same
straight-line sequence of communication phases, so the per-rank clock
recurrences collapse into whole-vector updates.  This module lifts a
recognized rank program into that form:

1. **Lowering** (:func:`lower`).  The rank main is traced once against
   a :class:`_TraceComm` whose ``rank`` is symbolic, which stands for
   every rank that is not the root of a rooted collective.  The
   symbolic rank stays in the affine form ``rank + k`` or
   ``(rank + k) % size`` under ``±int`` and ``% size``, and as a peer
   that form is one ring offset; any other arithmetic makes it opaque
   rank-data, which is free while it is only a payload.  When the
   trace observes the rank (truthiness, indexing, conversion, hashing,
   formatting) or sinks rank-data into a compute time, size, tag, root
   or peer, lowering traces every rank concretely instead and stops at
   the first divergent stream.  Each distinct root gets one concrete
   trace of its own, which must match.  Received payloads and
   collective results are opaque sentinels that propagate through
   arithmetic but refuse observation, so any payload-dependent control
   flow aborts the lowering, and the program's static profile
   (:func:`repro.analyze.staticcheck.rank_program_profile`) rejects
   rank-dependent branches outright.  The result is a
   :class:`PhaseProgram` — a tuple of :class:`Phase` records (halo
   shift, collective, compute) with run-length ``count`` compression.

2. **Pricing** (:func:`price`).  One vectorized update per phase over a
   single clock vector of shape ``(P,)``:

   * shift       ``t' = shift_step(t, offset)``: eager
     ``max(t + ts, roll(t, o) + tp)``, rendezvous
     ``max(t, roll(t, o), roll(t, -o)) + tp``
   * collective  ``t' = SCHEDULES[kind](fabric, P, nbytes, t, root)``
   * compute     ``t' = t + seconds``

   The shift is :func:`repro.mpi.collectives.shift_step`, the same step
   the collective schedules are built from, and each collective is its
   :data:`~repro.mpi.collectives.SCHEDULES` entry, the one the replay
   prices it with.  The recurrences are the
   scalar replay's own timing equations (which are the stepped
   engine's), so pricing agrees with the replay bit for bit, and the
   equivalence suite gates exactly that (relative error 0).

3. **The clock record** (:func:`record`).  The same walk, keeping one
   :class:`Step` per repetition of a phase: the clock vector before it
   and, for a shift, each rank's receive completion and send end, from
   the float operations of :func:`shift_step`.  A traced job's spans
   are emitted from it (:func:`repro.mpi.compile.emit_trace`), byte for
   byte the traced replay's.  :func:`price` keeps no record and does no
   work for one.  A job under a tracer lowers with ``traced=True``,
   which refuses ``comm.phase``: its ``app.phase`` spans stay with the
   replay.

The clock vector is a numpy array when numpy is available, else a Python
list (:mod:`repro.perf.batch` is the gate); both containers run the same
float operations in the same order, so the numbers are identical, just
without the array speedup.  Payload movement stays on the replay path —
a vector-priced :class:`~repro.mpi.runtime.JobResult` materializes
``returns`` lazily through the scalar replay, so values remain
bit-identical to the stepped engine whenever they are actually read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.mpi.api import RankComm
from repro.mpi.collectives import (SCHEDULES, _Wires, _add_to, _roll, _wire,
                                   shift_step)
from repro.mpi.messages import ANY_SOURCE, ANY_TAG
from repro.obs.tracer import NULL_CONTEXT
from repro.perf.batch import get_numpy

__all__ = [
    "ClockRecord", "LowerFallback", "Phase", "PhaseProgram", "Step", "clocks",
    "lower", "price", "record",
]

#: Trampoline resumptions one phase costs the scalar replay, per rank —
#: a shift is isend+recv+wait.  Used for ``PhaseProgram.op_estimate``.
_OPS_PER_PHASE = {"shift": 3, "coll": 1, "compute": 1}


class LowerFallback(Exception):
    """The rank program cannot be lowered to a :class:`PhaseProgram`.

    Raised by :func:`lower` and caught by the compiled-job selection,
    which falls back to the scalar replay; user code never sees it.
    """


# ==========================================================================
# The IR
# ==========================================================================


@dataclass(frozen=True)
class Phase:
    """One communication phase, uniform across ranks.

    ``kind`` is ``"shift"`` (every rank isends to ``rank+offset`` and
    receives from ``rank-offset``, mod P), ``"coll"`` (one collective,
    named by ``coll`` with ``root`` where applicable) or ``"compute"``
    (rank-local work of ``seconds``).  ``count`` run-length-encodes
    consecutive identical phases; pricing applies the recurrence
    ``count`` times so float rounding matches the unrolled replay.
    """

    kind: str
    count: int = 1
    offset: int = 0
    nbytes: int = 0
    tag: Optional[int] = 0
    coll: str = ""
    root: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "count": self.count, "offset": self.offset,
            "nbytes": self.nbytes, "tag": self.tag, "coll": self.coll,
            "root": self.root, "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Phase":
        return cls(**d)


@dataclass(frozen=True)
class PhaseProgram:
    """A lowered job: ``n_ranks`` plus the uniform phase sequence."""

    n_ranks: int
    phases: Tuple[Phase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for ph in self.phases:
            if ph.kind not in _OPS_PER_PHASE:
                raise ValueError(f"unknown phase kind {ph.kind!r}")
            if ph.count < 1:
                raise ValueError("phase count must be >= 1")

    @property
    def op_estimate(self) -> int:
        """Trampoline resumptions the scalar replay would spend."""
        per_rank = sum(
            _OPS_PER_PHASE[ph.kind] * ph.count for ph in self.phases
        )
        return per_rank * self.n_ranks

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_ranks": self.n_ranks,
            "phases": [ph.to_dict() for ph in self.phases],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "PhaseProgram":
        return cls(
            n_ranks=d["n_ranks"],
            phases=tuple(Phase.from_dict(p) for p in d["phases"]),
        )


# ==========================================================================
# Lowering: one symbolic-rank trace with opaque payloads
# ==========================================================================


class _Opaque:
    """A value the lowering cannot know (a received payload, a reduction).

    Arithmetic and indexing propagate opacity; any *observation* —
    truthiness, comparison, conversion, iteration — aborts the lowering,
    because program behaviour would then depend on data the phase
    compiler does not model.
    """

    __slots__ = ()

    def _refuse(self, *args: Any, **kw: Any) -> Any:
        raise LowerFallback("payload-dependent control or data flow")

    def _derive(self, *args: Any, **kw: Any) -> "_Opaque":
        return _OPAQUE

    __bool__ = __len__ = __int__ = __float__ = __index__ = _refuse
    __iter__ = __contains__ = __call__ = __hash__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = _derive
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _derive
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _derive
    __pow__ = __rpow__ = __neg__ = __pos__ = __abs__ = _derive
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _derive
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = _derive
    __getitem__ = _derive

    def __getattr__(self, name: str) -> "_Opaque":
        if name.startswith("__"):
            raise AttributeError(name)
        return _OPAQUE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<opaque>"


_OPAQUE = _Opaque()


class _OpaqueList:
    """What lowering knows of a list-valued collective result: its length.

    allgather, alltoall and gather-at-root hand each rank a P-element
    list of payloads.  Lowering knows none of them, so instead of a
    P-element list of :data:`_OPAQUE` it returns this read-only stand-in
    holding only ``n``, and a trace costs the same at any P.
    A program may take its length, index or slice it, or iterate over
    it; every item is :data:`_OPAQUE`.  Anything else — mutation,
    comparison, truthiness, ``+``/``*``, hashing, a named list method —
    raises :class:`LowerFallback`, and the job prices on the exact
    scalar replay.  Dunder lookups a list does not define raise
    ``AttributeError``, as :meth:`_Opaque.__getattr__` does, so Python's
    protocols fall through normally.

    The stand-in is not a ``list`` (``type(out) is list`` is False), just
    as an opaque reduction result is not a ``float``: a program that
    branches on the result's type can lower down the wrong branch either
    way, so this adds no new kind of hazard.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return _OpaqueList(len(range(self._n)[index]))
        try:
            range(self._n)[index]
        except IndexError:
            raise IndexError("list index out of range") from None
        return _OPAQUE

    def __iter__(self) -> Any:
        return itertools.repeat(_OPAQUE, self._n)

    __reversed__ = __iter__

    def _refuse(self, *args: Any, **kw: Any) -> Any:
        raise LowerFallback("payload-dependent use of a collective's list")

    __bool__ = __contains__ = __hash__ = __setitem__ = __delitem__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __add__ = __radd__ = __iadd__ = __mul__ = __rmul__ = __imul__ = _refuse

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        raise LowerFallback(f"list method {name!r} on a collective's list")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<opaque list of {self._n}>"


class _RankObserved(BaseException):
    """The symbolic trace observed the rank: :func:`lower` traces every
    rank concretely instead.

    A ``BaseException`` so a rank program's ``except Exception`` cannot
    swallow it and carry on down a path that holds for one rank only.
    """


class _RankData:
    """A value computed from the symbolic rank, not kept affine.

    Arithmetic and comparison give rank-data again, so the value rides
    along as a payload at no cost.  Observing it — truthiness, indexing,
    conversion, hashing, iteration, formatting, a named attribute —
    raises :class:`_RankObserved`, and so does handing it to a compute
    time, size, tag, root or peer (the trace communicator's sinks).
    """

    __slots__ = ()

    def _observe(self, *args: Any, **kw: Any) -> Any:
        raise _RankObserved

    def _derive(self, *args: Any, **kw: Any) -> "_RankData":
        return _RANK_DATA

    __bool__ = __len__ = __int__ = __float__ = __index__ = _observe
    __complex__ = __round__ = __trunc__ = __floor__ = __ceil__ = _observe
    __iter__ = __contains__ = __call__ = __hash__ = _observe
    __format__ = __str__ = __repr__ = __getitem__ = _observe
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _derive
    __add__ = __radd__ = __sub__ = __rsub__ = _derive
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _derive
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _derive
    __divmod__ = __rdivmod__ = __pow__ = __rpow__ = _derive
    __neg__ = __pos__ = __abs__ = __invert__ = _derive
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _derive
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = _derive

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        raise _RankObserved


_RANK_DATA = _RankData()


class _SymRank(_RankData):
    """``comm.rank`` in the symbolic trace: ``rank + k``, or
    ``(rank + k) % size`` once ``ring``.

    ``+``/``-`` of a plain ``int`` shift ``k`` and ``% size`` wraps it
    onto the ring; every other operation gives :data:`_RANK_DATA`.  As a
    peer, a ring form, or ``rank`` itself, is the offset ``k`` on every
    rank at once.
    """

    __slots__ = ("k", "ring", "size")

    def __init__(self, k: int, ring: bool, size: int):
        self.k = k
        self.ring = ring
        self.size = size

    def __add__(self, other: Any) -> _RankData:  # type: ignore[override]
        if type(other) is not int or self.ring:
            return _RANK_DATA
        return _SymRank(self.k + other, False, self.size)

    __radd__ = __add__  # type: ignore[assignment]

    def __sub__(self, other: Any) -> _RankData:  # type: ignore[override]
        if type(other) is not int:
            return _RANK_DATA
        return self + -other

    def __mod__(self, other: Any) -> _RankData:  # type: ignore[override]
        if type(other) is not int or other != self.size:
            return _RANK_DATA
        return _SymRank(self.k % other, True, self.size)


class _TraceEnv:
    """The envelope a traced ``recv`` returns: peers are knowable, the
    payload and every timing attribute are not.  Those are the same on
    every envelope, so they are class attributes and a ``recv`` writes
    three slots."""

    __slots__ = ("source", "dest", "tag")

    nbytes = payload = post_time = done_time = _OPAQUE
    pattern = "neighbor"

    def __init__(self, source: int, dest: int, tag: Optional[int]):
        self.source = source
        self.dest = dest
        self.tag = tag if tag is not None else _OPAQUE


class _TraceRequest:
    """Handle for a traced ``isend``; only ``wait()`` is recordable."""

    __slots__ = ("_comm", "_idx")

    def __init__(self, comm: "_TraceComm", idx: int):
        self._comm = comm
        self._idx = idx

    def wait(self) -> Generator:
        self._comm.stream.append(("wait", self._idx))
        return
        yield  # pragma: no cover - makes wait() a generator

    def cancel(self) -> None:
        raise LowerFallback("cancelled request")

    @property
    def complete(self) -> bool:
        raise LowerFallback("request-completion observation")

    completed = complete


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, _RankData):
            raise _RankObserved
        raise LowerFallback(f"non-constant {what}")
    return value


class _TraceComm(RankComm):
    """One traced rank's communicator view during lowering.

    ``rank`` is an ``int`` for a concrete trace (a root, or a rank of
    the every-rank trace) and ``None`` for the symbolic one, which holds
    a :class:`_SymRank` in its place and takes the non-root side of
    every rooted collective.  Records a normalized op stream (peers as
    ring offsets) instead of moving data.  Anything the phase IR cannot
    express raises :class:`LowerFallback` — mirroring the vocabulary
    checks of :class:`repro.mpi.compile._ReplayComm`, minus everything
    that needs a clock.  An out-of-range peer or root raises the
    :class:`~repro.errors.ConfigError` every path raises.
    """

    __slots__ = ("rank", "size", "stream", "_fabric", "_n_isend", "_traced")

    rank: Any

    def __init__(self, rank: Optional[int], size: int, fabric: Any,
                 traced: bool = False):
        self.rank = _SymRank(0, False, size) if rank is None else rank
        self.size = size
        self.stream: List[Tuple[Any, ...]] = []
        self._fabric = fabric
        self._n_isend = 0
        self._traced = traced

    # ------------------------------------------------------------ plumbing

    def _offset(self, peer: Any, what: str) -> int:
        rank = self.rank
        if type(rank) is _SymRank:
            if type(peer) is _SymRank and (peer.ring or not peer.k):
                return peer.k
            _as_int(peer, what)  # refuses what is not an int on any rank
            # A constant peer, or ``rank + k`` off the ring, is a
            # different offset on each rank.
            raise _RankObserved
        peer = _as_int(peer, what)
        self._check_peer(peer)
        return (peer - rank) % self.size

    def fabric(self, peer: int) -> Any:
        return self._fabric

    @property
    def now(self) -> float:
        raise LowerFallback("clock observation")

    def phase(self, name: str, cat: str = "app.phase") -> Any:
        if self._traced:
            # A marker, not an exception: a program's ``except`` cannot
            # hide it, and :func:`lower` refuses the stream that holds it.
            self.stream.append(("phase", name))
        return NULL_CONTEXT

    # ------------------------------------------------------- point-to-point

    def send(self, *args: Any, **kw: Any) -> Generator:
        # A blocking send's deadlock semantics under rendezvous sizes
        # belong to the replay/stepped paths.
        raise LowerFallback("blocking send")

    def irecv(self, *args: Any, **kw: Any) -> Any:
        raise LowerFallback("irecv")

    def recv(self, source: Optional[int] = ANY_SOURCE,
             tag: Optional[int] = ANY_TAG, _lane: Optional[str] = None,
             timeout: Optional[float] = None, max_retries: int = 0) -> Generator:
        if timeout is not None:
            raise LowerFallback("timeout-bounded recv")
        if source is None:
            raise LowerFallback("wildcard-source recv")
        off = self._offset(source, "recv source")
        if tag is not None:
            tag = _as_int(tag, "recv tag")
        self.stream.append(("recv", off, tag))
        return _TraceEnv(source, self.rank, tag)
        yield  # pragma: no cover - makes recv() a generator

    def isend(self, dest: int, nbytes: int, tag: int = 0,
              payload: Any = None,
              pattern: str = "neighbor") -> _TraceRequest:
        if pattern != "neighbor":
            # A shift phase is priced on the neighbour wire.
            raise LowerFallback(f"{pattern}-pattern isend")
        off = self._offset(dest, "isend dest")
        nbytes = _as_int(nbytes, "message size")
        if nbytes < 0:
            raise LowerFallback("negative message size")
        tag = _as_int(tag, "isend tag")
        idx = self._n_isend
        self._n_isend += 1
        self.stream.append(("isend", off, nbytes, tag, idx))
        return _TraceRequest(self, idx)

    def sendrecv(self, dest: int, source: int, nbytes: int, tag: int = 0,
                 payload: Any = None) -> Generator:
        """:meth:`RankComm.sendrecv`'s ``isend`` + ``recv`` + ``wait`` in
        one call: the same checks in the same order, with the same
        errors, then the same three ops recorded at once.

        An in-range plain ``int`` peer takes the fast branch; anything
        else goes through :meth:`_offset`, which refuses it or, for an
        ``int`` subclass, normalizes it as ``isend``/``recv`` would.
        """
        rank, size = self.rank, self.size
        if type(dest) is int and type(rank) is int and 0 <= dest < size:
            d_off = (dest - rank) % size
        else:
            d_off = self._offset(dest, "isend dest")
        if type(nbytes) is not int:
            nbytes = _as_int(nbytes, "message size")
        if nbytes < 0:
            raise LowerFallback("negative message size")
        if type(tag) is not int:
            tag = _as_int(tag, "isend tag")
        if source is None:
            raise LowerFallback("wildcard-source recv")
        if type(source) is int and type(rank) is int and 0 <= source < size:
            s_off = (source - rank) % size
        else:
            s_off = self._offset(source, "recv source")
        idx = self._n_isend
        self._n_isend = idx + 1
        self.stream.extend(
            (("isend", d_off, nbytes, tag, idx), ("recv", s_off, tag),
             ("wait", idx))
        )
        return _TraceEnv(source, self.rank, tag)
        yield  # pragma: no cover - makes sendrecv() a generator

    # ----------------------------------------------------------- utilities

    def compute(self, seconds: float) -> Generator:
        t = type(seconds)
        if t is not float and t is not int and (
                isinstance(seconds, (_Opaque, bool))
                or not isinstance(seconds, (int, float))):
            if isinstance(seconds, _RankData):
                raise _RankObserved
            raise LowerFallback("non-constant compute time")
        if seconds < 0:
            raise LowerFallback("negative compute time")
        self.stream.append(("compute", float(seconds)))
        return None
        yield  # pragma: no cover - makes compute() a generator

    # --------------------------------------------------------- collectives

    def _collective(self, kind: str, value: Any, nbytes: Any, root: Any,
                    op: Any, deadline: Optional[float]) -> Generator:
        """Record the collective; return what lowering knows of its result.

        The result keeps the stepped algorithm's per-rank shape: the
        value at the root where one is handed back, ``None`` where the
        algorithm returns nothing, opaque data elsewhere (an
        :class:`_OpaqueList` where the result is a P-element list).  So
        an ``is None`` branch diverges between a root's trace and the
        symbolic one, which is never the root, and fails the uniformity
        check instead of lowering wrongly.
        """
        if deadline is not None:
            raise LowerFallback("deadline-bounded collective")
        at_root = type(self.rank) is int and self.rank == root
        if kind == "alltoall" or (kind == "scatter" and at_root):
            if isinstance(value, _Opaque):
                raise LowerFallback(f"opaque {kind} values")
            if (value is None and kind == "scatter") or \
                    (value is not None and len(value) != self.size):
                raise LowerFallback(f"mis-sized {kind} values")
        if type(nbytes) is not int:
            nbytes = _as_int(nbytes, "collective size")
        if nbytes < 0:
            raise LowerFallback("negative collective size")
        if root is None:
            root = 0
        elif type(root) is not int:
            root = _as_int(root, "collective root")
        self.stream.append(("coll", kind, nbytes, root))
        if kind == "barrier" or (kind in ("reduce", "gather") and not at_root):
            return None
        if kind in ("allgather", "alltoall", "gather"):
            return _OpaqueList(self.size)
        if at_root and kind in ("bcast", "scatter"):
            return value if kind == "bcast" else value[self.rank]
        return _OPAQUE
        yield  # pragma: no cover - makes _collective() a generator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rank = self.rank if type(self.rank) is int else "symbolic"
        return f"<_TraceComm rank {rank}/{self.size}>"


# ---------------------------------------------------- the static profile

#: :func:`repro.analyze.staticcheck.rank_program_profile` once imported.
#: An import statement run on every job cost price-replay ~3% of p50.
_profile: Optional[Callable[[Any], Any]] = None


def rank_program_profile(main: Any) -> Any:
    """:func:`repro.analyze.staticcheck.rank_program_profile`, imported at
    the first call, so importing the MPI stack leaves
    :mod:`repro.analyze` unloaded."""
    global _profile
    if _profile is None:
        from repro.analyze.staticcheck import rank_program_profile as profile

        _profile = profile
    return _profile(main)


# ------------------------------------------------------------ the lowering


#: The collectives whose root gets a result of another shape.
_ROOTED = frozenset(("bcast", "reduce", "gather", "scatter"))


def _trace_rank(main: Any, rank: Optional[int], size: int, fabric: Any,
                traced: bool = False) -> List[Tuple[Any, ...]]:
    """The op stream of ``main`` on ``rank``, or with ``rank=None`` on
    every rank that is not a root, traced symbolically.  ``traced``
    records each ``comm.phase`` as a ``("phase", name)`` marker."""
    comm = _TraceComm(rank, size, fabric, traced)
    gen = main(comm)
    if not hasattr(gen, "send"):
        raise LowerFallback("rank main is not a generator")
    try:
        cmd = next(gen)
    except StopIteration:
        return comm.stream
    raise LowerFallback(
        f"unsupported engine command: {type(cmd).__name__}"
    )


def _trace_every_rank(main: Any, size: int, fabric: Any,
                      traced: bool = False) -> List[Tuple[Any, ...]]:
    """Rank 0's op stream, once every rank has traced to the same one."""
    base = _trace_rank(main, 0, size, fabric, traced)
    for rank in range(1, size):
        if _trace_rank(main, rank, size, fabric, traced) != base:
            raise LowerFallback("rank-divergent op stream")
    return base


def _assemble(stream: List[Tuple[Any, ...]], p: int) -> Tuple[Phase, ...]:
    """Fold the canonical op stream into phases (shift triples, colls,
    computes) with run-length compression.

    Each phase is first a tuple of :class:`Phase`'s fields but ``count``,
    in declaration order, so a run extends by comparing two tuples.
    """
    runs: List[List[Any]] = []  # [fields, count]
    i, n = 0, len(stream)
    while i < n:
        op = stream[i]
        kind = op[0]
        if kind == "isend":
            _, d_off, nbytes, stag, idx = op
            nxt = stream[i + 1] if i + 1 < n else None
            wt = stream[i + 2] if i + 2 < n else None
            if nxt is None or nxt[0] != "recv" or wt != ("wait", idx):
                raise LowerFallback("isend outside a shift triple")
            _, s_off, rtag = nxt
            if (d_off + s_off) % p != 0:
                raise LowerFallback("shift peers are not one ring offset")
            if rtag is not None and rtag != stag:
                raise LowerFallback("shift tags do not match")
            fields = ("shift", d_off, nbytes, stag, "", 0, 0.0)
            i += 3
        elif kind == "compute":
            fields = ("compute", 0, 0, 0, "", 0, op[1])
            i += 1
        elif kind == "coll":
            _, ckind, nbytes, root = op
            fields = ("coll", 0, nbytes, 0, ckind, root, 0.0)
            i += 1
        else:  # a recv or wait that no isend claimed
            raise LowerFallback(f"{kind} outside a shift triple")
        if runs and runs[-1][0] == fields:
            runs[-1][1] += 1
        else:
            runs.append([fields, 1])
    return tuple(Phase(f[0], count, *f[1:]) for f, count in runs)


def lower(main: Any, n_ranks: int, fabric: Any = None,
          traced: bool = False) -> PhaseProgram:
    """Lower rank program ``main`` to a :class:`PhaseProgram`.

    One symbolic trace stands for every rank that is not a root; each
    distinct root of a rooted collective adds one concrete trace, which
    must record the same stream.  A trace that observes the rank (or
    sinks a value computed from it into a time, size, tag, root or
    peer) is redone concretely on every rank, up to the first that
    diverges, so lowering is exact at any P and costs O(P) only then.

    Raises :class:`LowerFallback` when the program is not expressible —
    payload-dependent flow, rank-dependent branches, op streams that
    differ between ranks, or any construct outside the
    shift/collective/compute vocabulary.  ``fabric`` is only handed back
    to programs that call ``comm.fabric(...)`` for constants; lowering
    itself is fabric-independent.

    ``traced`` lowers for a job under a tracer, whose trace the phase
    program must reproduce.  It refuses a program that opens
    ``comm.phase(...)``: the program carries no record of where its
    ``app.phase`` spans open and close, so such a job keeps the traced
    replay.  Without ``traced`` a phase is free and lowers as before.
    """
    if n_ranks < 2:
        raise LowerFallback("trivial job (P < 2)")
    profile = rank_program_profile(main)
    if profile.unknown:
        raise LowerFallback("source unavailable")
    if profile.rank_dependent_flow:
        # A branch on the rank almost always makes the streams diverge;
        # refusing it here spares the every-rank trace.
        raise LowerFallback("rank-dependent control flow")
    try:
        stream = _trace_rank(main, None, n_ranks, fabric, traced)
    except LowerFallback:
        raise
    except (_RankObserved, Exception):
        # Exception too: a symbolic rank can fail where an int does not
        # (an operator it lacks), and the concrete traces re-raise any
        # error the program really makes.
        stream = _trace_every_rank(main, n_ranks, fabric, traced)
    else:
        roots = {op[3] for op in stream if op[0] == "coll" and op[1] in _ROOTED}
        for root in sorted(roots):
            if _trace_rank(main, root, n_ranks, fabric, traced) != stream:
                raise LowerFallback("rank-divergent op stream")
    if traced and any(op[0] == "phase" for op in stream):
        raise LowerFallback("comm.phase under a tracer")
    return PhaseProgram(n_ranks=n_ranks, phases=_assemble(stream, n_ranks))


# ==========================================================================
# Pricing: one vectorized update per phase
# ==========================================================================


class Step:
    """One priced repetition of a phase: the clock vector ``before`` it
    and, for a shift, each rank's receive completion (``recv_done``)
    and send end (``send_done``: an eager send's ``ready``, a rendezvous
    send's receiver's completion).  A phase of ``count`` n is n steps.

    Plain slotted classes, here and in :class:`ClockRecord`: a
    dataclass costs every importer of the MPI stack a millisecond or
    more to build."""

    __slots__ = ("phase", "before", "recv_done", "send_done")

    def __init__(self, phase: Phase, before: Any, recv_done: Any = None,
                 send_done: Any = None):
        self.phase = phase
        self.before = before
        self.recv_done = recv_done
        self.send_done = send_done


class ClockRecord:
    """A priced job's clocks, step by step (:func:`record`).

    O(P) floats per step.  The vectors are the pricing walk's own, so
    ``finish`` is bit-equal to :func:`clocks` and ``elapsed`` to
    :func:`price`.  Nothing recorded is written after it is recorded.
    """

    __slots__ = ("program", "steps", "finish")

    def __init__(self, program: PhaseProgram, steps: Tuple[Step, ...],
                 finish: Any):
        self.program = program
        self.steps = steps
        self.finish = finish

    @property
    def elapsed(self) -> float:
        return _elapsed(self.finish)


def _shift_record(ph: Phase, t: Any, tp: float, ts: float,
                  eager: bool) -> Step:
    """The shift step from ``t`` as the replay takes it apart: the
    receive completes at eager ``max(t, roll(t, o) + tp)`` or rendezvous
    ``max(t, roll(t, o)) + tp``, the send ends at eager ``t + ts`` or
    at its receiver's completion.  These are :func:`shift_step`'s own
    float operations; its ``max`` of the two ends is the clock after."""
    left = _roll(t, ph.offset)
    if isinstance(t, list):
        if eager:
            recv = [max(a, b + tp) for a, b in zip(t, left)]
            return Step(ph, t, recv, [a + ts for a in t])
        recv = [max(a, b) + tp for a, b in zip(t, left)]
    else:
        np = get_numpy()
        if eager:
            recv = np.maximum(t, np.add(left, tp, out=left), out=left)
            return Step(ph, t, recv, t + ts)
        recv = np.add(np.maximum(t, left, out=left), tp, out=left)
    return Step(ph, t, recv, _roll(recv, -ph.offset))


def _clocks_raw(program: PhaseProgram, fabric: Any,
                steps: Optional[List[Step]] = None) -> Any:
    """Finish clocks as an ndarray when numpy is importable, else as a
    list; the loop is the same for both.  With ``steps`` each
    repetition also appends its :class:`Step`, and a compute writes a
    copy instead of the recorded vector."""
    np = get_numpy()
    p = program.n_ranks
    t = [0.0] * p if np is None else np.zeros(p, dtype=float)
    wires = _Wires(fabric, p)
    for ph in program.phases:
        if ph.kind == "shift":
            tp, ts, eager = _wire(fabric, ph.nbytes)
            for _ in range(ph.count):
                if steps is not None:
                    steps.append(_shift_record(ph, t, tp, ts, eager))
                t = shift_step(t, ph.offset, tp, ts, eager)
        elif ph.kind == "compute":
            for _ in range(ph.count):
                if steps is not None:
                    steps.append(Step(ph, t))
                    t = t.copy()
                t = _add_to(t, ph.seconds)
        else:
            for _ in range(ph.count):
                if steps is not None:
                    steps.append(Step(ph, t))
                t = SCHEDULES[ph.coll](fabric, p, ph.nbytes, t, ph.root,
                                       wires=wires)
    return t


def _elapsed(t: Any) -> float:
    return max(t) if isinstance(t, list) else float(t.max())


def clocks(program: PhaseProgram, fabric: Any) -> List[float]:
    """Per-rank finish clocks of ``program`` on ``fabric``.

    The clock vector is an array when numpy is installed and a list
    otherwise; both containers evaluate the identical float operations
    in the identical order, so their outputs are bit-equal.
    """
    t = _clocks_raw(program, fabric)
    return t if isinstance(t, list) else t.tolist()


def price(program: PhaseProgram, fabric: Any) -> float:
    """Elapsed simulated seconds of ``program`` on ``fabric``.

    Equals ``max`` of :func:`clocks`; the eager isend sender-side timers
    the replay folds into its horizon are always dominated by the
    matching wait's clamp, so the clock maximum is the job's elapsed
    time exactly.
    """
    return _elapsed(_clocks_raw(program, fabric))


def record(program: PhaseProgram, fabric: Any) -> ClockRecord:
    """:func:`price`'s walk, keeping every step's clocks: the record a
    traced job's spans are emitted from
    (:func:`repro.mpi.compile.emit_trace`)."""
    steps: List[Step] = []
    finish = _clocks_raw(program, fabric, steps)
    return ClockRecord(program, tuple(steps), finish)
