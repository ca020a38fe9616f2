"""Phase compilation: array-form max-plus recurrences over a clock vector.

:mod:`repro.mpi.compile`'s scalar replay prices a static job by resuming
one Python generator per rank per operation — O(P·ops) trampoline work
that keeps P=100k decomposition studies minutes away.  But the jobs it
recognizes are *phase-synchronous*: every rank executes the same
straight-line sequence of communication phases, so the per-rank clock
recurrences collapse into whole-vector updates.  This module lifts a
recognized rank program into that form:

1. **Lowering** (:func:`lower`).  The rank main is traced against a
   :class:`_TraceComm` on a handful of probe ranks.  Received payloads
   and collective results are opaque sentinels that propagate through
   arithmetic but refuse observation, so any payload-dependent control
   flow aborts the lowering; a static AST veto rejects rank-dependent
   branches outright, and the probe streams must agree op for op once
   peers are normalized to ring offsets.  The result is a
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
   :data:`~repro.mpi.collectives.SCHEDULES` entry, the one the fast path
   and the replay price it with.  The recurrences are the
   scalar replay's own timing equations (which are the stepped
   engine's), so pricing agrees with the replay bit for bit — the
   equivalence suite gates 1e-9 but observes 0.

The clock vector is a numpy array when numpy is available, else a Python
list (:mod:`repro.perf.batch` is the gate); both containers run the same
float operations in the same order, so the numbers are identical, just
without the array speedup.  Payload movement stays on the replay path —
a vector-priced :class:`~repro.mpi.runtime.JobResult` materializes
``returns`` lazily through the scalar replay, so values remain
bit-identical to the stepped engine whenever they are actually read.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.mpi.api import RankComm
from repro.mpi.collectives import SCHEDULES, _add_to, _wire, shift_step
from repro.mpi.messages import ANY_SOURCE, ANY_TAG
from repro.obs.tracer import NULL_CONTEXT
from repro.perf.batch import HAVE_NUMPY, get_numpy, warn_scalar_fallback

__all__ = ["LowerFallback", "Phase", "PhaseProgram", "clocks", "lower", "price"]

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
# Lowering: probe-rank tracing with opaque payloads
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


class _TraceEnv:
    """The envelope a traced ``recv`` returns: peers are knowable, the
    payload and every timing attribute are not."""

    __slots__ = ("source", "dest", "tag", "nbytes", "payload", "post_time",
                 "done_time", "pattern")

    def __init__(self, source: int, dest: int, tag: Optional[int]):
        self.source = source
        self.dest = dest
        self.tag = tag if tag is not None else _OPAQUE
        self.nbytes = _OPAQUE
        self.payload = _OPAQUE
        self.post_time = _OPAQUE
        self.done_time = _OPAQUE
        self.pattern = "neighbor"


class _TraceRequest:
    """Handle for a traced ``isend``; only ``wait()`` is recordable."""

    __slots__ = ("_comm", "_idx")

    def __init__(self, comm: "_TraceComm", idx: int):
        self._comm = comm
        self._idx = idx

    def wait(self) -> Generator:
        self._comm._record(("wait", self._idx))
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
        raise LowerFallback(f"non-constant {what}")
    return value


class _TraceComm(RankComm):
    """One probe rank's communicator view during lowering.

    Records a normalized op stream (peers as ring offsets) instead of
    moving data.  Anything the phase IR cannot express raises
    :class:`LowerFallback` — mirroring the vocabulary checks of
    :class:`repro.mpi.compile._ReplayComm`, minus everything that needs
    a clock.  An out-of-range peer or root raises the
    :class:`~repro.errors.ConfigError` every path raises.
    """

    __slots__ = ("rank", "size", "stream", "_fabric", "_n_isend")

    def __init__(self, rank: int, size: int, fabric: Any):
        self.rank = rank
        self.size = size
        self.stream: List[Tuple[Any, ...]] = []
        self._fabric = fabric
        self._n_isend = 0

    # ------------------------------------------------------------ plumbing

    def _record(self, op: Tuple[Any, ...]) -> None:
        self.stream.append(op)

    def _offset(self, peer: Any, what: str) -> int:
        peer = _as_int(peer, what)
        self._check_peer(peer)
        return (peer - self.rank) % self.size

    def fabric(self, peer: int) -> Any:
        return self._fabric

    @property
    def now(self) -> float:
        raise LowerFallback("clock observation")

    def phase(self, name: str, cat: str = "app.phase") -> Any:
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
        self._record(("recv", off, tag))
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
        self._record(("isend", off, nbytes, tag, idx))
        return _TraceRequest(self, idx)

    # ----------------------------------------------------------- utilities

    def compute(self, seconds: float) -> Generator:
        if isinstance(seconds, _Opaque) or isinstance(seconds, bool) or \
                not isinstance(seconds, (int, float)):
            raise LowerFallback("non-constant compute time")
        if seconds < 0:
            raise LowerFallback("negative compute time")
        self._record(("compute", float(seconds)))
        return None
        yield  # pragma: no cover - makes compute() a generator

    # --------------------------------------------------------- collectives

    def _collective(self, kind: str, value: Any, nbytes: Any, root: Any,
                    op: Any, deadline: Optional[float]) -> Generator:
        """Record the collective; return what lowering knows of its result.

        The result keeps the stepped algorithm's per-rank shape: the
        value at the root where one is handed back, ``None`` where the
        algorithm returns nothing, opaque data elsewhere.  So an ``is
        None`` branch diverges across probes and fails the uniformity
        check instead of lowering wrongly.
        """
        if deadline is not None:
            raise LowerFallback("deadline-bounded collective")
        at_root = self.rank == root
        if kind == "alltoall" or (kind == "scatter" and at_root):
            if isinstance(value, _Opaque):
                raise LowerFallback(f"opaque {kind} values")
            if (value is None and kind == "scatter") or \
                    (value is not None and len(value) != self.size):
                raise LowerFallback(f"mis-sized {kind} values")
        nbytes = _as_int(nbytes, "collective size")
        if nbytes < 0:
            raise LowerFallback("negative collective size")
        root = 0 if root is None else _as_int(root, "collective root")
        self._record(("coll", kind, nbytes, root))
        if kind == "barrier" or (kind in ("reduce", "gather") and not at_root):
            return None
        if kind in ("allgather", "alltoall", "gather"):
            return [_OPAQUE] * self.size
        if at_root and kind in ("bcast", "scatter"):
            return value if kind == "bcast" else value[self.rank]
        return _OPAQUE
        yield  # pragma: no cover - makes _collective() a generator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<_TraceComm rank {self.rank}/{self.size}>"


# ------------------------------------------------------- static rank veto


def _unwrap(main: Any) -> Any:
    """The function whose source ``main`` runs: through partials, bound
    methods and ``__wrapped__`` decorators, as ``inspect.getsource``
    reads it."""
    fn = main
    while isinstance(fn, functools.partial):
        fn = fn.func
    return inspect.unwrap(getattr(fn, "__func__", fn))


def _mentions_rank(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "rank":
            return True
        if isinstance(sub, ast.Name) and sub.id == "rank":
            return True
    return False


def _static_veto(main: Any) -> Optional[str]:
    """Reject rank-dependent control flow the probe set could miss.

    Probe tracing only samples a few ranks; a branch like
    ``if comm.rank == 17`` diverges on exactly one.  Any ``rank``
    mention inside a branch test or loop source is therefore a veto.
    The scan covers the main's own source; divergence hidden in helper
    calls is still caught whenever a probe rank exercises it, and the
    scalar replay remains the authority for everything refused here.
    The verdict depends only on the source, so it is memoized on the
    unwrapped function's code object; a callable without one is
    scanned every time.
    """
    try:
        fn = _unwrap(main)
    except ValueError:  # a __wrapped__ cycle
        return "source unavailable"
    code = getattr(fn, "__code__", None)
    if code is None:
        return _scan_source(fn)
    return _code_veto(code, code.co_filename)


@functools.lru_cache(maxsize=256)
def _code_veto(code: Any, filename: str) -> Optional[str]:
    """:func:`_scan_source` of ``code``; ``filename`` keys the memo too,
    since code objects compare equal across files."""
    return _scan_source(code)


def _scan_source(obj: Any) -> Optional[str]:
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    except (OSError, TypeError, ValueError, SyntaxError, IndentationError):
        return "source unavailable"
    for node in ast.walk(tree):
        tests: List[ast.AST] = []
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            tests.append(node.test)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            tests.append(node.iter)
        elif isinstance(node, ast.comprehension):
            tests.append(node.iter)
            tests.extend(node.ifs)
        elif isinstance(node, ast.Match):
            tests.append(node.subject)
        for t in tests:
            if _mentions_rank(t):
                return "rank-dependent control flow"
    return None


# ------------------------------------------------------------ the lowering


def _probe_ranks(p: int) -> List[int]:
    """Boundary-heavy probe sample: small ranks, the middle, the top end
    and power-of-two edges — where tree/fold algorithms change shape."""
    if p <= 32:
        return list(range(p))
    probes = {0, 1, 2, 3, p // 2 - 1, p // 2, p // 2 + 1, p - 3, p - 2, p - 1}
    k = 4
    while k < p:
        probes.add(k - 1)
        probes.add(k)
        k <<= 1
    return sorted(r for r in probes if 0 <= r < p)


def _trace_rank(main: Any, rank: int, size: int,
                fabric: Any) -> List[Tuple[Any, ...]]:
    comm = _TraceComm(rank, size, fabric)
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


def _assemble(stream: List[Tuple[Any, ...]], p: int) -> Tuple[Phase, ...]:
    """Fold the canonical op stream into phases (shift triples, colls,
    computes) with run-length compression."""
    phases: List[Phase] = []
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
            phases.append(
                Phase(kind="shift", offset=d_off, nbytes=nbytes, tag=stag)
            )
            i += 3
        elif kind == "compute":
            phases.append(Phase(kind="compute", seconds=op[1]))
            i += 1
        elif kind == "coll":
            _, ckind, nbytes, root = op
            phases.append(
                Phase(kind="coll", coll=ckind, nbytes=nbytes, root=root)
            )
            i += 1
        else:  # a recv or wait that no isend claimed
            raise LowerFallback(f"{kind} outside a shift triple")
    out: List[Phase] = []
    for ph in phases:
        if out and replace(out[-1], count=1) == ph:
            out[-1] = replace(out[-1], count=out[-1].count + 1)
        else:
            out.append(ph)
    return tuple(out)


def lower(main: Any, n_ranks: int, fabric: Any = None) -> PhaseProgram:
    """Lower rank program ``main`` to a :class:`PhaseProgram`.

    Raises :class:`LowerFallback` when the program is not expressible —
    payload-dependent flow, rank-dependent branches, non-uniform op
    streams across the probe ranks, or any construct outside the
    shift/collective/compute vocabulary.  ``fabric`` is only handed back
    to programs that call ``comm.fabric(...)`` for constants; lowering
    itself is fabric-independent.
    """
    if n_ranks < 2:
        raise LowerFallback("trivial job (P < 2)")
    veto = _static_veto(main)
    if veto is not None:
        raise LowerFallback(veto)
    probes = _probe_ranks(n_ranks)
    base = _trace_rank(main, probes[0], n_ranks, fabric)
    roots = {op[3] for op in base if op[0] == "coll"}
    for extra in sorted(roots - set(probes)):
        probes.append(extra)
    for rank in probes[1:]:
        if _trace_rank(main, rank, n_ranks, fabric) != base:
            raise LowerFallback("rank-divergent op stream")
    return PhaseProgram(n_ranks=n_ranks, phases=_assemble(base, n_ranks))


# ==========================================================================
# Pricing: one vectorized update per phase
# ==========================================================================


def _clocks_raw(program: PhaseProgram, fabric: Any,
                use_numpy: Optional[bool]) -> Any:
    """Finish clocks as a list, or as an ndarray when ``use_numpy`` asks
    for numpy and it is importable; the loop is the same for both."""
    if use_numpy is None:
        use_numpy = HAVE_NUMPY
    np = get_numpy() if use_numpy else None
    if use_numpy and np is None:
        warn_scalar_fallback("phase-compiled job pricing")
    p = program.n_ranks
    t = [0.0] * p if np is None else np.zeros(p, dtype=float)
    for ph in program.phases:
        if ph.kind == "shift":
            tp, ts, eager = _wire(fabric, ph.nbytes)
            for _ in range(ph.count):
                t = shift_step(t, ph.offset, tp, ts, eager)
        elif ph.kind == "compute":
            for _ in range(ph.count):
                t = _add_to(t, ph.seconds)
        else:
            for _ in range(ph.count):
                t = SCHEDULES[ph.coll](fabric, p, ph.nbytes, t, ph.root)
    return t


def clocks(program: PhaseProgram, fabric: Any,
           use_numpy: Optional[bool] = None) -> List[float]:
    """Per-rank finish clocks of ``program`` on ``fabric``.

    ``use_numpy=None`` picks the array backend when numpy is installed;
    ``True`` demands it (warning and degrading to the scalar backend
    when it is absent); ``False`` forces the scalar backend.  Both
    backends evaluate the identical float operations in the identical
    order, so their outputs are bit-equal.
    """
    t = _clocks_raw(program, fabric, use_numpy)
    return t if isinstance(t, list) else t.tolist()


def price(program: PhaseProgram, fabric: Any,
          use_numpy: Optional[bool] = None) -> float:
    """Elapsed simulated seconds of ``program`` on ``fabric``.

    Equals ``max`` of :func:`clocks`; the eager isend sender-side timers
    the replay folds into its horizon are always dominated by the
    matching wait's clamp, so the clock maximum is the job's elapsed
    time exactly.
    """
    t = _clocks_raw(program, fabric, use_numpy)
    return max(t) if isinstance(t, list) else float(t.max())
