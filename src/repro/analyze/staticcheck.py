"""Static AST lint for simulated-MPI rank programs.

The checker inspects every function that drives a
:class:`~repro.mpi.api.Communicator` — structurally, any function whose
body calls MPI methods on a receiver named ``comm`` (a parameter, a
local, or an attribute like ``self.comm``).  It is deliberately
*structural*: no imports are executed, so it runs on broken programs and
in dependency-free CI jobs.

Diagnostics carry stable codes:

=======  ==================================================================
RPA001   non-blocking request dropped or never ``wait()``-ed
RPA002   collective kind/order differs across ``rank ==`` branches
RPA003   send with no structurally matching receive (tag/peer mismatch)
RPA004   receive loop bound differs from the matching send loop bound
RPA005   blocking send cycle between rank branches (rendezvous deadlock)
RPA006   MPI generator method called without ``yield from``
=======  ==================================================================

Every check is conservative: when tags, peers, or loop bounds are not
literals, the checker stays silent rather than guess.  The test suite
pins zero false positives on ``examples/`` and the bundled NPB MPI
kernels.
"""

from __future__ import annotations

import ast
import functools
import inspect
import os
import textwrap
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Diagnostic codes and their one-line summaries (see docs/ANALYSIS.md).
CODES: Dict[str, str] = {
    "RPA001": "non-blocking request dropped or never wait()ed",
    "RPA002": "collective sequence diverges across rank branches",
    "RPA003": "send with no structurally matching recv",
    "RPA004": "send/recv loop bounds differ",
    "RPA005": "blocking send cycle between rank branches",
    "RPA006": "MPI generator method called without 'yield from'",
}

#: Blocking point-to-point generator methods.
P2P_BLOCKING = frozenset({"send", "recv", "sendrecv"})
#: Non-blocking methods returning a Request (not generators).
NONBLOCKING = frozenset({"isend", "irecv"})
#: Collective generator methods.
COLLECTIVES = frozenset(
    {
        "bcast",
        "reduce",
        "allreduce",
        "allgather",
        "alltoall",
        "gather",
        "scatter",
        "barrier",
    }
)
#: Methods that must be driven with ``yield from``.
GENERATOR_METHODS = P2P_BLOCKING | COLLECTIVES | {"compute"}
#: Everything the checker recognizes as an MPI call.
MPI_METHODS = GENERATOR_METHODS | NONBLOCKING


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, location, message, and a fix hint."""

    code: str
    message: str
    hint: str
    file: str
    line: int
    col: int = 0

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def render(self) -> str:
        return (
            f"{self.file}:{self.line}:{self.col}: {self.code} {self.message}\n"
            f"    hint: {self.hint}"
        )

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across unrelated line-number drift."""
        return (self.code, self.file, self.message)


def _is_comm(node: ast.expr) -> bool:
    """Does this expression look like a Communicator receiver?

    Recognized: a name ``comm`` (parameter or local) and any attribute
    chain ending in ``.comm`` (``self.comm``, ``job.comm``).
    """
    if isinstance(node, ast.Name):
        return node.id == "comm"
    if isinstance(node, ast.Attribute):
        return node.attr == "comm"
    return False


def _mpi_call(node: ast.AST) -> Optional[str]:
    """The MPI method name if ``node`` is a call on a communicator."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MPI_METHODS
        and _is_comm(node.func.value)
    ):
        return node.func.attr
    return None


def _int_literal(node: Optional[ast.expr]) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


def _call_arg(
    call: ast.Call, name: str, pos: Optional[int] = None
) -> Optional[ast.expr]:
    """Positional-or-keyword argument lookup on a call node."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if pos is not None and pos < len(call.args):
        return call.args[pos]
    return None


#: Sentinel for "wildcard" (omitted / ANY_SOURCE / ANY_TAG / None) values.
_WILD = object()


def _peer_or_tag(call: ast.Call, name: str, pos: Optional[int], default):
    """Literal value of a peer/tag argument, ``_WILD`` for wildcards, or
    ``None`` when the expression is not statically known."""
    node = _call_arg(call, name, pos)
    if node is None:
        return default
    if isinstance(node, ast.Constant) and node.value is None:
        return _WILD
    if isinstance(node, ast.Name) and node.id in ("ANY_SOURCE", "ANY_TAG"):
        return _WILD
    lit = _int_literal(node)
    return lit  # None -> dynamic expression, unknown


def _mentions_rank(node: ast.AST) -> bool:
    """Does this expression depend on the rank identity?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "rank":
            return True
        if isinstance(sub, ast.Name) and sub.id == "rank":
            return True
    return False


class _Parents(ast.NodeVisitor):
    """Parent map for yield-from context checks."""

    def __init__(self) -> None:
        self.parent: Dict[ast.AST, ast.AST] = {}

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.parent[child] = node
        super().generic_visit(node)


@dataclass
class _Op:
    """One point-to-point operation found in a rank function."""

    kind: str  # "send" | "recv"
    blocking: bool
    peer: object  # int literal, _WILD, or None (unknown)
    tag: object  # int literal, _WILD, or None (unknown)
    branch: object  # int literal rank, "_else_", or None (unbranched)
    line: int
    col: int
    loop_bound: Optional[int] = None  # enclosing ``range(N)`` literal


_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class _FunctionCheck:
    """All per-function checks over one rank function's subtree."""

    def __init__(self, func: _FuncDef, filename: str) -> None:
        self.func = func
        self.filename = filename
        self.diags: List[Diagnostic] = []
        self.parents = _Parents()
        self.parents.visit(func)

    # ------------------------------------------------------------ utils

    def _add(
        self, code: str, node: Union[ast.AST, "_Loc"], message: str, hint: str
    ) -> None:
        self.diags.append(
            Diagnostic(
                code=code,
                message=message,
                hint=hint,
                file=self.filename,
                line=getattr(node, "lineno", self.func.lineno),
                col=getattr(node, "col_offset", 0),
            )
        )

    def _parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.parent.get(node)

    def run(self) -> List[Diagnostic]:
        self._check_yield_from()
        self._check_requests()
        self._check_collective_divergence()
        ops = self._collect_ops()
        self._check_send_matching(ops)
        self._check_loop_bounds(ops)
        self._check_send_cycles()
        return self.diags

    # ------------------------------------------------- RPA006 yield from

    def _check_yield_from(self) -> None:
        request_names = self._request_names()
        for node in ast.walk(self.func):
            if not isinstance(node, ast.Call):
                continue
            method = _mpi_call(node)
            parent = self._parent(node)
            if method in GENERATOR_METHODS and not isinstance(parent, ast.YieldFrom):
                if isinstance(parent, ast.Yield):
                    hint = (
                        f"'yield comm.{method}(...)' hands the generator "
                        "object to the engine; use 'yield from'"
                    )
                else:
                    hint = (
                        f"comm.{method}() is a generator method; nothing "
                        f"runs until it is driven: use "
                        f"'yield from comm.{method}(...)'"
                    )
                self._add(
                    "RPA006",
                    node,
                    f"comm.{method}() called without 'yield from'",
                    hint,
                )
            elif method in NONBLOCKING and isinstance(parent, ast.YieldFrom):
                self._add(
                    "RPA006",
                    node,
                    f"comm.{method}() is not a generator method",
                    f"call comm.{method}(...) directly and drive the "
                    "returned request with 'yield from req.wait()'",
                )
            elif (
                method is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wait"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in request_names
                and not isinstance(parent, ast.YieldFrom)
            ):
                self._add(
                    "RPA006",
                    node,
                    f"{node.func.value.id}.wait() called without 'yield from'",
                    "Request.wait() is a generator method: "
                    f"'yield from {node.func.value.id}.wait()'",
                )

    # --------------------------------------------------- RPA001 requests

    def _request_names(self) -> Dict[str, ast.Call]:
        """Names bound (solely) from ``comm.isend``/``comm.irecv`` calls."""
        names: Dict[str, ast.Call] = {}
        for node in ast.walk(self.func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _mpi_call(node.value) in NONBLOCKING
            ):
                names[node.targets[0].id] = node.value  # type: ignore[assignment]
        return names

    def _check_requests(self) -> None:
        bound = self._request_names()
        consumed: Dict[str, bool] = {name: False for name in bound}
        for node in ast.walk(self.func):
            # A bare ``comm.isend(...)`` statement drops the request.
            if isinstance(node, ast.Expr):
                method = _mpi_call(node.value)
                if method in NONBLOCKING:
                    self._add(
                        "RPA001",
                        node,
                        f"comm.{method}() request dropped",
                        "bind the returned Request and complete it with "
                        "'yield from req.wait()'",
                    )
            # Any use of a request name beyond its own binding counts.
            if isinstance(node, ast.Name) and node.id in consumed:
                parent = self._parent(node)
                if isinstance(parent, ast.Assign) and node in parent.targets:
                    continue  # the binding itself
                consumed[node.id] = True
        for name, call in bound.items():
            if not consumed[name]:
                method = _mpi_call(call)
                self._add(
                    "RPA001",
                    call,
                    f"request {name!r} from comm.{method}() is never "
                    "wait()ed or used",
                    f"complete it with 'yield from {name}.wait()' (or "
                    f"{name}.cancel() to abandon it deliberately)",
                )

    # ------------------------------------------- RPA002 collective order

    def _collective_signature(self, body: Sequence[ast.stmt]) -> List[str]:
        sig: List[str] = []
        for stmt in body:
            for node in ast.walk(stmt):
                method = _mpi_call(node)
                if method in COLLECTIVES:
                    assert isinstance(node, ast.Call)
                    root = _peer_or_tag(node, "root", None, 0)
                    if method in ("bcast", "reduce", "gather", "scatter") and (
                        isinstance(root, int)
                    ):
                        sig.append(f"{method}(root={root})")
                    else:
                        sig.append(method)  # type: ignore[arg-type]
        return sig

    def _check_collective_divergence(self) -> None:
        for node in ast.walk(self.func):
            if not isinstance(node, ast.If) or not _mentions_rank(node.test):
                continue
            # Skip elif arms: the outermost If of a chain covers them.
            parent = self._parent(node)
            if isinstance(parent, ast.If) and node in parent.orelse:
                continue
            arms: List[Tuple[ast.stmt, List[str]]] = []
            current: Optional[ast.If] = node
            while True:
                arms.append((current, self._collective_signature(current.body)))
                orelse = current.orelse
                if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                    current = orelse[0]
                    continue
                arms.append((orelse[0] if orelse else node,
                             self._collective_signature(orelse)))
                break
            signatures = [sig for _node, sig in arms]
            if all(not sig for sig in signatures):
                return_diverge = False
            else:
                return_diverge = any(sig != signatures[0] for sig in signatures)
            if return_diverge:
                rendered = " vs ".join(
                    "[" + ", ".join(sig) + "]" for sig in signatures
                )
                self._add(
                    "RPA002",
                    node,
                    f"collective sequence diverges across rank branches: "
                    f"{rendered}",
                    "every rank must call the same collectives in the same "
                    "order; hoist the collective out of the rank branch or "
                    "add the missing call to the other branch(es)",
                )

    # ---------------------------------------------- op collection (3/4)

    def _branch_of(self, node: ast.AST) -> object:
        """The rank literal guarding ``node``, ``"_else_"``, or ``None``."""
        child = node
        parent = self._parent(child)
        while parent is not None and parent is not self.func:
            if isinstance(parent, ast.If) and _mentions_rank(parent.test):
                in_body = any(
                    child is stmt or _contains(stmt, child)
                    for stmt in parent.body
                )
                rank = self._branch_rank_literal(parent.test)
                if in_body and rank is not None:
                    return rank
                return "_else_"
            child, parent = parent, self._parent(parent)
        return None

    @staticmethod
    def _branch_rank_literal(test: ast.expr) -> Optional[int]:
        """``K`` from a ``rank == K`` test, else ``None``."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
        ):
            left, right = test.left, test.comparators[0]
            for a, b in ((left, right), (right, left)):
                is_rank = (isinstance(a, ast.Attribute) and a.attr == "rank") or (
                    isinstance(a, ast.Name) and a.id == "rank"
                )
                lit = _int_literal(b)
                if is_rank and lit is not None:
                    return lit
        return None

    def _loop_bound_of(self, node: ast.AST) -> Optional[int]:
        """Literal ``range(N)`` bound of the innermost enclosing for loop."""
        child = node
        parent = self._parent(child)
        while parent is not None and parent is not self.func:
            if isinstance(parent, ast.For):
                it = parent.iter
                if (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id == "range"
                    and len(it.args) == 1
                ):
                    return _int_literal(it.args[0])
                return None
            child, parent = parent, self._parent(parent)
        return None

    def _collect_ops(self) -> List[_Op]:
        ops: List[_Op] = []
        for node in ast.walk(self.func):
            method = _mpi_call(node)
            if method is None or method in COLLECTIVES or method == "compute":
                continue
            assert isinstance(node, ast.Call)
            branch = self._branch_of(node)
            bound = self._loop_bound_of(node)
            line, col = node.lineno, node.col_offset

            def op(kind: str, peer, tag, blocking: bool) -> _Op:
                return _Op(kind, blocking, peer, tag, branch, line, col, bound)

            if method in ("send", "isend"):
                ops.append(
                    op(
                        "send",
                        _peer_or_tag(node, "dest", 0, None),
                        _peer_or_tag(node, "tag", 2, 0),
                        method == "send",
                    )
                )
            elif method in ("recv", "irecv"):
                ops.append(
                    op(
                        "recv",
                        _peer_or_tag(node, "source", 0, _WILD),
                        _peer_or_tag(node, "tag", 1, _WILD),
                        method == "recv",
                    )
                )
            elif method == "sendrecv":
                tag = _peer_or_tag(node, "tag", 3, 0)
                ops.append(op("send", _peer_or_tag(node, "dest", 0, None), tag, False))
                ops.append(
                    op("recv", _peer_or_tag(node, "source", 1, _WILD), tag, True)
                )
        return ops

    # --------------------------------------------------- RPA003 matching

    @staticmethod
    def _tag_compatible(send_tag: object, recv_tag: object) -> bool:
        if recv_tag is _WILD or send_tag is None or recv_tag is None:
            return True
        return send_tag == recv_tag

    @staticmethod
    def _peer_compatible(literal: object, other_branch: object) -> bool:
        """Can an op in ``other_branch`` run on rank ``literal``?"""
        if literal is None or other_branch is None or other_branch == "_else_":
            return True
        return literal == other_branch

    def _check_send_matching(self, ops: List[_Op]) -> None:
        recvs = [o for o in ops if o.kind == "recv"]
        if not any(o.kind == "send" for o in ops) or not recvs:
            return
        for send in ops:
            if send.kind != "send":
                continue
            matched = any(
                self._tag_compatible(send.tag, recv.tag)
                # the receiver must be able to run on the send's dest rank
                and self._peer_compatible(send.peer, recv.branch)
                # and accept messages from the sender's rank
                and (
                    recv.peer is _WILD
                    or recv.peer is None
                    or send.branch is None
                    or send.branch == "_else_"
                    or recv.peer == send.branch
                )
                for recv in recvs
            )
            if not matched:
                tag = "?" if send.tag is None else send.tag
                dest = "?" if send.peer is None else send.peer
                self._add(
                    "RPA003",
                    _Loc(send.line, send.col),
                    f"send to rank {dest} with tag {tag} has no "
                    "structurally matching recv",
                    "no recv in this program accepts this (source, tag); "
                    "check the tag literal and the receiving rank branch",
                )

    # ------------------------------------------------ RPA004 loop bounds

    def _check_loop_bounds(self, ops: List[_Op]) -> None:
        by_tag: Dict[int, Dict[str, List[_Op]]] = {}
        for o in ops:
            if o.loop_bound is None or not isinstance(o.tag, int):
                continue
            by_tag.setdefault(o.tag, {"send": [], "recv": []})[o.kind].append(o)
        for tag, kinds in sorted(by_tag.items()):
            send_bounds = {o.loop_bound for o in kinds["send"]}
            recv_bounds = {o.loop_bound for o in kinds["recv"]}
            if not send_bounds or not recv_bounds:
                continue
            if send_bounds != recv_bounds:
                o = kinds["recv"][0]
                self._add(
                    "RPA004",
                    _Loc(o.line, o.col),
                    f"recv loop bound {sorted(recv_bounds)} differs from "
                    f"send loop bound {sorted(send_bounds)} for tag {tag}",
                    "the receive loop must iterate as many times as the "
                    "matching send loop or messages are left unmatched",
                )

    # ------------------------------------------------- RPA005 send cycle

    def _first_blocking_op(self, body: Sequence[ast.stmt]) -> Optional[_Op]:
        """First blocking p2p op in statement order, or None."""
        for stmt in body:
            for node in ast.walk(stmt):
                method = _mpi_call(node)
                if method in ("send", "recv"):
                    assert isinstance(node, ast.Call)
                    if method == "send":
                        return _Op(
                            "send",
                            True,
                            _peer_or_tag(node, "dest", 0, None),
                            _peer_or_tag(node, "tag", 2, 0),
                            None,
                            node.lineno,
                            node.col_offset,
                        )
                    return _Op(
                        "recv",
                        True,
                        _peer_or_tag(node, "source", 0, _WILD),
                        _peer_or_tag(node, "tag", 1, _WILD),
                        None,
                        node.lineno,
                        node.col_offset,
                    )
                if method == "sendrecv":
                    return None  # concurrent send+recv: cycle-safe
        return None

    def _check_send_cycles(self) -> None:
        # rank literal -> first blocking op of its branch arm
        first: Dict[int, _Op] = {}
        for node in ast.walk(self.func):
            if not isinstance(node, ast.If):
                continue
            rank = self._branch_rank_literal(node.test)
            if rank is None or rank in first:
                continue
            op = self._first_blocking_op(node.body)
            if op is not None:
                first[rank] = op
        # Edge r -> d when branch r opens with a blocking send to d.
        edges = {
            r: op.peer
            for r, op in first.items()
            if op.kind == "send" and isinstance(op.peer, int)
        }
        reported = set()
        for start in sorted(edges):
            path = [start]
            seen = {start}
            cur = edges[start]
            while isinstance(cur, int) and cur in edges and cur not in seen:
                seen.add(cur)
                path.append(cur)
                cur = edges[cur]
            if cur in path:
                cycle = tuple(sorted(path[path.index(cur):] + [cur]))
                if cycle in reported:
                    continue
                reported.add(cycle)
                op = first[start]
                chain = " -> ".join(
                    str(r) for r in path[path.index(cur):] + [cur]
                )
                self._add(
                    "RPA005",
                    _Loc(op.line, op.col),
                    f"blocking send cycle between rank branches ({chain}): "
                    "potential rendezvous deadlock",
                    "above the eager threshold every send blocks until its "
                    "receiver arrives; break the cycle with sendrecv(), "
                    "isend(), or by ordering one rank recv-first",
                )


class _Loc:
    """Minimal node stand-in carrying a location for ``_add``."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


def _contains(tree: ast.AST, target: ast.AST) -> bool:
    for node in ast.walk(tree):
        if node is target:
            return True
    return False


def _rank_functions(tree: ast.Module) -> List[_FuncDef]:
    """Functions that drive a communicator, outermost-first.

    Nested rank functions (a closure taking ``comm`` inside a factory)
    are included; nested helpers of an already-selected function are not
    re-scanned separately when they do not take ``comm`` themselves.
    """
    selected: List[_FuncDef] = []
    covered: set = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if id(node) in covered:
            continue
        uses_comm = any(_mpi_call(n) is not None for n in ast.walk(node))
        if not uses_comm:
            continue
        selected.append(node)
        for sub in ast.walk(node):
            if sub is not node and isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                covered.add(id(sub))
    return selected


def check_source(source: str, filename: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source text; returns its diagnostics."""
    tree = ast.parse(source, filename=filename)
    diags: List[Diagnostic] = []
    for func in _rank_functions(tree):
        diags.extend(_FunctionCheck(func, filename).run())
    diags.sort(key=lambda d: (d.file, d.line, d.code))
    return diags


def check_file(path: str) -> List[Diagnostic]:
    """Lint one Python file."""
    with open(path, "r", encoding="utf-8") as fh:
        return check_source(fh.read(), filename=path)


def check_paths(paths: Iterable[str]) -> List[Diagnostic]:
    """Lint files and directories (recursing into ``*.py``)."""
    diags: List[Diagnostic] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        diags.extend(check_file(os.path.join(dirpath, name)))
        else:
            diags.extend(check_file(path))
    return diags


def render_diagnostics(diags: Sequence[Diagnostic]) -> str:
    """Human-readable report, one block per finding."""
    if not diags:
        return "no diagnostics"
    blocks = [d.render() for d in diags]
    blocks.append(f"{len(diags)} diagnostic(s)")
    return "\n".join(blocks)


# ==========================================================================
# Rank-program profiles (the whole-job compiler's recognition pre-filter)
# ==========================================================================


@dataclass(frozen=True)
class RankProgramProfile:
    """Static summary of one rank program's communication vocabulary.

    Produced by :func:`rank_program_profile` for
    :func:`repro.mpi.compile.compiled_mpiexec`, which uses it as an
    *advisory* pre-filter: a profile naming a veto lets the compiler skip
    a doomed replay attempt cheaply, while ``unknown`` profiles (source
    not retrievable — a lambda, a C callable) are simply attempted.  The
    replayer's dynamic guards stay authoritative either way, because MPI
    traffic hidden in helper functions is invisible to this purely
    structural view.  :func:`repro.mpi.phasec.lower` refuses ``unknown``
    profiles, and ``rank_dependent_flow`` ones too: a branch such as
    ``if comm.rank == 17`` would otherwise cost it a trace of every rank
    only to find the one that diverges.
    """

    methods: frozenset = field(default_factory=frozenset)
    wildcard_recv: bool = False
    uses_irecv: bool = False
    uses_timeouts: bool = False
    #: A branch test, loop source or match subject mentions ``rank``.
    rank_dependent_flow: bool = False
    unknown: bool = False

    def veto_reasons(self) -> List[str]:
        """Statically visible reasons the max-plus replay cannot apply."""
        reasons: List[str] = []
        if self.wildcard_recv:
            reasons.append("wildcard-source recv")
        if self.uses_irecv:
            reasons.append("irecv")
        if self.uses_timeouts:
            reasons.append("timeout/deadline-bounded operation")
        return reasons


def _timeout_kwarg(call: ast.Call, name: str) -> bool:
    """Is keyword ``name`` present with a value other than literal None?"""
    node = _call_arg(call, name)
    return node is not None and not (
        isinstance(node, ast.Constant) and node.value is None
    )


def _steering(node: ast.AST) -> Tuple[ast.AST, ...]:
    """The expressions that steer control flow at ``node``: branch and
    assert tests, loop sources, comprehension filters, match subjects."""
    if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
        return (node.test,)
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return (node.iter,)
    if isinstance(node, ast.comprehension):
        return (node.iter, *node.ifs)
    if isinstance(node, ast.Match):
        return (node.subject,)
    return ()


def rank_program_profile(main) -> RankProgramProfile:
    """Statically profile rank program ``main``: one parse of its source.

    Partials, bound methods and ``__wrapped__`` decorators are unwrapped
    to the function whose source ``inspect.getsource`` reads.  Profiles
    are memoized on that function's code object and file (code objects
    compare equal across files), so sweeps repricing one rank program
    thousands of times parse its source once; a callable without a code
    object is profiled on every call.
    """
    fn = main
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    if hasattr(fn, "__wrapped__"):  # unwrap() costs ~1 us even when idle
        try:
            fn = inspect.unwrap(fn)
        except ValueError:  # a __wrapped__ cycle
            return RankProgramProfile(unknown=True)
    code = getattr(fn, "__code__", None)
    if code is None:
        return _profile_source(fn)
    return _profile_code(code, code.co_filename)


@functools.lru_cache(maxsize=256)
def _profile_code(code, filename: str) -> RankProgramProfile:
    return _profile_source(code)


def _profile_source(obj) -> RankProgramProfile:
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    except (OSError, TypeError, ValueError, SyntaxError, IndentationError):
        return RankProgramProfile(unknown=True)
    methods = set()
    wildcard = irecv = timeouts = rank_flow = False
    for node in ast.walk(tree):
        if not rank_flow and any(map(_mentions_rank, _steering(node))):
            rank_flow = True
        method = _mpi_call(node)
        if method is None:
            continue
        assert isinstance(node, ast.Call)
        methods.add(method)
        if method == "irecv":
            irecv = True
        elif method == "recv":
            # Omitted / None / ANY_SOURCE is a wildcard; a *dynamic*
            # source expression (a computed partner) is not.
            if _peer_or_tag(node, "source", 0, _WILD) is _WILD:
                wildcard = True
        if method in ("send", "recv") and _timeout_kwarg(node, "timeout"):
            timeouts = True
        if method in COLLECTIVES and _timeout_kwarg(node, "deadline"):
            timeouts = True
    return RankProgramProfile(
        methods=frozenset(methods),
        wildcard_recv=wildcard,
        uses_irecv=irecv,
        uses_timeouts=timeouts,
        rank_dependent_flow=rank_flow,
    )
