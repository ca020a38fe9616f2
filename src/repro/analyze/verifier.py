"""Dynamic MPI verification: vector clocks, races, leaks, mismatches.

The :class:`Verifier` arms an :class:`~repro.mpi.runtime.MpiJob` with
per-rank vector clocks.  Every send ticks the sender's own component and
stamps the envelope's clock snapshot; every receive merges the matched
send's snapshot into the receiver's clock.  On top of that
happens-before order the verifier reports, at finalize:

* **wildcard-race** — an ``ANY_SOURCE`` receive for which a *different*
  send was concurrently in flight and tag-compatible: the match was a
  race, so a real interconnect could deliver either order.
* **leaked-request** — a non-blocking request that was never
  ``wait()``-ed (and not deliberately ``cancel()``-ed).
* **unmatched-envelope** — a message still sitting in a mailbox when
  the job finished.
* **collective-mismatch** — ranks whose collective call sequences
  diverge in kind or root (the static analogue is ``RPA002``).
* **run-error** — the job itself failed (deadlock, fault, timeout);
  recorded so a report is produced even for crashed runs.

The pass is off by default and costs nothing when disarmed: the
``Communicator`` hot paths only consult the verifier behind an
``is not None`` check.  Every collective steps its messages, so every
message is observable.

When a :class:`~repro.obs.tracer.Tracer` is active, each finding is
also emitted as an instant with category ``verify.<kind>`` so races
show up as ``?`` marks on the ASCII timelines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.mpi.messages import ANY_SOURCE, ANY_TAG, Envelope

__all__ = [
    "Issue",
    "Verifier",
    "VerifyReport",
    "verify_mpiexec",
]


def _leq(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Vector-clock partial order: ``a`` happened before or equals ``b``."""
    return all(x <= y for x, y in zip(a, b))


def _concurrent(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return not _leq(a, b) and not _leq(b, a)


@dataclass(frozen=True)
class Issue:
    """One verifier finding."""

    kind: str  # wildcard-race | leaked-request | unmatched-envelope |
    #            collective-mismatch | run-error
    detail: str
    rank: Optional[int] = None
    time: float = 0.0

    def render(self) -> str:
        where = f"rank {self.rank}" if self.rank is not None else "job"
        return f"[{self.kind}] {where} @ t={self.time:.6g}: {self.detail}"


@dataclass
class VerifyReport:
    """Summary of one verified run: issues plus run statistics."""

    issues: List[Issue] = field(default_factory=list)
    n_ranks: int = 0
    elapsed: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.issues

    def count(self, kind: str) -> int:
        return sum(1 for issue in self.issues if issue.kind == kind)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "n_ranks": self.n_ranks,
                "elapsed": self.elapsed,
                "stats": self.stats,
                "issues": [
                    {
                        "kind": i.kind,
                        "detail": i.detail,
                        "rank": i.rank,
                        "time": i.time,
                    }
                    for i in self.issues
                ],
            },
            indent=2,
            sort_keys=True,
        )

    def render(self) -> str:
        lines = [
            f"verify: {self.n_ranks} rank(s), elapsed {self.elapsed:.6g}s, "
            f"{self.stats.get('sends', 0)} send(s), "
            f"{self.stats.get('recvs', 0)} recv(s), "
            f"{self.stats.get('collectives', 0)} collective call(s)"
        ]
        if self.ok:
            lines.append("verify: CLEAN — no issues found")
        else:
            lines.append(f"verify: {len(self.issues)} issue(s)")
            lines.extend("  " + issue.render() for issue in self.issues)
        return "\n".join(lines)


@dataclass
class _SendRec:
    env: Envelope
    vc: Tuple[int, ...]
    time: float
    matched: bool = False


@dataclass
class _RecvRec:
    rank: int
    tag: Optional[int]
    send: _SendRec
    done_vc: Tuple[int, ...]
    time: float


@dataclass
class _ReqRec:
    rank: int
    kind: str  # "isend" | "irecv"
    peer: Optional[int]
    tag: Optional[int]
    time: float
    waited: bool = False


class Verifier:
    """Per-rank vector clocks plus send/recv/request/collective ledgers.

    Attach with ``MpiJob(..., verifier=v)`` (or :func:`verify_mpiexec`);
    the communicators call the ``note_*`` hooks, and :meth:`finalize`
    turns the ledgers into a :class:`VerifyReport`.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.n_ranks = 0
        self.clocks: List[List[int]] = []
        self._sends: Dict[int, _SendRec] = {}  # id(env) -> record
        self._send_order: List[_SendRec] = []
        self._recvs: List[_RecvRec] = []
        self._requests: Dict[int, _ReqRec] = {}  # id(req) -> record
        self._colls: List[List[Tuple[str, Optional[int]]]] = []
        self._job: Any = None
        self.stats: Dict[str, int] = {
            "sends": 0,
            "recvs": 0,
            "requests": 0,
            "collectives": 0,
        }

    # ------------------------------------------------------------ attach

    def attach(self, job: Any) -> None:
        self._job = job
        self.n_ranks = job.n_ranks
        self.clocks = [[0] * job.n_ranks for _ in range(job.n_ranks)]
        self._colls = [[] for _ in range(job.n_ranks)]

    def _now(self) -> float:
        return float(self._job.engine.now) if self._job is not None else 0.0

    def _instant(self, issue: Issue) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        tid = f"rank {issue.rank}" if issue.rank is not None else "job"
        tracer.instant(
            issue.kind,
            cat=f"verify.{issue.kind}",
            pid="verify",
            tid=tid,
            args={"detail": issue.detail, "time": issue.time},
        )

    # ------------------------------------------------------------- hooks

    def note_send(self, rank: int, env: Envelope) -> None:
        clock = self.clocks[rank]
        clock[rank] += 1
        rec = _SendRec(env=env, vc=tuple(clock), time=self._now())
        self._sends[id(env)] = rec
        self._send_order.append(rec)
        self.stats["sends"] += 1

    def note_recv(
        self,
        rank: int,
        env: Envelope,
        source_arg: Optional[int],
        tag_arg: Optional[int],
    ) -> None:
        clock = self.clocks[rank]
        send = self._sends.get(id(env))
        if send is not None:
            send.matched = True
            for i, component in enumerate(send.vc):
                if component > clock[i]:
                    clock[i] = component
        clock[rank] += 1
        self.stats["recvs"] += 1
        if source_arg is ANY_SOURCE and send is not None:
            self._recvs.append(
                _RecvRec(
                    rank=rank,
                    tag=tag_arg,
                    send=send,
                    done_vc=tuple(clock),
                    time=self._now(),
                )
            )

    def note_request(
        self,
        rank: int,
        request: Any,
        kind: str,
        peer: Optional[int],
        tag: Optional[int],
    ) -> None:
        self._requests[id(request)] = _ReqRec(
            rank=rank, kind=kind, peer=peer, tag=tag, time=self._now()
        )
        request._verify = self  # so wait()/cancel() can report back
        self.stats["requests"] += 1

    def note_wait(self, request: Any) -> None:
        rec = self._requests.get(id(request))
        if rec is not None:
            rec.waited = True

    def note_collective(
        self, rank: int, kind: str, root: Optional[int], nbytes: int
    ) -> None:
        self._colls[rank].append((kind, root))
        self.stats["collectives"] += 1

    # ---------------------------------------------------------- finalize

    def finalize(
        self, result: Any = None, error: Optional[BaseException] = None
    ) -> VerifyReport:
        issues: List[Issue] = []
        if error is not None:
            issues.append(
                Issue(
                    kind="run-error",
                    detail=f"{type(error).__name__}: {error}",
                    time=self._now(),
                )
            )
        issues.extend(self._race_issues())
        issues.extend(self._leak_issues())
        issues.extend(self._unmatched_issues())
        issues.extend(self._collective_issues())
        for issue in issues:
            self._instant(issue)
        elapsed = self._now()
        if result is not None and getattr(result, "elapsed", None) is not None:
            elapsed = result.elapsed
        return VerifyReport(
            issues=issues,
            n_ranks=self.n_ranks,
            elapsed=elapsed,
            stats=dict(self.stats),
        )

    def _race_issues(self) -> List[Issue]:
        issues: List[Issue] = []
        seen = set()
        for recv in self._recvs:
            matched = recv.send
            for other in self._send_order:
                if other is matched:
                    continue
                env = other.env
                if env.dest != recv.rank:
                    continue
                if other.matched and not _concurrent(other.vc, matched.vc):
                    continue
                if recv.tag is not ANY_TAG and env.tag != recv.tag:
                    continue
                if env.source == matched.env.source:
                    continue  # same-sender messages stay FIFO-ordered
                if not _concurrent(other.vc, matched.vc):
                    continue
                if _leq(recv.done_vc, other.vc):
                    continue  # other send happened after the recv completed
                key = (recv.rank, recv.time, env.source, matched.env.source)
                if key in seen:
                    continue
                seen.add(key)
                issues.append(
                    Issue(
                        kind="wildcard-race",
                        detail=(
                            f"ANY_SOURCE recv matched rank "
                            f"{matched.env.source} (tag {matched.env.tag}) "
                            f"while a concurrent send from rank "
                            f"{env.source} (tag {env.tag}) also matched; "
                            "delivery order is nondeterministic"
                        ),
                        rank=recv.rank,
                        time=recv.time,
                    )
                )
        return issues

    def _leak_issues(self) -> List[Issue]:
        issues: List[Issue] = []
        for req_id, rec in self._requests.items():
            if rec.waited:
                continue
            # cancel() marks the request object; find it via the ledger
            # is impossible (we only keep ids), so Communicator-side
            # cancel calls note_wait-equivalent via request.cancel().
            peer = "?" if rec.peer is None else rec.peer
            tag = "ANY_TAG" if rec.tag is None else rec.tag
            issues.append(
                Issue(
                    kind="leaked-request",
                    detail=(
                        f"{rec.kind}(peer={peer}, tag={tag}) posted at "
                        f"t={rec.time:.6g} was never wait()ed"
                    ),
                    rank=rec.rank,
                    time=rec.time,
                )
            )
        return issues

    def _unmatched_issues(self) -> List[Issue]:
        issues: List[Issue] = []
        if self._job is None:
            return issues
        for rank, mailbox in enumerate(self._job.mailboxes):
            for env in list(getattr(mailbox, "items", ())):
                issues.append(
                    Issue(
                        kind="unmatched-envelope",
                        detail=(
                            f"message from rank {env.source} "
                            f"(tag {env.tag}, {env.nbytes} B) was never "
                            "received"
                        ),
                        rank=rank,
                        time=float(env.post_time),
                    )
                )
        return issues

    def _collective_issues(self) -> List[Issue]:
        issues: List[Issue] = []
        if not self._colls:
            return issues
        reference = self._colls[0]
        for rank, seq in enumerate(self._colls[1:], start=1):
            if seq == reference:
                continue
            index = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(reference, seq))
                    if a != b
                ),
                min(len(reference), len(seq)),
            )
            mine = seq[index] if index < len(seq) else None
            ref = reference[index] if index < len(reference) else None
            issues.append(
                Issue(
                    kind="collective-mismatch",
                    detail=(
                        f"call #{index}: rank {rank} issued "
                        f"{_fmt_coll(mine)} but rank 0 issued "
                        f"{_fmt_coll(ref)}"
                    ),
                    rank=rank,
                    time=self._now(),
                )
            )
        return issues


def _fmt_coll(entry: Optional[Tuple[str, Optional[int]]]) -> str:
    if entry is None:
        return "nothing"
    kind, root = entry
    if root is None:
        return kind
    return f"{kind}(root={root})"


def verify_mpiexec(
    n_ranks: int,
    fabric: Any,
    main: Callable[..., Any],
    tracer: Any = None,
    fault_plan: Any = None,
) -> Tuple[Any, VerifyReport]:
    """Run ``main`` on ``n_ranks`` under verification.

    Returns ``(JobResult | None, VerifyReport)``.  A failed run
    (deadlock, injected fault, timeout) yields ``result=None`` and a
    report containing a ``run-error`` issue plus whatever the ledgers
    show at the point of failure — exactly the case where the unmatched
    and mismatch reports are most useful.
    """
    from repro.mpi.runtime import MpiJob

    verifier = Verifier(tracer=tracer)
    job = MpiJob(
        n_ranks,
        fabric,
        name="verify",
        tracer=tracer,
        fault_plan=fault_plan,
        verifier=verifier,
    )
    job.launch(main)
    result: Any = None
    error: Optional[BaseException] = None
    try:
        result = job.run()
    except ReproError as exc:
        error = exc
    report = verifier.finalize(result=result, error=error)
    return result, report
