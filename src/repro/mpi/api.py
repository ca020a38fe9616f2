"""The simulated MPI communicator (mpi4py-flavoured API).

Each rank is a discrete-event process holding a :class:`Communicator`,
the stepped implementation of :class:`RankComm`, the vocabulary every
communicator shares (``sendrecv`` and the eight collectives).
Methods are generators — rank code drives them with ``yield from``, the
idiom the engine uses for zero-cost composition::

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1024, payload={"a": 7})
        elif comm.rank == 1:
            msg = yield from comm.recv(source=0)

Timing follows the fabric's protocol model: eager sends detach after the
local copy; rendezvous sends block until the receiver arrives (the same
eager/rendezvous split that Section 5's DAPL thresholds control).  The
simulator also moves real payloads, so collective algorithms are verified
for *correctness*, not just priced for time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import ConfigError, FaultError, TimeoutExpired
from repro.mpi.collectives import ALGORITHMS, check_call
from repro.mpi.messages import ANY_SOURCE, ANY_TAG, Envelope, match_filter
from repro.obs.tracer import NULL_CONTEXT, Tracer, active
from repro.simcore import Engine, Event, Get, Put, Timeout, WaitEvent

FabricResolver = Callable[[int, int], Any]


class _CollectiveCancelled(BaseException):
    """Thrown into a collective's worker when its deadline expires.

    A ``BaseException`` so the stepped algorithms (which catch nothing)
    cannot swallow it; it never escapes :meth:`Communicator._bounded`.
    """


class Request:
    """Handle for a non-blocking operation (wraps its completion event).

    The event is a worker process's ``done`` for stepped operations, or
    a bare completion event for inline eager/rendezvous isends (which
    skip the worker generator entirely when tracing is off).
    """

    __slots__ = ("_event", "_keep_value", "op", "cancelled", "_verify")

    def __init__(self, event: Event, keep_value: bool = True, op: str = ""):
        self._event = event
        self._keep_value = keep_value
        self.op = op
        self.cancelled = False
        self._verify: Optional[Any] = None

    def wait(self) -> Generator:
        """Block until the operation completes; returns its result.

        Waiting on an already-completed request is a no-op: the result
        is returned without re-entering the engine, so a request may be
        waited more than once (e.g. once in a helper, once defensively
        at teardown).
        """
        if self._verify is not None:
            self._verify.note_wait(self)
        if self._event.triggered:
            result = self._event.value
        else:
            result = yield WaitEvent(self._event)
        return result if self._keep_value else None

    def cancel(self) -> None:
        """Mark the request deliberately abandoned.

        This does *not* withdraw the message — the operation still
        completes on its own — but the dynamic verifier will no longer
        report the handle as a leaked request.
        """
        self.cancelled = True
        if self._verify is not None:
            self._verify.note_wait(self)

    @property
    def complete(self) -> bool:
        return self._event.triggered

    #: Alias so diagnostics can say "completed" (mpi4py's Test() idiom).
    completed = complete

    def __repr__(self) -> str:
        if self.cancelled:
            state = "cancelled"
        elif self._event.triggered:
            state = "completed"
        else:
            state = "pending"
        label = self.op or getattr(self._event, "name", None) or "request"
        return f"<Request {label} [{state}]>"


class RankComm:
    """The rank-program vocabulary, written once for every communicator.

    A rank program runs unchanged on three communicators: the stepped
    :class:`Communicator`, the compiled replay's ``_ReplayComm``
    (:mod:`repro.mpi.compile`) and phase lowering's ``_TraceComm``
    (:mod:`repro.mpi.phasec`).  This base defines what they share:
    ``sendrecv``, the eight collectives and the peer/root range check.
    A subclass sets ``rank`` and ``size`` and supplies the
    point-to-point primitives (``send``, ``recv``, ``isend``, ``irecv``)
    and :meth:`_collective`, the one entry every collective forwards to.
    The replay and trace communicators override ``sendrecv`` with one
    call each that keeps this version's checks, order and errors; only
    the stepped :class:`Communicator` runs the base ``sendrecv``.
    """

    __slots__ = ()

    rank: int
    size: int
    isend: Callable[..., Any]
    recv: Callable[..., Generator]

    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self.size):
            raise ConfigError(f"peer rank {peer} out of range (size {self.size})")

    def _check_send(self, dest: int, nbytes: int) -> None:
        self._check_peer(dest)
        if nbytes < 0:
            raise ConfigError("nbytes must be non-negative")

    def sendrecv(
        self,
        dest: int,
        source: int,
        nbytes: int,
        tag: int = 0,
        payload: Any = None,
    ) -> Generator:
        """Concurrent send+recv (the Fig 10 ring-exchange primitive)."""
        req = self.isend(dest, nbytes, tag, payload)
        env = yield from self.recv(source, tag)
        yield from req.wait()
        return env

    # --------------------------------------------------------- collectives

    def _collective(self, kind: str, value: Any, nbytes: int,
                    root: Optional[int], op: Optional[Callable],
                    deadline: Optional[float]) -> Generator:
        """Run collective ``kind`` on this communicator's path.

        ``root`` is an in-range rank for the rooted kinds and ``None``
        for the unrooted ones; ``deadline`` bounds the collective in
        simulated seconds.
        """
        raise NotImplementedError

    def barrier(self, deadline: Optional[float] = None) -> Generator:
        """Dissemination barrier: ⌈log2 p⌉ rounds of zero-byte exchanges."""
        return self._collective("barrier", None, 0, None, None, deadline)

    def bcast(
        self, value: Any, root: int = 0, nbytes: int = 8,
        deadline: Optional[float] = None,
    ) -> Generator:
        """Every rank returns the root's ``value``."""
        self._check_peer(root)
        return self._collective("bcast", value, nbytes, root, None, deadline)

    def reduce(
        self, value: Any, op=None, root: int = 0, nbytes: int = 8,
        deadline: Optional[float] = None,
    ) -> Generator:
        """The root returns every rank's ``value`` combined by ``op``
        (default ``+``); the other ranks return ``None``."""
        self._check_peer(root)
        return self._collective("reduce", value, nbytes, root, op, deadline)

    def allreduce(
        self, value: Any, op=None, nbytes: int = 8,
        deadline: Optional[float] = None,
    ) -> Generator:
        """Every rank returns every rank's ``value`` combined by ``op``."""
        return self._collective("allreduce", value, nbytes, None, op, deadline)

    def allgather(
        self, value: Any, nbytes: int = 8, deadline: Optional[float] = None
    ) -> Generator:
        """Every rank returns the list of every rank's ``value``."""
        return self._collective("allgather", value, nbytes, None, None,
                                deadline)

    def alltoall(
        self, values, nbytes: int = 8, deadline: Optional[float] = None
    ) -> Generator:
        """``values[i]`` goes to rank ``i``; every rank returns what it
        received, in source-rank order."""
        return self._collective("alltoall", values, nbytes, None, None,
                                deadline)

    def gather(
        self, value: Any, root: int = 0, nbytes: int = 8,
        deadline: Optional[float] = None,
    ) -> Generator:
        """The root returns the list of every rank's ``value``; the other
        ranks return ``None``."""
        self._check_peer(root)
        return self._collective("gather", value, nbytes, root, None, deadline)

    def scatter(
        self, values, root: int = 0, nbytes: int = 8,
        deadline: Optional[float] = None,
    ) -> Generator:
        """Rank ``i`` returns the root's ``values[i]``."""
        self._check_peer(root)
        return self._collective("scatter", values, nbytes, root, None, deadline)


class CallLedger:
    """One job's collective calls, matched across ranks by call order.

    Each rank's n-th collective must have the ``(kind, nbytes, root)``
    of the first rank to issue call n
    (:func:`~repro.mpi.collectives.check_call`), so a mismatch raises
    :class:`~repro.errors.ConfigError` at the call instead of stepping
    mismatched messages into a wrong answer or a deadlock.  An entry is
    dropped once every rank has made its call.
    """

    __slots__ = ("_size", "_next", "_open")

    def __init__(self, size: int):
        self._size = size
        self._next = [0] * size  # each rank's next call number
        #: call number -> [first caller's call, ranks yet to make it]
        self._open: Dict[int, List[Any]] = {}

    def check(self, rank: int, call: Tuple[str, int, Any]) -> None:
        seq = self._next[rank]
        self._next[rank] = seq + 1
        entry = self._open.get(seq)
        if entry is None:
            entry = self._open[seq] = [call, self._size]
        check_call(entry[0], call)
        entry[1] -= 1
        if not entry[1]:
            del self._open[seq]


class Communicator(RankComm):
    """One rank's view of the simulated communicator, stepped on the
    event engine.

    Parameters
    ----------
    engine, rank, size:
        The event engine and this rank's identity.
    mailboxes:
        One :class:`~repro.simcore.resources.Store` per rank.
    fabric_for:
        ``(src, dst) → fabric`` resolver; a single-device job uses a
        constant fabric, symmetric mode routes by device pair.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` recording per-rank
        send/recv/collective spans (on lane ``trace_pid``/``rank<r>``)
        and the point-to-point message-size matrix.
    calls:
        Optional :class:`CallLedger` shared by the job's ranks; every
        collective is checked against it before it steps.
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  Stragglers scale this
        rank's :meth:`compute` time; memory pressure tightens the
        :meth:`alltoall` feasibility check.  (Link faults act at the
        fabric layer; crashes are armed by the job.)
    verifier:
        Optional :class:`~repro.analyze.verifier.Verifier`.  When set,
        sends, receives, requests and collectives report to its vector
        clocks and ledgers; every hook sits behind an ``is not None``
        check, so the disarmed hot path is unchanged.
    """

    def __init__(
        self,
        engine: Engine,
        rank: int,
        size: int,
        mailboxes: list,
        fabric_for: FabricResolver,
        tracer: Optional[Tracer] = None,
        trace_pid: str = "mpi",
        calls: Optional[CallLedger] = None,
        faults: Optional[Any] = None,
        verifier: Optional[Any] = None,
    ):
        if not (0 <= rank < size):
            raise ConfigError(f"rank {rank} out of range for size {size}")
        self.engine = engine
        self.rank = rank
        self.size = size
        self._mailboxes = mailboxes
        self._fabric_for = fabric_for
        self.tracer = tracer
        self._trace_pid = trace_pid
        self._trace_tid = f"rank{rank}"
        self._calls = calls
        self._faults = faults
        self._verifier = verifier

    # ------------------------------------------------------------ plumbing

    def fabric(self, peer: int) -> Any:
        return self._fabric_for(self.rank, peer)

    @property
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------- point-to-point

    def send(
        self,
        dest: int,
        nbytes: int,
        tag: int = 0,
        payload: Any = None,
        pattern: str = "neighbor",
        _lane: Optional[str] = None,
        timeout: Optional[float] = None,
        max_retries: int = 0,
    ) -> Generator:
        """Blocking send (eager detaches after local copy; rendezvous
        blocks until the receiver matches).

        ``timeout`` bounds the rendezvous wait for a matching receiver
        in simulated seconds; after ``max_retries`` further waits of the
        same length, the unmatched envelope is withdrawn and
        :class:`~repro.errors.TimeoutExpired` propagates.  Eager sends
        never wait on the peer and ignore the bound.
        """
        self._check_send(dest, nbytes)
        tr = active(self.tracer)
        sp = None
        if tr is not None:
            tr.message(self.rank, dest, nbytes)
            sp = tr.begin(
                f"send->{dest}",
                cat="mpi.p2p",
                pid=self._trace_pid,
                tid=_lane or self._trace_tid,
                args={"nbytes": nbytes, "tag": tag},
            )
        fabric = self.fabric(dest)
        env = Envelope(
            source=self.rank,
            dest=dest,
            tag=tag,
            nbytes=nbytes,
            post_time=self.engine.now,
            payload=payload,
            pattern=pattern,
        )
        if self._verifier is not None:
            self._verifier.note_send(self.rank, env)
        try:
            yield Put(self._mailboxes[dest], env)
            if nbytes <= fabric.eager_max:
                yield Timeout(fabric.sender_time(nbytes))
            else:
                attempts = (max_retries + 1) if timeout is not None else 1
                while True:
                    try:
                        yield WaitEvent(
                            env.done,
                            timeout=timeout,
                            timeout_error=None if timeout is None else
                            TimeoutExpired(
                                f"send to rank {dest} (tag {tag})", timeout
                            ),
                        )
                        break
                    except TimeoutExpired:
                        attempts -= 1
                        if attempts <= 0:
                            # Withdraw the unmatched envelope so a late
                            # receiver cannot match a send we gave up on.
                            try:
                                self._mailboxes[dest].items.remove(env)
                            except ValueError:
                                pass
                            raise
        finally:
            if tr is not None:
                tr.end(sp)

    def recv(
        self,
        source: Optional[int] = ANY_SOURCE,
        tag: Optional[int] = ANY_TAG,
        _lane: Optional[str] = None,
        timeout: Optional[float] = None,
        max_retries: int = 0,
    ) -> Generator:
        """Blocking receive; returns the matched :class:`Envelope`.

        ``timeout`` bounds the wait for a matching message in simulated
        seconds; the matcher is re-posted ``max_retries`` times before
        :class:`~repro.errors.TimeoutExpired` propagates.
        """
        if source is not None:
            self._check_peer(source)
        tr = active(self.tracer)
        sp = None
        if tr is not None:
            sp = tr.begin(
                "recv",
                cat="mpi.p2p",
                pid=self._trace_pid,
                tid=_lane or self._trace_tid,
                args={"source": source, "tag": tag},
            )
        try:
            attempts = (max_retries + 1) if timeout is not None else 1
            while True:
                try:
                    env: Envelope = yield Get(
                        self._mailboxes[self.rank],
                        filter=match_filter(source, tag),
                        timeout=timeout,
                        timeout_error=None if timeout is None else
                        TimeoutExpired(
                            f"recv(source={source}, tag={tag}) "
                            f"on rank {self.rank}",
                            timeout,
                        ),
                    )
                    break
                except TimeoutExpired:
                    attempts -= 1
                    if attempts <= 0:
                        raise
            if self._verifier is not None:
                self._verifier.note_recv(self.rank, env, source, tag)
            fabric = self.fabric(env.source)
            pattern = getattr(env, "pattern", "neighbor")
            transfer = fabric.p2p_time(
                env.nbytes, pattern=pattern, n_senders=self.size
            )
            if env.nbytes <= fabric.eager_max:
                # Eager data is on the wire as soon as it is posted.
                completion = max(self.engine.now, env.post_time + transfer)
            else:
                # Rendezvous transfer starts once both sides are present.
                completion = max(self.engine.now, env.post_time) + transfer
            delay = completion - self.engine.now
            if delay > 0:
                yield Timeout(delay)
            env.done.succeed(completion)
            if sp is not None:
                sp.args = {
                    "source": env.source, "nbytes": env.nbytes, "tag": env.tag
                }
            return env
        finally:
            if tr is not None and sp is not None:
                tr.end(sp)

    def isend(
        self,
        dest: int,
        nbytes: int,
        tag: int = 0,
        payload: Any = None,
        pattern: str = "neighbor",
    ) -> Request:
        """Non-blocking send; returns a :class:`Request`.  ``pattern`` is
        the traffic pattern the receiver prices the transfer with, as
        for :meth:`send`.

        Without an active tracer the worker generator is elided: the
        envelope is deposited synchronously (same instant, same mailbox
        order a spawned worker would produce) and the request completes
        via a process-less timer (eager) or the envelope's own done
        event (rendezvous).  Traced sends keep the worker so its span
        lands on the ``.nb`` lane; either way a bad ``dest`` or ``nbytes``
        raises here, at the call.
        """
        self._check_send(dest, nbytes)
        if active(self.tracer) is None:
            engine = self.engine
            fabric = self.fabric(dest)
            env = Envelope(
                source=self.rank,
                dest=dest,
                tag=tag,
                nbytes=nbytes,
                post_time=engine.now,
                payload=payload,
                pattern=pattern,
            )
            if self._verifier is not None:
                self._verifier.note_send(self.rank, env)
            mbox = self._mailboxes[dest]
            if not mbox._offer(env):
                mbox.items.append(env)
            if nbytes <= fabric.eager_max:
                done = Event(name=f"isend[{self.rank}->{dest}].done")
                engine.call_at(fabric.sender_time(nbytes), done.succeed)
                req = Request(done)
            else:
                # Rendezvous: sender completes when the receiver matches.
                req = Request(env.done, keep_value=False)
            return self._register(req, "isend", dest, tag)
        proc = self.engine.spawn(
            self.send(dest, nbytes, tag, payload, pattern, _lane=self._nb_lane),
            name=f"isend[{self.rank}->{dest}]",
        )
        return self._register(Request(proc.done), "isend", dest, tag)

    def irecv(
        self, source: Optional[int] = ANY_SOURCE, tag: Optional[int] = ANY_TAG
    ) -> Request:
        """Non-blocking receive; ``wait()`` returns the :class:`Envelope`."""
        if source is not None:
            self._check_peer(source)
        proc = self.engine.spawn(
            self.recv(source, tag, _lane=self._nb_lane),
            name=f"irecv[{self.rank}<-{source}]",
        )
        return self._register(Request(proc.done), "irecv", source, tag)

    def _register(
        self, req: Request, kind: str, peer: Optional[int], tag: Optional[int]
    ) -> Request:
        """Report a fresh request to the verifier (no-op when disarmed)."""
        if self._verifier is not None:
            arrow = "->" if kind == "isend" else "<-"
            req.op = f"{kind}[{self.rank}{arrow}{peer} tag={tag}]"
            self._verifier.note_request(self.rank, req, kind, peer, tag)
        return req

    @property
    def _nb_lane(self) -> str:
        """Trace lane for non-blocking operations.

        isend/irecv bodies run as separate engine processes that overlap
        the rank's own blocking spans; giving them a sibling lane keeps
        the per-rank timeline strictly nested.
        """
        return f"{self._trace_tid}.nb"

    # ----------------------------------------------------------- utilities

    def compute(self, seconds: float) -> Generator:
        """Local computation for ``seconds`` of simulated time.

        An active :class:`~repro.faults.Straggler` targeting this rank
        stretches the time by its slowdown factor.
        """
        if seconds < 0:
            raise ConfigError("compute time must be non-negative")
        if self._faults is not None:
            seconds *= self._faults.compute_factor(self.rank, self.engine.now)
        yield Timeout(seconds)

    # ----------------------------------------------------------- tracing

    def phase(self, name: str, cat: str = "app.phase") -> Any:
        """Context manager spanning an application phase on this rank's
        timeline lane (a no-op without a tracer)::

            with comm.phase("iter3"):
                z = yield from conj_grad(x)
        """
        tr = active(self.tracer)
        if tr is None:
            return NULL_CONTEXT
        return tr.span(name, cat=cat, pid=self._trace_pid, tid=self._trace_tid)

    # --------------------------------------------------------- collectives
    # The eight public collectives are RankComm's; each lands here.  The
    # algorithms are repro.mpi.collectives.ALGORITHMS, generators over this
    # rank's point-to-point layer, so every collective steps hop by hop.

    def _collective(self, kind: str, value: Any, nbytes: int,
                    root: Optional[int], op: Optional[Callable],
                    deadline: Optional[float]) -> Generator:
        """Step collective ``kind`` through its algorithm.

        The call is checked against the job's call ledger, reports to
        the verifier, records a span and honours ``deadline``; the span
        is closed in a ``finally`` so a collective that dies on a fault
        or deadline still leaves a well-formed trace.
        """
        if kind == "alltoall" and self._faults is not None:
            # Memory pressure makes the Fig 14-style alltoall OOM fire at
            # smaller messages than the healthy card's 8 GiB would allow.
            self._faults.check_alltoall(self.size, nbytes)
        if kind == "barrier" and self.size == 1:
            return None
        if self._calls is not None:
            self._calls.check(self.rank, (kind, nbytes, root))
        if self._verifier is not None:
            self._verifier.note_collective(self.rank, kind, root, nbytes)
        gen = ALGORITHMS[kind](self, value, nbytes, root, op)
        tr = active(self.tracer)
        sp = None if tr is None else tr.begin(
            kind, cat="mpi.coll", pid=self._trace_pid, tid=self._trace_tid,
            args={"nbytes": nbytes},
        )
        try:
            if deadline is None:
                result = yield from gen
            else:
                result = yield from self._bounded(kind, gen, deadline)
        finally:
            if tr is not None:
                tr.end(sp)
        return result

    def _bounded(self, kind: str, gen: Generator, deadline: float) -> Generator:
        """Run a collective body with a simulated-seconds deadline.

        The body runs as a child process joined with a bounded wait; on
        expiry the child is cancelled (so it stops exchanging messages)
        and :class:`~repro.errors.FaultError` naming the collective and
        this rank is raised into the caller instead of hanging — e.g. a
        symmetric-mode job whose peer rank crashed mid-collective.
        """
        if deadline <= 0:
            raise ConfigError(f"deadline must be positive, got {deadline!r}")
        proc = self.engine.spawn(
            gen, name=f"{kind}.deadline[rank{self.rank}]"
        )
        try:
            result = yield WaitEvent(
                proc.done,
                timeout=deadline,
                timeout_error=FaultError(
                    f"collective-deadline:{kind}",
                    rank=self.rank,
                    when=self.engine.now + deadline,
                ),
            )
        except FaultError:
            if not proc.finished and proc.failure is None:
                try:
                    proc.fail(_CollectiveCancelled())
                except _CollectiveCancelled:
                    pass
            raise
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Communicator rank {self.rank}/{self.size}>"
