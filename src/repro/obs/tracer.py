"""Span recording against the *simulated* clock.

A :class:`Tracer` collects :class:`TraceEvent` records — nested begin/end
spans, instants, and counter samples — labelled with a process lane
(``pid``), a thread lane (``tid``, e.g. ``rank3``), and a category
(``mpi.coll``, ``offload.pcie``, …).  Timestamps come from a pluggable
clock, normally an :class:`~repro.simcore.engine.Engine`'s virtual ``now``,
so a trace shows where *simulated* time goes, in the style of Vampir /
Score-P timelines.

Tracing is strictly opt-in: instrumented code paths take ``tracer=None``
defaults and guard every hook with a single attribute check, and the
:data:`NULL_TRACER` singleton turns every operation into a no-op for call
sites that want an always-valid object.

Exporters (Chrome trace-event JSON, SHA-256 digests) live in
:mod:`repro.obs.export`; the terminal renderer in
:mod:`repro.obs.timeline`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Clock = Callable[[], float]
Args = Optional[Dict[str, Any]]
LaneKey = Tuple[str, str]


class TraceEvent:
    """One trace record.

    ``ph`` follows the Chrome trace-event phase codes used by the
    exporter: ``"X"`` (complete span, has ``dur``), ``"i"`` (instant),
    ``"C"`` (counter sample, value in ``args``).  Times are simulated
    seconds; the exporter converts to microseconds.
    """

    __slots__ = ("ph", "name", "cat", "pid", "tid", "ts", "dur", "args", "depth")

    def __init__(
        self,
        ph: str,
        name: str,
        cat: str,
        pid: str,
        tid: str,
        ts: float,
        dur: float = 0.0,
        args: Args = None,
        depth: int = 0,
    ):
        self.ph = ph
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.ts = ts
        self.dur = dur
        self.args = args
        self.depth = depth

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TraceEvent {self.ph} {self.name!r} [{self.cat}] "
            f"{self.pid}/{self.tid} ts={self.ts:.9f} dur={self.dur:.9f}>"
        )


class Span:
    """An open span handle returned by :meth:`Tracer.begin`.

    Closed by :meth:`Tracer.end` (or the :meth:`Tracer.span` context
    manager), which appends the completed :class:`TraceEvent`.
    """

    __slots__ = ("name", "cat", "pid", "tid", "ts", "args", "depth")

    def __init__(
        self,
        name: str,
        cat: str,
        pid: str,
        tid: str,
        ts: float,
        args: Args,
        depth: int,
    ):
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.ts = ts
        self.args = args
        self.depth = depth


class _SpanContext:
    """``with tracer.span(...):`` support (usable inside generators)."""

    __slots__ = ("_tracer", "_name", "_cat", "_pid", "_tid", "_args", "_span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        pid: str,
        tid: str,
        args: Args,
    ):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._pid = pid
        self._tid = tid
        self._args = args
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer.begin(
            self._name, cat=self._cat, pid=self._pid, tid=self._tid, args=self._args
        )
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._span is not None:
            self._tracer.end(self._span)
        return False


class _NullContext:
    """Reusable do-nothing context manager (the disabled-tracer path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects span/instant/counter events against a pluggable clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time in seconds.
        Defaults to a constant 0.0 clock; :meth:`bind_engine` rebinds it
        to a simulation engine's virtual ``now``.
    """

    enabled: bool = True

    def __init__(self, clock: Optional[Clock] = None):
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self.events: List[TraceEvent] = []
        self._open: Dict[LaneKey, List[Span]] = {}
        self._matrix: Dict[Tuple[int, int], List[float]] = {}

    # ------------------------------------------------------------ clock

    def bind_engine(self, engine: Any) -> "Tracer":
        """Read time from ``engine.now`` and attach self as its tracer."""
        self._clock = lambda: engine.now
        engine.tracer = self
        return self

    @property
    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------ spans

    def span(
        self,
        name: str,
        cat: str = "span",
        pid: str = "sim",
        tid: str = "main",
        args: Args = None,
    ) -> Any:
        """Context manager recording one complete span around its body."""
        return _SpanContext(self, name, cat, pid, tid, args)

    def begin(
        self,
        name: str,
        cat: str = "span",
        pid: str = "sim",
        tid: str = "main",
        args: Args = None,
    ) -> Optional[Span]:
        """Open a span now; close it with :meth:`end`.

        Spans on the same (pid, tid) lane nest: the recorded ``depth`` is
        the number of already-open spans on the lane at begin time.
        """
        stack = self._open.setdefault((pid, tid), [])
        span = Span(name, cat, pid, tid, self._clock(), args, len(stack))
        stack.append(span)
        return span

    def end(self, span: Optional[Span]) -> None:
        """Close ``span``, appending its completed event.

        Out-of-order closes (overlapping non-blocking operations on one
        rank lane) are tolerated: the handle is removed from wherever it
        sits in the lane's open stack.
        """
        if span is None:
            return
        stack = self._open.get((span.pid, span.tid))
        if stack is None or span not in stack:
            raise ValueError(f"span {span.name!r} is not open")
        stack.remove(span)
        ts_end = self._clock()
        self.events.append(
            TraceEvent(
                "X",
                span.name,
                span.cat,
                span.pid,
                span.tid,
                span.ts,
                dur=max(0.0, ts_end - span.ts),
                args=span.args,
                depth=span.depth,
            )
        )

    def complete(
        self,
        name: str,
        cat: str = "span",
        pid: str = "sim",
        tid: str = "main",
        ts: float = 0.0,
        dur: float = 0.0,
        args: Args = None,
        depth: int = 0,
    ) -> None:
        """Record a pre-computed complete span (analytic cost models)."""
        self.events.append(
            TraceEvent("X", name, cat, pid, tid, ts, dur=dur, args=args, depth=depth)
        )

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append pre-built events in order (a replayed job's whole trace)."""
        self.events.extend(events)

    # ------------------------------------------------ instants & counters

    def instant(
        self,
        name: str,
        cat: str = "event",
        pid: str = "sim",
        tid: str = "main",
        args: Args = None,
    ) -> None:
        """Record a zero-duration marker at the current clock."""
        self.events.append(
            TraceEvent("i", name, cat, pid, tid, self._clock(), args=args)
        )

    def counter(
        self,
        name: str,
        value: float,
        cat: str = "counter",
        pid: str = "sim",
        tid: str = "main",
    ) -> None:
        """Record a counter sample (rendered as a track in Perfetto)."""
        self.events.append(
            TraceEvent("C", name, cat, pid, tid, self._clock(), args={"value": value})
        )

    # ------------------------------------------------ message-size matrix

    def message(self, src: int, dst: int, nbytes: int) -> None:
        """Account one point-to-point message into the (src, dst) matrix."""
        cell = self._matrix.get((src, dst))
        if cell is None:
            self._matrix[(src, dst)] = [float(nbytes), 1.0]
        else:
            cell[0] += nbytes
            cell[1] += 1.0

    def comm_matrix(self) -> Dict[Tuple[int, int], Dict[str, float]]:
        """The accumulated per-pair traffic: bytes and message counts."""
        return {
            pair: {"bytes": cell[0], "messages": int(cell[1])}
            for pair, cell in sorted(self._matrix.items())
        }

    # ------------------------------------------------------------ queries

    def open_spans(self) -> int:
        """Number of spans begun but not yet ended (0 after a clean run)."""
        return sum(len(stack) for stack in self._open.values())

    def lanes(self) -> List[LaneKey]:
        """(pid, tid) lanes in first-appearance order."""
        seen: Dict[LaneKey, None] = {}
        for e in self.events:
            seen.setdefault((e.pid, e.tid), None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tracer events={len(self.events)} open={self.open_spans()}>"


class NullTracer(Tracer):
    """A disabled tracer: every operation is a no-op.

    ``enabled`` is False, so instrumented code that checks
    ``tracer.enabled`` (or uses :func:`active`) skips its hooks entirely;
    code that calls straight through still records nothing.
    """

    enabled = False

    def span(
        self,
        name: str,
        cat: str = "span",
        pid: str = "sim",
        tid: str = "main",
        args: Args = None,
    ) -> Any:
        return NULL_CONTEXT

    def begin(
        self,
        name: str,
        cat: str = "span",
        pid: str = "sim",
        tid: str = "main",
        args: Args = None,
    ) -> Optional[Span]:
        return None

    def end(self, span: Optional[Span]) -> None:
        return None

    def complete(
        self,
        name: str,
        cat: str = "span",
        pid: str = "sim",
        tid: str = "main",
        ts: float = 0.0,
        dur: float = 0.0,
        args: Args = None,
        depth: int = 0,
    ) -> None:
        return None

    def extend(self, events: Iterable[TraceEvent]) -> None:
        return None

    def instant(
        self,
        name: str,
        cat: str = "event",
        pid: str = "sim",
        tid: str = "main",
        args: Args = None,
    ) -> None:
        return None

    def counter(
        self,
        name: str,
        value: float,
        cat: str = "counter",
        pid: str = "sim",
        tid: str = "main",
    ) -> None:
        return None

    def message(self, src: int, dst: int, nbytes: int) -> None:
        return None


#: Shared disabled tracer for call sites that want an always-valid object.
NULL_TRACER = NullTracer()


def active(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """``tracer`` if it is a live, enabled tracer, else ``None``.

    The idiom for instrumentation hooks::

        tr = active(self.tracer)
        if tr is not None:
            tr.instant(...)
    """
    if tracer is not None and tracer.enabled:
        return tracer
    return None
