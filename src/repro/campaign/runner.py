"""The campaign runner: shard, execute, journal, stream, resume.

:func:`run_campaign` is the one entry point.  Given a
:class:`~repro.campaign.spec.CampaignSpec` and a journal path it:

1. fingerprints the spec and derives one cache key per grid point;
2. reads the journal (tolerating damaged lines) and *replays* every
   journaled point — replayed points are never re-executed;
3. dedupes the remaining points against the
   :class:`~repro.perf.cache.EvalCache` (warmed from the journal, plus
   any caller-supplied cache) and against duplicate grid coordinates —
   each distinct key is priced at most once;
4. shards the pending points and pushes them through a
   :class:`~repro.campaign.queue.ShardExecutor` (serial or process
   pool; retries run worker-side under the spec's
   :class:`~repro.campaign.retry.RetryPolicy`);
5. commits each landed shard to the journal — one write, one ``fsync``
   — before any of its points reaches the cache, the :class:`RunStats`
   or ``on_shard``; then emits one :mod:`repro.obs` span per shard and
   streams the shard's partial :class:`~repro.core.results.ResultSet`
   to ``on_shard``;
6. returns the full result set in grid order plus a
   :class:`RunStats` accounting for every point.

Kill the process at any step — the next ``run_campaign`` against the
same journal resumes where it died, re-running at most the shard that
was in flight.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.journal import Journal, JournalEntry, encode_result
from repro.campaign.queue import (
    PointRecord,
    ShardExecutor,
    ShardResult,
    make_executor,
)
from repro.campaign.spec import CampaignSpec
from repro.core.results import Measurement, ResultSet
from repro.errors import ConfigError
from repro.obs.tracer import Tracer, active
from repro.perf.cache import EvalCache

__all__ = ["CampaignRun", "RunStats", "run_campaign"]

#: Callback invoked as each shard lands: (shard ResultSet, stats so far).
ShardCallback = Callable[[ResultSet, "RunStats"], None]


@dataclass
class RunStats:
    """Where every grid point of one run came from."""

    total: int = 0  # grid points in the spec
    unique: int = 0  # distinct cache keys in the grid
    replayed: int = 0  # read back from the journal, not executed
    cache_hits: int = 0  # satisfied by the EvalCache, not executed
    deduped: int = 0  # duplicate grid coordinates sharing a key
    executed: int = 0  # actually priced this run
    retried: int = 0  # executed points that needed > 1 attempt
    recovered: int = 0  # retried points that ended status "ok"
    failures: int = 0  # final status "failure" across the whole grid
    infeasible: int = 0  # final status "infeasible" across the whole grid
    shards: int = 0  # work units dispatched this run
    reassigned: int = 0  # shards redispatched off dead/hung remote workers
    journaled_before: int = 0  # intact journal points found at startup
    journal_skipped: int = 0  # damaged journal lines dropped at startup
    wall_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class CampaignRun:
    """What :func:`run_campaign` hands back."""

    spec_fingerprint: str
    results: ResultSet
    records: List[PointRecord] = field(default_factory=list)  # grid order
    stats: RunStats = field(default_factory=RunStats)

    def results_payload(self) -> Dict[str, Any]:
        """Canonical JSON-able results, independent of execution history.

        Two runs of the same spec — interrupted + resumed, serial,
        pooled — must produce byte-identical payloads; the CI
        kill-and-resume gate compares exactly this.
        """
        return {
            "campaign": self.spec_fingerprint,
            "points": [
                {"status": r.status, "result": encode_result(r.value)}
                for r in self.records
            ],
        }


def _shard(points: List[Any], shard_size: int) -> List[List[Any]]:
    return [points[i : i + shard_size] for i in range(0, len(points), shard_size)]


def _emit_shard_span(
    tracer: Tracer, spec: CampaignSpec, result: ShardResult
) -> None:
    """One span per landed shard, on the campaign's own trace lane.

    Spans live on simulated time: the shard's duration is the sum of its
    measurements' simulated times, so the lane reads like the sweep
    timelines — deterministic content regardless of completion order.
    """
    sim = sum(
        r.value.time for r in result.records if isinstance(r.value, Measurement)
    )
    ok = sum(1 for r in result.records if r.status == "ok")
    retried = sum(1 for r in result.records if r.attempts > 1)
    tracer.complete(
        f"shard{result.shard_index}",
        cat="campaign.shard",
        pid=f"campaign.{spec.name}",
        tid=f"shard{result.shard_index}",
        ts=0.0,
        dur=sim,
        args={
            "points": len(result.records),
            "ok": ok,
            "failed": len(result.records) - ok,
            "retried": retried,
            "wall_s": result.wall_s,
        },
    )


def run_campaign(
    spec: CampaignSpec,
    journal_path: str,
    workers: Optional[int] = None,
    shard_size: int = 4,
    resume: Optional[bool] = None,
    cache: Optional[EvalCache] = None,
    tracer: Optional[Tracer] = None,
    on_shard: Optional[ShardCallback] = None,
    throttle_s: float = 0.0,
    executor: Optional[ShardExecutor] = None,
) -> CampaignRun:
    """Execute (or resume) ``spec``, checkpointing into ``journal_path``.

    ``resume`` policy: ``None`` starts fresh or resumes, whichever the
    journal allows; ``True`` requires an existing journal for this
    campaign; ``False`` requires a fresh one.  A journal written by a
    *different* campaign spec is always a :class:`ConfigError` — resuming
    someone else's checkpoints would corrupt both campaigns.

    ``cache`` joins the journal as a second dedupe tier: points already
    present (e.g. priced by an earlier campaign sharing this cache) are
    taken from it without execution, and everything priced here is put
    back for later campaigns.

    ``executor`` overrides the ``workers``-based selection with a
    pre-built :class:`~repro.campaign.queue.ShardExecutor` — this is how
    a multi-host run hands in a listening
    :class:`~repro.campaign.net.SocketShardExecutor`.  The runner owns
    it from here (it is closed when the run ends) and lends it the
    run's tracer unless it already carries one.
    """
    t0 = time.perf_counter()
    if shard_size < 1:
        raise ConfigError("shard_size must be >= 1")
    spec_fp = spec.fingerprint()
    keys = spec.keys(spec_fp)
    stats = RunStats(total=len(spec.points), unique=len(set(keys)))

    # ---------------------------------------------------- journal replay
    read = Journal.read(journal_path)
    stats.journal_skipped = read.skipped
    if read.header is not None and read.header.get("campaign") != spec_fp:
        raise ConfigError(
            f"journal {journal_path!r} belongs to campaign "
            f"{read.header.get('name')!r} ({read.header.get('campaign')!r}), "
            f"not {spec.name!r} ({spec_fp!r}); refusing to mix checkpoints"
        )
    journaled = read.by_key()
    stats.journaled_before = len(journaled)
    if resume is True and read.header is None:
        raise ConfigError(
            f"nothing to resume: journal {journal_path!r} has no intact "
            "header (was the campaign ever started?)"
        )
    if resume is False and (read.header is not None or journaled):
        raise ConfigError(
            f"journal {journal_path!r} already holds "
            f"{len(journaled)} point(s); use resume semantics or a "
            "fresh journal path"
        )

    cache = cache if cache is not None else EvalCache()
    cache.warm(
        (key, entry.result())
        for key, entry in journaled.items()
        if entry.status == "ok"
    )

    # ------------------------------------------------- plan the pending set
    by_index: Dict[int, PointRecord] = {}
    key_owner: Dict[str, int] = {}  # key -> first grid index computing it
    pending: List[Any] = []  # (index, key, point) triples
    for index, (point, key) in enumerate(zip(spec.points, keys)):
        entry = journaled.get(key)
        if entry is not None:
            by_index[index] = PointRecord(
                index=index,
                key=key,
                status=entry.status,
                value=entry.result(),
                attempts=entry.attempts,
                relaxation=entry.relaxation,
            )
            stats.replayed += 1
            continue
        if key in key_owner:
            stats.deduped += 1  # resolved after the owner executes
            continue
        if key in cache:
            by_index[index] = PointRecord(
                index=index, key=key, status="ok", value=cache.get(key)
            )
            key_owner[key] = index
            stats.cache_hits += 1
            continue
        key_owner[key] = index
        pending.append((index, key, point))

    # ------------------------------------------------------------ execute
    journal = Journal(journal_path)
    tr = active(tracer)
    try:
        if read.header is None:
            journal.write_header(spec_fp, spec.name, total=len(spec.points))
        # Cache hits become journal entries too, so the *next* resume
        # replays them even without this cache.
        hits = [
            JournalEntry(
                key=record.key,
                index=index,
                status="ok",
                payload=encode_result(record.value),
            )
            for index, record in sorted(by_index.items())
            if record.key not in journaled and record.status == "ok"
        ]
        if hits:
            journal.append_point(*hits)

        shards = _shard(pending, shard_size)
        if executor is None:
            executor = make_executor(spec, workers, throttle_s)
        if tr is not None and getattr(executor, "tracer", False) is None:
            executor.tracer = tr  # lend the run's tracer to net executors
        with executor:
            for shard_index, shard in enumerate(shards):
                executor.submit(shard_index, shard)
            stats.shards = len(shards)
            for result in executor.completed():
                journal.append_point(
                    *(
                        JournalEntry(
                            key=record.key,
                            index=record.index,
                            status=record.status,
                            payload=encode_result(record.value),
                            attempts=record.attempts,
                            relaxation=record.relaxation,
                        )
                        for record in result.records
                    )
                )
                shard_set = ResultSet()
                for record in result.records:
                    by_index[record.index] = record
                    stats.executed += 1
                    if record.attempts > 1:
                        stats.retried += 1
                        if record.status == "ok":
                            stats.recovered += 1
                    if record.status == "ok":
                        cache.put(record.key, record.value)
                        shard_set.add(record.value)
                    elif record.status == "failure":
                        shard_set.record_failure(record.value)
                if tr is not None:
                    _emit_shard_span(tr, spec, result)
                if on_shard is not None:
                    on_shard(shard_set, stats)
            stats.reassigned = getattr(executor, "reassigned", 0)
    finally:
        journal.close()

    # -------------------------------------- assemble results in grid order
    records: List[PointRecord] = []
    results = ResultSet()
    for index, key in enumerate(keys):
        record = by_index.get(index)
        if record is None:  # a duplicate coordinate: mirror its owner
            owner = by_index[key_owner[key]]
            record = PointRecord(
                index=index,
                key=key,
                status=owner.status,
                value=owner.value,
                attempts=owner.attempts,
                relaxation=owner.relaxation,
            )
        records.append(record)
        if record.status == "ok":
            results.add(record.value)
        elif record.status == "failure":
            results.record_failure(record.value)
            stats.failures += 1
        else:
            stats.infeasible += 1

    stats.wall_s = time.perf_counter() - t0
    return CampaignRun(
        spec_fingerprint=spec_fp,
        results=results,
        records=records,
        stats=stats,
    )
