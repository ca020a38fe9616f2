"""Tests for the campaign runner: resume, dedupe, retry, streaming.

The contracts under test are the CI gate's assertions in miniature:

* serial, pooled, and killed-then-resumed executions of one spec all
  produce **byte-identical** canonical results payloads;
* a resumed run re-executes **zero** journaled points;
* a ``capture_failures`` death under a fault plan is retried under a
  progressively relaxed plan and recovers.

Everything here is numpy-free: point functions are synthetic.
"""

import json
import math
import shutil
import warnings
from functools import partial
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    Journal,
    RetryPolicy,
    run_campaign,
)
from repro.campaign.queue import execute_point
from repro.core.results import Failure, Measurement
from repro.errors import ConfigError, SimulationError
from repro.faults.plan import FaultPlan, LinkDegradation, MemoryPressure
from repro.perf.cache import EvalCache

_GiB = 2**30


# --------------------------------------------------------------------------
# module-level point functions (pickle into pools, fingerprint stably)
# --------------------------------------------------------------------------


def _plain_point(point, fault_plan):
    return Measurement(name="pt", time=point * 1e-6, config={"p": point})


def _counting_point(count_path, point, fault_plan):
    """A point that tallies every execution into a file (pool-safe)."""
    with open(count_path, "a") as fh:
        fh.write(f"{point}\n")
    return Measurement(name="pt", time=point * 1e-6, config={"p": point})


def _pressure_point(point, fault_plan):
    """Dies under memory pressure; prices cleanly once it is relaxed away."""
    if fault_plan is not None:
        fault_plan.check_footprint(10 * _GiB, 16 * _GiB, what=f"pt{point}")
    return Measurement(name="pt", time=point * 1e-6, config={"p": point})


def _dying_point(point, fault_plan):
    raise SimulationError(f"point {point} always dies")


def _executions(count_path):
    try:
        return open(count_path).read().splitlines()
    except FileNotFoundError:
        return []


def _spec(points=(1, 2, 3, 4, 5), **kw):
    kw.setdefault("name", "toy")
    kw.setdefault("point_fn", _plain_point)
    return CampaignSpec(points=points, **kw)


def _payload(run):
    return json.dumps(run.results_payload(), sort_keys=True)


# --------------------------------------------------------------------------
# execution modes agree
# --------------------------------------------------------------------------


class TestExecutionModes:
    def test_serial_and_pooled_payloads_identical(self, tmp_path):
        spec = _spec(points=tuple(range(1, 11)))
        serial = run_campaign(spec, str(tmp_path / "s.jsonl"), shard_size=3)
        pooled = run_campaign(
            spec, str(tmp_path / "p.jsonl"), workers=2, shard_size=3
        )
        assert _payload(serial) == _payload(pooled)
        assert serial.stats.executed == pooled.stats.executed == 10
        assert pooled.stats.shards == 4

    def test_results_arrive_in_grid_order(self, tmp_path):
        spec = _spec(points=(5, 1, 4, 2, 3))
        run = run_campaign(spec, str(tmp_path / "j.jsonl"), shard_size=2)
        assert [m.config["p"] for m in run.results] == [5, 1, 4, 2, 3]

    def test_shard_size_never_changes_results(self, tmp_path):
        spec = _spec()
        payloads = {
            _payload(run_campaign(spec, str(tmp_path / f"j{k}.jsonl"), shard_size=k))
            for k in (1, 2, 5)
        }
        assert len(payloads) == 1

    def test_on_shard_streams_partial_results(self, tmp_path):
        spec = _spec(points=tuple(range(6)))
        seen = []
        run_campaign(
            spec,
            str(tmp_path / "j.jsonl"),
            shard_size=2,
            on_shard=lambda rs, stats: seen.append((len(rs), stats.executed)),
        )
        assert [n for n, _ in seen] == [2, 2, 2]
        assert [e for _, e in seen] == [2, 4, 6]

    def test_shard_spans_reach_the_tracer(self, tmp_path):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        spec = _spec(points=tuple(range(6)))
        run_campaign(
            spec, str(tmp_path / "j.jsonl"), shard_size=2, tracer=tracer
        )
        assert len(tracer) == 3  # one span per shard

    def test_unavailable_pool_warns_once_naming_the_cause(self, monkeypatch):
        import concurrent.futures

        from repro.campaign.queue import SerialShardExecutor, make_executor

        def no_pool(*args, **kwargs):
            raise OSError(38, "no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor = make_executor(_spec(), workers=2)
        assert isinstance(executor, SerialShardExecutor)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "no semaphores" in str(runtime[0].message)

    def test_importing_the_library_loads_no_process_pool(self):
        # The campaign pool imports concurrent.futures and multiprocessing
        # only when it is built, numpy loads on the first array built, and
        # repro.analyze on the first compiled job's static profile;
        # importing the library must not pay for them.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys\n"
            "import repro.mpi.compile, repro.figures, repro.core.sweep, "
            "repro.campaign\n"
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing',"
            " 'numpy', 'repro.analyze') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.stdout.strip() == "[]"


# --------------------------------------------------------------------------
# resume: the kill-and-resume contract
# --------------------------------------------------------------------------


class TestResume:
    def test_resume_reexecutes_nothing(self, tmp_path):
        count = str(tmp_path / "count")
        spec = _spec(point_fn=partial(_counting_point, count))
        journal = str(tmp_path / "j.jsonl")
        first = run_campaign(spec, journal)
        assert len(_executions(count)) == 5
        second = run_campaign(spec, journal, resume=True)
        assert len(_executions(count)) == 5  # zero new executions
        assert second.stats.executed == 0
        assert second.stats.replayed == 5
        assert second.stats.journaled_before == 5
        assert _payload(first) == _payload(second)

    def test_interrupted_run_resumes_where_it_died(self, tmp_path):
        count = str(tmp_path / "count")
        spec = _spec(point_fn=partial(_counting_point, count))
        journal = str(tmp_path / "j.jsonl")
        reference = run_campaign(spec, str(tmp_path / "ref.jsonl"))

        # "Kill" a run after two journaled points: run fully, then chop
        # the journal back to header + 2 points + a half-written line —
        # exactly what a SIGKILL mid-append leaves behind.
        run_campaign(spec, journal)
        lines = open(journal).read().splitlines()
        open(journal, "w").write("\n".join(lines[:3]) + '\n{"kind": "po')

        open(count, "w").close()  # reset the execution tally
        # The torn final line is the expected SIGKILL signature: resume
        # skips it silently (no warning, not counted as damage) and
        # simply re-executes the in-flight point.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = run_campaign(spec, journal, resume=True)
        assert resumed.stats.journal_skipped == 0
        assert resumed.stats.journaled_before == 2
        assert resumed.stats.replayed == 2
        assert resumed.stats.executed == 3
        assert sorted(_executions(count)) == ["3", "4", "5"]
        assert _payload(resumed) == _payload(reference)

    def test_resume_requires_an_existing_journal(self, tmp_path):
        with pytest.raises(ConfigError, match="nothing to resume"):
            run_campaign(_spec(), str(tmp_path / "absent.jsonl"), resume=True)

    def test_fresh_requires_an_absent_journal(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        run_campaign(_spec(), journal)
        with pytest.raises(ConfigError, match="already holds"):
            run_campaign(_spec(), journal, resume=False)

    def test_foreign_campaign_journal_is_refused(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        run_campaign(_spec(name="alpha"), journal)
        with pytest.raises(ConfigError, match="refusing to mix"):
            run_campaign(_spec(name="beta"), journal)

    def test_resume_across_worker_counts(self, tmp_path):
        # Execution parameters are not campaign identity: a run made
        # with a pool resumes serially against the same journal.
        spec = _spec(points=tuple(range(8)))
        journal = str(tmp_path / "j.jsonl")
        first = run_campaign(spec, journal, workers=2, shard_size=2)
        resumed = run_campaign(spec, journal, resume=True, workers=None)
        assert resumed.stats.executed == 0
        assert _payload(first) == _payload(resumed)


# --------------------------------------------------------------------------
# shard commits: one write and one fsync per landed shard
# --------------------------------------------------------------------------


class TestShardCommits:
    @pytest.mark.parametrize("shard_size", [1, 2, 3, 5, 8])
    def test_fresh_run_fsyncs_header_plus_one_per_shard(
        self, tmp_path, fsync_calls, shard_size
    ):
        n = 7
        run = run_campaign(
            _spec(points=tuple(range(1, n + 1))),
            str(tmp_path / "j.jsonl"),
            shard_size=shard_size,
        )
        assert run.stats.executed == n
        assert len(fsync_calls) == 1 + math.ceil(n / shard_size)

    def test_journaled_cache_hits_are_one_more_commit(
        self, tmp_path, fsync_calls
    ):
        spec = _spec()  # points 1..5
        fp = spec.fingerprint()
        cache = EvalCache()
        for p in (1, 2):
            cache.put(spec.point_key(fp, p), _plain_point(p, None))
        journal = str(tmp_path / "j.jsonl")
        run = run_campaign(spec, journal, shard_size=2, cache=cache)
        assert run.stats.cache_hits == 2
        assert run.stats.executed == 3
        assert len(fsync_calls) == 1 + math.ceil(3 / 2) + 1
        assert len(Journal.read(journal).entries) == 5

    def test_resume_fsyncs_nothing(self, tmp_path, fsync_calls):
        spec = _spec()
        journal = str(tmp_path / "j.jsonl")
        run_campaign(spec, journal, shard_size=2)
        fsync_calls.clear()
        resumed = run_campaign(spec, journal, shard_size=2, resume=True)
        assert resumed.stats.executed == 0
        assert fsync_calls == []

    def test_shard_is_durable_before_on_shard_sees_it(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        seen = []
        run_campaign(
            _spec(points=tuple(range(7))),
            journal,
            shard_size=3,
            on_shard=lambda rs, stats: seen.append(
                (stats.executed, len(Journal.read(journal).entries))
            ),
        )
        assert seen == [(3, 3), (6, 6), (7, 7)]

    def test_kill_inside_a_shard_commit_resumes_that_shard(self, tmp_path):
        count = str(tmp_path / "count")
        spec = _spec(
            points=(1, 2, 3, 4, 5, 6), point_fn=partial(_counting_point, count)
        )
        journal = str(tmp_path / "j.jsonl")
        reference = run_campaign(
            spec, str(tmp_path / "ref.jsonl"), shard_size=3
        )

        # Header, then two 3-point commits.  Tear the file inside the
        # second commit's middle line: a kill mid-write leaves its first
        # line whole and the second torn.
        run_campaign(spec, journal, shard_size=3)
        lines = open(journal).read().splitlines()
        assert len(lines) == 7
        cut = lines[5][: len(lines[5]) // 2]
        open(journal, "w").write("\n".join(lines[:5]) + "\n" + cut)

        open(count, "w").close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = run_campaign(spec, journal, shard_size=3, resume=True)
        assert resumed.stats.journal_skipped == 0
        assert resumed.stats.replayed == 4
        assert resumed.stats.executed == 2
        assert sorted(_executions(count)) == ["5", "6"]
        assert _payload(resumed) == _payload(reference)


# --------------------------------------------------------------------------
# dedupe tiers
# --------------------------------------------------------------------------


class TestDedupe:
    def test_duplicate_coordinates_price_once(self, tmp_path):
        count = str(tmp_path / "count")
        spec = _spec(points=(1, 2, 1, 3, 2), point_fn=partial(_counting_point, count))
        run = run_campaign(spec, str(tmp_path / "j.jsonl"))
        assert len(_executions(count)) == 3
        assert run.stats.deduped == 2
        assert run.stats.unique == 3
        assert len(run.records) == 5  # duplicates mirrored in grid order
        assert [m.config["p"] for m in run.results] == [1, 2, 1, 3, 2]

    def test_eval_cache_joins_the_dedupe(self, tmp_path):
        count = str(tmp_path / "count")
        spec = _spec(points=(1, 2, 3), point_fn=partial(_counting_point, count))
        cache = EvalCache()
        run_campaign(spec, str(tmp_path / "a.jsonl"), cache=cache)
        assert len(_executions(count)) == 3
        # Same spec, fresh journal, shared cache: nothing re-executes.
        second = run_campaign(spec, str(tmp_path / "b.jsonl"), cache=cache)
        assert len(_executions(count)) == 3
        assert second.stats.cache_hits == 3
        assert second.stats.executed == 0
        # ... and the hits were journaled, so a third run needs neither
        # the cache nor the point function.
        third = run_campaign(spec, str(tmp_path / "b.jsonl"))
        assert third.stats.replayed == 3


# --------------------------------------------------------------------------
# retry policy
# --------------------------------------------------------------------------


class TestRetry:
    def test_pressure_death_recovers_under_relaxation(self, tmp_path):
        plan = FaultPlan([MemoryPressure(capacity_factor=0.5)])
        spec = _spec(
            point_fn=_pressure_point,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2),
        )
        run = run_campaign(spec, str(tmp_path / "j.jsonl"))
        assert run.stats.failures == 0
        assert run.stats.retried == 5
        assert run.stats.recovered == 5
        assert all(r.attempts == 2 and r.relaxation == 1 for r in run.records)

    def test_exhausted_retries_become_failures(self, tmp_path):
        plan = FaultPlan([LinkDegradation(latency_factor=4.0)])
        spec = _spec(
            points=(1, 2),
            point_fn=_dying_point,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3),
        )
        run = run_campaign(spec, str(tmp_path / "j.jsonl"))
        assert run.stats.failures == 2
        assert run.stats.recovered == 0
        assert all(isinstance(f, Failure) for f in run.results.failures)
        assert all(r.attempts == 3 for r in run.records)

    def test_relaxation_convergence_short_circuits(self):
        # MemoryPressure is dropped at the first relaxation; after that
        # the plan stops changing, so a deterministic death is not
        # retried under identical conditions.
        plan = FaultPlan([MemoryPressure(capacity_factor=0.5)])
        spec = _spec(
            points=(1,),
            point_fn=_dying_point,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=5),
        )
        record = execute_point(spec, 0, "k", 1)
        assert record.status == "failure"
        assert record.attempts == 2  # attempts 3..5 never ran

    def test_no_plan_means_no_retries(self, tmp_path):
        spec = _spec(
            points=(1,), point_fn=_dying_point, retry=RetryPolicy(max_attempts=4)
        )
        run = run_campaign(spec, str(tmp_path / "j.jsonl"))
        assert run.records[0].attempts == 1
        assert run.stats.failures == 1

    def test_retried_failures_replay_on_resume(self, tmp_path):
        plan = FaultPlan([LinkDegradation(latency_factor=4.0)])
        spec = _spec(
            points=(1, 2),
            point_fn=_dying_point,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2),
        )
        journal = str(tmp_path / "j.jsonl")
        first = run_campaign(spec, journal)
        resumed = run_campaign(spec, journal, resume=True)
        assert resumed.stats.executed == 0  # failures are checkpoints too
        assert _payload(first) == _payload(resumed)
        assert resumed.records[0].attempts == 2  # retry info survives


# --------------------------------------------------------------------------
# fig22 exchange probes ride the whole-job memo
# --------------------------------------------------------------------------


class TestFig22JobMemo:
    def test_second_pass_prices_with_zero_engine_steps(self):
        pytest.importorskip("numpy")  # the fig22 dataset layer needs it
        import repro.campaign.experiments as E

        # Distinct rank counts (16, 8, 56): same-rank decompositions on
        # one device share a memo key and would warm-hit pass one.
        points = [("host", 4, 4), ("host", 2, 4), ("phi0", 4, 14)]
        E.reset_job_stats()
        try:
            first = [E.fig22_point("DLRF6-Medium", pt, None) for pt in points]
            assert E.JOB_STATS.get("stepped", 0) == 0
            assert E.JOB_STATS.get("memo", 0) == 0
            assert sum(E.JOB_STATS.values()) == len(points)
            cold = dict(E.JOB_STATS)
            second = [E.fig22_point("DLRF6-Medium", pt, None) for pt in points]
            # Every probe of the second pass is a warm memo hit: no
            # engine step, no replay, O(1) per decomposition.
            assert E.JOB_STATS.get("memo", 0) == len(points)
            assert E.JOB_STATS.get("stepped", 0) == 0
            for key, n in cold.items():
                assert E.JOB_STATS.get(key, 0) == n  # cold paths untouched
            for a, b in zip(first, second):
                assert a.config["exchange_elapsed_s"] == (
                    b.config["exchange_elapsed_s"]
                )
                assert a.time == b.time  # the probe never touches .time
        finally:
            E.reset_job_stats()

    def test_payload_independent_of_memo_history(self, tmp_path):
        pytest.importorskip("numpy")
        import repro.campaign.experiments as E

        def payload(name):
            spec = E.build_spec("fig22", quick=True)
            run = run_campaign(spec, str(tmp_path / name))
            return json.dumps(run.results_payload(), sort_keys=True)

        E.reset_job_stats()
        try:
            cold = payload("cold.jsonl")
            warm = payload("warm.jsonl")  # every probe is now a memo hit
            assert E.JOB_STATS.get("memo", 0) > 0
            assert cold == warm
        finally:
            E.reset_job_stats()

    def test_trivial_decompositions_carry_no_probe(self):
        pytest.importorskip("numpy")
        import repro.campaign.experiments as E

        E.reset_job_stats()
        try:
            m = E.fig22_point("DLRF6-Medium", ("host", 1, 1), None)
            assert "exchange_elapsed_s" not in m.config
            assert E.JOB_STATS == {}
        finally:
            E.reset_job_stats()


class TestHaloJobPaths:
    def test_stepped_crash_attempts_are_counted(self, tmp_path):
        # The demo plan's rank crash kills every first attempt on the
        # event engine; the relaxed retry replays.  Both reach JOB_STATS.
        import repro.campaign.experiments as E

        spec = E.build_spec("halo", quick=True, fault_plan=E.demo_plan("halo"))
        E.reset_job_stats()
        try:
            run = run_campaign(spec, str(tmp_path / "j.jsonl"))
            n = len(spec.points)
            assert run.stats.recovered == n
            assert E.JOB_STATS == {"stepped": n, "replay": n}
        finally:
            E.reset_job_stats()


# --------------------------------------------------------------------------
# keys across library versions: a journal written by an older library
# --------------------------------------------------------------------------

#: ``repro campaign run halo --quick --faults demo``, journaled by the
#: library as it stood before its key walk kept per-type rules, under
#: :func:`_stub_code_digest` (see :func:`write_halo_journal`).
HALO_JOURNAL = Path(__file__).with_name("halo_quick_journal.jsonl")


def _stub_code_digest(code):
    """A stand-in for the bytecode digest in every key: bytecode differs
    between Python versions, and this gate is about the walk around it."""
    return f"code:{code.co_name}"


def _halo_spec():
    from repro.campaign.experiments import build_spec, demo_plan

    return build_spec("halo", quick=True, fault_plan=demo_plan("halo"))


def write_halo_journal(path):
    """How :data:`HALO_JOURNAL` was written (run it against the library
    whose keys the journal should hold)."""
    from repro.perf import cache

    real, cache._code_digest = cache._code_digest, _stub_code_digest
    try:
        return run_campaign(_halo_spec(), str(path))
    finally:
        cache._code_digest = real


class TestOlderJournal:
    def test_halo_journal_resumes_with_nothing_reexecuted(
        self, tmp_path, monkeypatch
    ):
        from repro.perf import cache

        monkeypatch.setattr(cache, "_code_digest", _stub_code_digest)
        journal = tmp_path / "halo.jsonl"
        shutil.copyfile(HALO_JOURNAL, journal)
        spec = _halo_spec()
        resumed = run_campaign(spec, str(journal), resume=True)
        assert resumed.stats.executed == 0
        assert resumed.stats.replayed == len(spec.points)
        assert journal.read_bytes() == HALO_JOURNAL.read_bytes()
        # The journaled payload is the one this library prices afresh.
        fresh = run_campaign(spec, str(tmp_path / "fresh.jsonl"))
        assert fresh.stats.executed == len(spec.points)
        assert _payload(resumed) == _payload(fresh)
