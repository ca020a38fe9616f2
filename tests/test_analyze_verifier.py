"""Dynamic verifier: races, leaks, mismatches, deadlines, zero overhead."""

import json
from functools import partial

import pytest

from repro.analyze import Verifier, verify_mpiexec
from repro.analyze.verifier import _concurrent, _leq
from repro.errors import FaultError
from repro.mpi.collectives import ALGORITHMS
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.mpi.runtime import MpiJob, mpiexec


def kinds(report):
    return sorted({issue.kind for issue in report.issues})


class TestVectorClocks:
    def test_leq_and_concurrency(self):
        assert _leq((1, 0), (1, 1))
        assert not _leq((2, 0), (1, 1))
        assert _concurrent((2, 0), (0, 2))
        assert not _concurrent((1, 0), (1, 1))


class TestWildcardRace:
    def test_two_concurrent_senders_flagged(self):
        def race(comm):
            if comm.rank == 0:
                a = yield from comm.recv()
                b = yield from comm.recv()
                return (a.source, b.source)
            yield from comm.send(0, nbytes=8, tag=7)

        result, report = verify_mpiexec(3, host_fabric(), race)
        assert not report.ok
        assert report.count("wildcard-race") >= 1
        assert kinds(report) == ["wildcard-race"]
        assert result.completed

    def test_ordered_senders_clean(self):
        # Rank 2 only sends after receiving from rank 1: the second
        # wildcard match happens-after the first send, so no race.
        def ordered(comm):
            if comm.rank == 0:
                a = yield from comm.recv()
                b = yield from comm.recv()
                return (a.source, b.source)
            if comm.rank == 1:
                yield from comm.send(0, nbytes=8)
                yield from comm.send(2, nbytes=8)
            else:
                env = yield from comm.recv(source=1)
                yield from comm.send(0, nbytes=env.nbytes)

        result, report = verify_mpiexec(3, host_fabric(), ordered)
        assert report.ok, report.render()

    def test_explicit_source_recvs_clean(self):
        def explicit(comm):
            if comm.rank == 0:
                a = yield from comm.recv(source=1)
                b = yield from comm.recv(source=2)
                return (a.source, b.source)
            yield from comm.send(0, nbytes=8)

        _result, report = verify_mpiexec(3, host_fabric(), explicit)
        assert report.ok, report.render()


class TestLeaksAndUnmatched:
    def test_leaked_irecv_flagged(self):
        def leak(comm):
            if comm.rank == 0:
                comm.irecv(source=1)
                yield from comm.compute(1e-6)
                return None
            yield from comm.send(0, nbytes=8)

        result, report = verify_mpiexec(2, host_fabric(), leak)
        assert report.count("leaked-request") == 1
        issue = report.issues[0]
        assert issue.rank == 0
        assert "irecv" in issue.detail

    def test_cancelled_request_not_reported(self):
        def cancel(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                req.cancel()
                yield from comm.compute(1e-6)
                return None
            yield from comm.send(0, nbytes=8)

        _result, report = verify_mpiexec(2, host_fabric(), cancel)
        assert report.count("leaked-request") == 0

    def test_unreceived_message_flagged(self):
        def dangling(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=8, tag=3)  # eager: detaches
            else:
                yield from comm.compute(1e-6)

        result, report = verify_mpiexec(2, host_fabric(), dangling)
        assert result.completed
        assert report.count("unmatched-envelope") == 1
        assert "tag 3" in report.issues[0].detail


class TestCollectiveMismatch:
    def test_divergent_kinds_flagged_with_run_error(self):
        def mismatch(comm):
            if comm.rank == 0:
                yield from comm.bcast(42)
            else:
                yield from comm.allreduce(1)

        result, report = verify_mpiexec(4, host_fabric(), mismatch)
        assert result is None  # the job deadlocked
        assert report.count("run-error") == 1
        assert report.count("collective-mismatch") == 3
        assert "allreduce" in report.issues[-1].detail

    @pytest.mark.parametrize(
        "experiment", ["allreduce", "bcast", "allgather", "alltoall", "halo"]
    )
    def test_collective_experiments_clean(self, experiment):
        # The Fig 10-13 style experiments must verify clean on both fabrics.
        from repro.cli import _verify_main

        main = _verify_main(experiment, 4096)
        for fabric in (host_fabric(), phi_fabric(3)):
            _result, report = verify_mpiexec(8, fabric, main)
            assert report.ok, f"{experiment}: {report.render()}"


class TestReport:
    def test_json_round_trip(self):
        def race(comm):
            if comm.rank == 0:
                a = yield from comm.recv()
                b = yield from comm.recv()
            else:
                yield from comm.send(0, nbytes=8)

        _result, report = verify_mpiexec(3, host_fabric(), race)
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["n_ranks"] == 3
        assert data["stats"]["sends"] == 2
        assert data["issues"][0]["kind"] == "wildcard-race"
        assert "wildcard-race" in report.render()

    def test_clean_report_renders_clean(self):
        def quiet(comm):
            total = yield from comm.allreduce(comm.rank)
            return total

        result, report = verify_mpiexec(4, host_fabric(), quiet)
        assert report.ok
        assert "CLEAN" in report.render()
        assert result.returns == [6, 6, 6, 6]
        assert report.stats["collectives"] == 4

    def test_verify_instants_reach_the_tracer(self):
        from repro.obs import Tracer, render_timeline

        tracer = Tracer()

        def race(comm):
            if comm.rank == 0:
                a = yield from comm.recv()
                b = yield from comm.recv()
            else:
                yield from comm.send(0, nbytes=8)

        _result, report = verify_mpiexec(3, host_fabric(), race, tracer=tracer)
        assert not report.ok
        marks = [e for e in tracer.events if e.cat.startswith("verify")]
        assert marks and marks[0].cat == "verify.wildcard-race"
        timeline = render_timeline(tracer)
        assert "?" in timeline and "? verify" in timeline


class TestOffByDefault:
    def test_default_job_carries_no_verifier(self):
        job = MpiJob(4, host_fabric())
        assert job.verifier is None
        assert job.communicator(0)._verifier is None
        # An unverified job checks its collective calls on the ledger...
        assert job.calls is not None

    def test_verifier_replaces_the_call_ledger(self):
        # ...a verified job leaves mismatches to the verifier's ledger.
        job = MpiJob(4, host_fabric(), verifier=Verifier())
        assert job.calls is None

    def test_verifier_disables_fast_path(self):
        # compiled_mpiexec steps a verified job, so the verifier sees
        # every message.
        def main(comm):
            total = yield from comm.allreduce(comm.rank, nbytes=8)
            return total

        st = CompileStats()
        result = compiled_mpiexec(4, host_fabric(), main, verifier=Verifier(),
                                  stats=st)
        assert (st.path, st.reason) == ("stepped", "dynamic verifier armed")
        assert result.returns == [6] * 4

    def test_verified_elapsed_matches_stepped_run(self):
        def main(comm):
            total = yield from comm.allreduce(comm.rank, nbytes=4096)
            return total

        plain = mpiexec(8, host_fabric(), main)
        verified, report = verify_mpiexec(8, host_fabric(), main)
        assert report.ok
        assert verified.elapsed == plain.elapsed
        assert verified.returns == plain.returns


def _one_collective(kind, deadline, comm):
    """One ``kind`` collective; the rooted kinds at root 3."""
    values = [10 * comm.rank + i for i in range(comm.size)]
    args = () if kind == "barrier" else (
        values if kind in ("alltoall", "scatter") else comm.rank,
    )
    kw = {"root": 3} if kind in ("bcast", "reduce", "gather", "scatter") else {}
    return (yield from getattr(comm, kind)(*args, deadline=deadline, **kw))


class TestCollectiveDeadline:
    def test_deadline_raises_fault_error(self):
        def skipper(comm):
            if comm.rank == 1:
                yield from comm.compute(10.0)
                return "awol"
            total = yield from comm.allreduce(comm.rank, deadline=0.5)
            return total

        with pytest.raises(FaultError) as err:
            mpiexec(4, host_fabric(), skipper)
        assert "collective-deadline:allreduce" in str(err.value)
        assert err.value.when == pytest.approx(0.5)

    def test_deadline_catchable_for_degraded_mode(self):
        def skipper(comm):
            if comm.rank == 1:
                yield from comm.compute(10.0)
                return "awol"
            try:
                total = yield from comm.barrier(deadline=0.25)
            except FaultError:
                return "degraded"
            return total

        result = mpiexec(4, host_fabric(), skipper)
        assert result.completed
        assert result.returns == ["degraded", "awol", "degraded", "degraded"]

    @pytest.mark.parametrize("kind", sorted(ALGORITHMS))
    def test_generous_deadline_is_invisible(self, kind):
        plain = mpiexec(8, host_fabric(), partial(_one_collective, kind, None))
        bounded = mpiexec(8, host_fabric(), partial(_one_collective, kind, 10.0))
        if kind == "allreduce":
            assert bounded.returns == [28] * 8
        assert bounded.returns == plain.returns
        assert bounded.elapsed == pytest.approx(plain.elapsed)

    def test_nonpositive_deadline_rejected(self):
        from repro.errors import ConfigError

        def main(comm):
            yield from comm.allreduce(comm.rank, deadline=0.0)

        with pytest.raises(ConfigError):
            mpiexec(2, host_fabric(), main)


class TestRequestErgonomics:
    def test_wait_on_completed_request_is_noop(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend(1, nbytes=16)
                yield from req.wait()
                before = comm.now
                yield from req.wait()  # second wait: no re-blocking
                assert comm.now == before
                assert req.complete and req.completed
                return repr(req)
            env = yield from comm.recv(source=0)
            return env.nbytes

        result = mpiexec(2, host_fabric(), main)
        assert result.returns[1] == 16
        assert "completed" in result.returns[0]

    def test_repr_states(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                states = [repr(req)]
                yield from req.wait()
                states.append(repr(req))
                req.cancel()
                states.append(repr(req))
                return states
            yield from comm.send(0, nbytes=8)

        result = mpiexec(2, host_fabric(), main)
        pending, completed, cancelled = result.returns[0]
        assert "pending" in pending
        assert "completed" in completed
        assert "cancelled" in cancelled
