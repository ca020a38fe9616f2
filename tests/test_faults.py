"""Fault injection (repro.faults) and the latent-failure bugfix sweep.

Covers the FaultPlan data model, the degraded fabrics, injector arming,
graceful sweep degradation, determinism under a plan, and regressions
for the satellite bugfixes (JobResult completion guard, traced-rank span
closing, uniform-fabric classification, MPI send/recv timeouts).
"""

from __future__ import annotations

import pytest

from repro.core.results import Measurement
from repro.core.sweep import grid_sweep
from repro.errors import (
    ConfigError,
    FaultError,
    IncompleteJobError,
    OutOfMemoryError,
    TimeoutExpired,
)
from repro.faults import (
    FaultPlan,
    LinkDegradation,
    MemoryPressure,
    RankCrash,
    Straggler,
    pre_update_plan,
)
from repro.mpi.fabrics import Fabric, host_fabric, phi_fabric
from repro.mpi.runtime import MpiJob, mpiexec
from repro.units import GiB, KiB, MiB


def _allreduce_loop(iters=50, nbytes=4096):
    def main(comm):
        for _ in range(iters):
            yield from comm.allreduce(comm.rank, nbytes=nbytes)
        return comm.rank

    return main


# ------------------------------------------------------------- plan model


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LinkDegradation(latency_factor=0.0)
        with pytest.raises(ConfigError):
            LinkDegradation(start=5.0, end=1.0)
        with pytest.raises(ConfigError):
            RankCrash(rank=-1, at=0.0)
        with pytest.raises(ConfigError):
            Straggler(rank=0, slowdown=0.5)
        with pytest.raises(ConfigError):
            MemoryPressure(capacity_factor=1.5)
        with pytest.raises(ConfigError):
            FaultPlan([object()])  # type: ignore[list-item]

    def test_queries_and_factors(self):
        plan = FaultPlan([
            Straggler(rank=2, slowdown=3.0, start=1.0, end=2.0),
            Straggler(rank=2, slowdown=2.0),
            RankCrash(rank=0, at=5.0),
        ])
        assert len(plan.crashes) == 1
        assert plan.compute_factor(2, 0.5) == 2.0  # window not yet open
        assert plan.compute_factor(2, 1.5) == 6.0  # both active, multiplied
        assert plan.compute_factor(1, 1.5) == 1.0  # wrong rank

    def test_effective_memory(self):
        plan = FaultPlan([
            MemoryPressure(capacity_factor=0.5),
            MemoryPressure(reserve_bytes=1 * GiB),
        ])
        assert plan.effective_memory() == 4 * GiB - 1 * GiB
        assert plan.effective_memory(2 * GiB) == 0.0  # clamped at zero

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan([
            LinkDegradation(latency_factor=2.0, bandwidth_factor=0.25,
                            start=1.0, link="host*"),
            RankCrash(rank=3, at=0.5),
            Straggler(rank=1, slowdown=4.0, end=9.0),
            MemoryPressure(capacity_factor=0.5),
        ])
        path = tmp_path / "plan.json"
        plan.to_file(str(path))
        loaded = FaultPlan.from_file(str(path))
        assert loaded.fingerprint() == plan.fingerprint()
        assert len(loaded) == 4
        assert loaded.link_faults[0].end == float("inf")

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultPlan.from_dict({"faults": [{"kind": "gremlin"}]})
        with pytest.raises(ConfigError, match="bad crash fault"):
            FaultPlan.from_dict({"faults": [{"kind": "crash", "bogus": 1}]})
        with pytest.raises(ConfigError):
            FaultPlan.from_file("/nonexistent/plan.json")

    def test_fingerprint_distinguishes_plans(self):
        a = FaultPlan([RankCrash(rank=0, at=1.0)])
        b = FaultPlan([RankCrash(rank=0, at=2.0)])
        assert a.fingerprint() != b.fingerprint()


# -------------------------------------------------------- degraded fabrics


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


class TestDegradedFabrics:
    def test_window_gating_with_clock(self):
        base = host_fabric()
        clock = _Clock(0.0)
        plan = FaultPlan([
            LinkDegradation(latency_factor=2.0, bandwidth_factor=0.5,
                            start=1.0, end=2.0)
        ])
        deg = plan.degrade(base, clock=clock)
        n = 1 * KiB
        assert deg.p2p_time(n) == base.p2p_time(n)  # window closed
        clock.now = 1.5
        assert deg.p2p_time(n) > base.p2p_time(n)  # window open
        clock.now = 2.0
        assert deg.p2p_time(n) == base.p2p_time(n)  # window closed again

    def test_no_clock_means_always_active(self):
        base = host_fabric()
        plan = FaultPlan([LinkDegradation(bandwidth_factor=0.5, start=1.0)])
        deg = plan.degrade(base)
        assert deg.bandwidth() == base.bandwidth() * 0.5

    def test_link_pattern_matching(self):
        plan = FaultPlan([LinkDegradation(bandwidth_factor=0.5, link="phi-*")])
        assert plan.degrade(host_fabric()) is not plan.degrade(phi_fabric(1))
        # host fabric name does not match: returned unchanged
        host = host_fabric()
        assert plan.degrade(host) is host
        assert isinstance(plan.degrade(phi_fabric(1)), Fabric)

    def test_degraded_fabric_marks_time_varying(self):
        plan = FaultPlan([LinkDegradation(bandwidth_factor=0.5)])
        assert getattr(plan.degrade(host_fabric()), "time_varying", False)

    def test_pre_update_plan_reproduces_pre_update_pricing(self):
        from repro.core.software import POST_UPDATE, PRE_UPDATE
        from repro.mpi.protocols import pcie_fabric

        plan = pre_update_plan()
        for path in ("host-phi0", "host-phi1", "phi0-phi1"):
            pre = pcie_fabric(path, PRE_UPDATE)
            degraded = plan.degrade(pcie_fabric(path, POST_UPDATE))
            for n in (1, 8 * KiB, 256 * KiB, 4 * MiB):
                assert degraded.p2p_time(n) == pre.p2p_time(n), (path, n)


# ------------------------------------------------------------- injectors


class TestRankCrash:
    def test_crash_mid_allreduce_raises_fault_error_not_deadlock(self):
        plan = FaultPlan([RankCrash(rank=3, at=1e-4, label="boom")])
        with pytest.raises(FaultError) as ei:
            mpiexec(8, host_fabric(), _allreduce_loop(200), fault_plan=plan)
        err = ei.value
        assert err.rank == 3
        assert err.when == pytest.approx(1e-4)
        assert "rank 3" in str(err) and "boom" in str(err)

    def test_crash_past_job_end_neither_fires_nor_stretches_time(self):
        main = _allreduce_loop(3)
        base = mpiexec(8, host_fabric(), main)
        late = mpiexec(
            8, host_fabric(), main,
            fault_plan=FaultPlan([RankCrash(rank=0, at=1e6)]),
        )
        assert late.elapsed == base.elapsed
        assert late.completed

    def test_crash_rank_out_of_range_rejected(self):
        plan = FaultPlan([RankCrash(rank=9, at=1.0)])
        job = MpiJob(4, host_fabric(), fault_plan=plan)
        with pytest.raises(ConfigError, match="rank 9"):
            job.launch(_allreduce_loop(1))


class TestStragglerAndPressure:
    def test_straggler_window_scales_compute(self):
        def main(comm):
            yield from comm.compute(1.0)
            yield from comm.barrier()
            return comm.rank

        healthy = mpiexec(4, host_fabric(), main)
        slowed = mpiexec(
            4, host_fabric(), main,
            fault_plan=FaultPlan([Straggler(rank=1, slowdown=3.0)]),
        )
        closed = mpiexec(
            4, host_fabric(), main,
            fault_plan=FaultPlan(
                [Straggler(rank=1, slowdown=3.0, start=100.0, end=200.0)]
            ),
        )
        assert slowed.elapsed == pytest.approx(healthy.elapsed + 2.0)
        assert closed.elapsed == healthy.elapsed  # window never opened

    def test_memory_pressure_fails_alltoall_earlier(self):
        def a2a(comm):
            out = yield from comm.alltoall(list(range(comm.size)), nbytes=1 * MiB)
            return out

        plan = FaultPlan([MemoryPressure(capacity_factor=0.01)])
        mpiexec(16, host_fabric(), a2a)  # healthy card: fits
        with pytest.raises(OutOfMemoryError):
            mpiexec(16, host_fabric(), a2a, fault_plan=plan)

    def test_evaluator_memory_pressure_and_fingerprint(self):
        pytest.importorskip("numpy")  # repro.npb needs it
        from repro.core import Evaluator
        from repro.machine.node import Device
        from repro.npb.characterization import class_c_kernel

        kern = class_c_kernel("MG")
        plan = FaultPlan([MemoryPressure(capacity_factor=0.05)])
        healthy = Evaluator()
        faulted = Evaluator(fault_plan=plan)
        healthy.native(Device.PHI0, kern, 118)  # fits the real 8 GB card
        with pytest.raises(OutOfMemoryError):
            faulted.native(Device.PHI0, kern, 118)
        # Faulted and healthy campaigns live in disjoint cache namespaces.
        assert healthy.machine_fingerprint != faulted.machine_fingerprint


# ----------------------------------------------------- graceful campaigns


def _sweep_point(plan, nbytes):
    res = mpiexec(8, host_fabric(), _allreduce_loop(2, nbytes), fault_plan=plan)
    return Measurement("allreduce", res.elapsed, config={"nbytes": nbytes})


class TestGracefulSweeps:
    def test_failed_point_recorded_and_campaign_continues(self):
        plan = FaultPlan([MemoryPressure(capacity_factor=0.001)])

        def point(nbytes):
            if nbytes >= 1 * MiB:  # model a size-dependent fault
                raise FaultError("big-message-crash", rank=2, when=0.5)
            return _sweep_point(plan, nbytes)

        sizes = [1 * KiB, 64 * KiB, 1 * MiB, 4 * MiB]
        results = grid_sweep(point, sizes, capture_failures=True)
        assert len(results) == 2
        assert len(results.failures) == 2
        assert not results.ok
        f = results.failures[0]
        assert f.error == "FaultError"
        assert f.point == 1 * MiB
        assert f.when == 0.5
        assert "big-message-crash" in f.message

    def test_capture_off_preserves_old_contract(self):
        def point(n):
            raise FaultError("dies", rank=0, when=0.0)

        with pytest.raises(FaultError):
            grid_sweep(point, [1, 2], skip_infeasible=True)


# ------------------------------------------------------------ determinism


class TestDeterminismAndTracing:
    def _traced_run(self):
        from repro.obs import Tracer, trace_digest

        plan = FaultPlan([
            LinkDegradation(latency_factor=1.5, bandwidth_factor=0.5,
                            start=0.0, end=1e-3),
            Straggler(rank=1, slowdown=2.0, start=0.0, end=1e-3),
        ])
        tracer = Tracer()
        res = mpiexec(
            6, host_fabric(), _allreduce_loop(10), tracer=tracer,
            fault_plan=plan,
        )
        return res, trace_digest(tracer), tracer

    def test_two_runs_same_digest_under_active_plan(self):
        res1, d1, _ = self._traced_run()
        res2, d2, _ = self._traced_run()
        assert res1.elapsed == res2.elapsed
        assert d1 == d2

    def test_fault_instants_marked_on_timeline(self):
        from repro.obs import render_timeline

        _res, _d, tracer = self._traced_run()
        assert any(
            e.ph == "i" and e.cat.startswith("fault") for e in tracer.events
        )
        art = render_timeline(tracer)
        assert "!" in art
        assert "! fault" in art

    def test_crashed_rank_span_still_closed(self):
        """S2 regression: a rank dying mid-run must close its lifetime
        span (try/finally in _traced_rank), not leave a dangling begin."""
        from repro.obs import Tracer

        tracer = Tracer()
        plan = FaultPlan([RankCrash(rank=2, at=1e-4)])
        with pytest.raises(FaultError):
            mpiexec(
                8, host_fabric(), _allreduce_loop(200), tracer=tracer,
                fault_plan=plan,
            )
        closed = [e.name for e in tracer.events if e.ph == "X"]
        assert "rank2" in closed


# ------------------------------------------------- satellite regressions


class TestJobResultCompletion:
    def test_truncated_run_guards_returns(self):
        def main(comm):
            yield from comm.compute(10.0)
            return comm.rank

        job = MpiJob(4, host_fabric())
        job.launch(main)
        res = job.run(until=1.0)
        assert not res.completed
        assert res.finished == [False] * 4
        with pytest.raises(IncompleteJobError, match="unfinished"):
            res.returns
        assert res.partial_returns(default="?") == ["?"] * 4
        assert res.n_ranks == 4

    def test_complete_run_unchanged(self):
        res = mpiexec(4, host_fabric(), _allreduce_loop(1))
        assert res.completed
        assert res.finished == [True] * 4
        assert res.returns == [0, 1, 2, 3]


class TestUniformFabricHeuristic:
    def test_callable_resolver_with_p2p_attr_routes_per_pair(self):
        """S3 regression: a callable resolver carrying a ``p2p_time``
        attribute (e.g. a wrapped fabric function) was misclassified as
        a uniform fabric and priced every pair with the resolver object
        itself."""
        host, phi = host_fabric(), phi_fabric(1)

        def resolver(src, dst):
            return phi if (src + dst) % 2 else host

        resolver.p2p_time = lambda *a, **k: 0.0  # the poisoned attribute

        job = MpiJob(4, resolver)
        assert job._fabric_for is resolver

    def test_partial_bound_resolver_also_routes(self):
        from functools import partial as _partial

        def route(phi, src, dst):
            return phi

        bound = _partial(route, phi_fabric(1))
        job = MpiJob(4, bound)
        assert job._fabric_for is bound


class TestP2pTimeouts:
    def test_recv_timeout_expires_and_names_op(self):
        def main(comm):
            if comm.rank == 0:
                try:
                    yield from comm.recv(source=1, timeout=0.25)
                except TimeoutExpired as exc:
                    return ("expired", exc.when)
            else:
                yield from comm.compute(1.0)  # never sends
                return ("sender", None)

        res = mpiexec(2, host_fabric(), main)
        assert res.returns[0] == ("expired", 0.25)

    def test_recv_retries_until_message_arrives(self):
        def main(comm):
            if comm.rank == 0:
                env = yield from comm.recv(source=1, timeout=0.3, max_retries=2)
                return env.payload
            yield from comm.compute(0.7)
            yield from comm.send(1 - comm.rank, nbytes=64, payload="late")

        res = mpiexec(2, host_fabric(), main)
        assert res.returns[0] == "late"

    def test_recv_retries_exhausted(self):
        def main(comm):
            if comm.rank == 0:
                try:
                    yield from comm.recv(source=1, timeout=0.1, max_retries=1)
                except TimeoutExpired:
                    return "gave-up"
            else:
                yield from comm.compute(1.0)
                return "silent"

        res = mpiexec(2, host_fabric(), main)
        assert res.returns == ["gave-up", "silent"]

    def test_rendezvous_send_timeout_withdraws_envelope(self):
        big = 1 * MiB  # over host eager_max: rendezvous

        def main(comm):
            if comm.rank == 0:
                try:
                    yield from comm.send(1, nbytes=big, timeout=0.5)
                except TimeoutExpired:
                    return "withdrew"
            else:
                yield from comm.compute(1.0)  # never posts the recv
                return "deaf"

        job = MpiJob(2, host_fabric())
        job.launch(main)
        res = job.run()
        assert res.returns == ["withdrew", "deaf"]
        # The unmatched envelope is gone: a later receiver cannot match it.
        assert len(job.mailboxes[1]) == 0


# ------------------------------------------------------------------- CLI


class TestFaultsCli:
    def test_crash_command(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["faults", "crash", "--ranks", "4"]) == 0
        out = capsys.readouterr().out
        assert "FaultError" in out and "demo-crash" in out

    def test_sweep_command_reports_failures(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["faults", "sweep", "--ranks", "16"]) == 0
        out = capsys.readouterr().out
        assert "OutOfMemoryError" in out and "campaign continued" in out
        assert ("paths: replay 3, stepped 4; stepped because: "
                "replay error: OutOfMemoryError (4)\n") in out

    @pytest.mark.parametrize("plan_name", ["demo", "windowed"])
    def test_sweep_points_equal_stepped_runs(self, plan_name):
        """Each sweep point prices through ``compiled_mpiexec``: the
        static demo plan's points replay and a windowed plan's step, at
        the stepped elapsed, and the OOM points fail with the stepped
        run's error."""
        from repro.cli import _faulted_alltoall_point, _trace_main
        from repro.core.sweep import message_size_sweep

        plan = FaultPlan([
            MemoryPressure(capacity_factor=0.02, label="demo-pressure")
            if plan_name == "demo" else
            LinkDegradation(latency_factor=2.0, start=1e-6, end=1e-3)
        ])
        stats = []
        for nbytes in message_size_sweep(1024, 4 * MiB)[::2]:
            job = MpiJob(16, host_fabric(), fault_plan=plan)
            job.launch(_trace_main("alltoall", nbytes))
            try:
                ref = job.run()
            except OutOfMemoryError as exc:
                with pytest.raises(OutOfMemoryError) as err:
                    _faulted_alltoall_point(16, "host", 1, plan, stats, nbytes)
                assert str(err.value) == str(exc)
                continue
            finally:
                assert job.engine.timeline() > 0
            m = _faulted_alltoall_point(16, "host", 1, plan, stats, nbytes)
            assert m.time == ref.elapsed
            want = "replay" if plan_name == "demo" else "stepped"
            assert stats[-1].path == want, stats[-1].reason
        assert len(stats) == 7

    def test_plan_file_drives_run(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        plan = FaultPlan([
            LinkDegradation(latency_factor=2.0, bandwidth_factor=0.5),
        ])
        path = tmp_path / "plan.json"
        plan.to_file(str(path))
        assert cli_main(
            ["faults", "allreduce", "--plan", str(path), "--ranks", "4",
             "--timeline"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline elapsed" in out and "faulted" in out
