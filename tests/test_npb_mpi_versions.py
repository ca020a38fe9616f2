"""Integration tests: real NPB kernels distributed over the simulated MPI.

These are the library's end-to-end story: real numerics (verified against
official NPB values) travelling through the simulated communicator, with
communication time priced by the calibrated fabrics.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mpi import host_fabric, mpiexec, phi_fabric
from repro.npb import cg as cg_serial
from repro.npb import ep as ep_serial
from repro.npb import ft as ft_serial
from repro.npb.mpi_versions import ft_mpi, is_mpi, run_cg_mpi, run_ep_mpi


class TestEpMpi:
    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_verifies_at_any_rank_count(self, ranks):
        res = run_ep_mpi(ranks, host_fabric(), "S")
        assert all(r["verified"] for r in res.returns)

    def test_matches_serial_exactly(self):
        serial = ep_serial.run("S")
        res = run_ep_mpi(4, host_fabric(), "S")
        assert res.returns[0]["sx"] == pytest.approx(
            serial.details["sx"], rel=1e-12
        )
        counts = res.returns[0]["counts"]
        serial_counts = np.array(
            [serial.details[f"count_{i}"] for i in range(10)]
        )
        assert np.array_equal(counts, serial_counts)

    def test_all_ranks_agree(self):
        res = run_ep_mpi(8, host_fabric(), "S")
        sxs = {round(r["sx"], 9) for r in res.returns}
        assert len(sxs) == 1

    def test_phi_fabric_slower_than_host(self):
        t_host = run_ep_mpi(8, host_fabric(), "S").elapsed
        t_phi4 = run_ep_mpi(8, phi_fabric(4), "S").elapsed
        assert t_phi4 > t_host


class TestCgMpi:
    @pytest.fixture(scope="class")
    def serial_zeta(self):
        return cg_serial.run("S").details["zeta"]

    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_verifies_official_zeta(self, ranks, serial_zeta):
        res = run_cg_mpi(ranks, host_fabric(), "S")
        for r in res.returns:
            assert r["verified"]
            assert r["zeta"] == pytest.approx(serial_zeta, abs=1e-9)

    def test_row_partition_covers_matrix(self):
        res = run_cg_mpi(4, host_fabric(), "S")
        rows = sorted(r["rows"] for r in res.returns)
        assert rows[0][0] == 0
        assert rows[-1][1] == 1400  # class S na
        for (s0, e0), (s1, e1) in zip(rows, rows[1:]):
            assert e0 == s1  # contiguous, no gaps or overlap

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            run_cg_mpi(3, host_fabric(), "S")

    def test_more_ranks_cost_more_communication(self):
        t2 = run_cg_mpi(2, host_fabric(), "S").elapsed
        t8 = run_cg_mpi(8, host_fabric(), "S").elapsed
        # Pure-communication study: more ranks = more allgather rounds.
        assert t8 > t2

    def test_oversubscribed_phi_fabric_much_slower(self):
        # Figure 20's mechanism, end to end: the identical program at
        # 4 ranks/core pays the time-sliced MPI stack.
        t1 = run_cg_mpi(8, phi_fabric(1), "S").elapsed
        t4 = run_cg_mpi(8, phi_fabric(4), "S").elapsed
        assert t4 > 5 * t1

    @pytest.mark.parametrize("ranks", [16, 32])
    def test_uneven_row_blocks(self, ranks, serial_zeta):
        # 16 and 32 do not divide class S's 1400 rows: the allgather
        # count is the padded block, equal on every rank.
        fabric = host_fabric()
        stepped = run_cg_mpi(ranks, fabric, "S")
        compiled = run_cg_mpi(ranks, fabric, "S", compiled=True)
        for res in (stepped, compiled):
            for r in res.returns:
                assert r["verified"]
                assert r["zeta"] == pytest.approx(serial_zeta, abs=1e-9)
        assert compiled.mode == "replay"
        assert compiled.elapsed == pytest.approx(stepped.elapsed, rel=0.0)

    def test_warm_memo_builds_no_matrix(self, monkeypatch):
        from repro.mpi.compile import CompileStats
        from repro.perf.cache import EvalCache

        built = []
        build = cg_serial._build_matrix

        def counting(problem):
            built.append(problem)
            return build(problem)

        monkeypatch.setattr(cg_serial, "_build_matrix", counting)
        cg_serial._cached_matrix.cache_clear()
        cache = EvalCache()
        st1, st2 = CompileStats(), CompileStats()
        r1 = run_cg_mpi(8, host_fabric(), "S", compiled=True, cache=cache,
                        stats=st1)
        r2 = run_cg_mpi(8, host_fabric(), "S", compiled=True, cache=cache,
                        stats=st2)
        assert built == ["S"]
        assert (st1.path, st2.path) == ("replay", "memo")
        assert r2.elapsed == r1.elapsed

    def test_memo_key_covers_matrix_contents(self):
        from functools import partial

        from repro.npb.mpi_versions import cg_mpi
        from repro.perf.cache import EvalCache

        a = cg_serial.make_matrix("S")
        same, perturbed = a.copy(), a.copy()
        perturbed.data[0] = np.nextafter(perturbed.data[0], np.inf)
        cache = EvalCache()

        def key(matrix):
            main = partial(cg_mpi, problem="S", matrix=matrix)
            return cache.key("mpijob", main, host_fabric(), 8)

        assert key(same) == key(a.copy())
        assert key(perturbed) != key(same)


class TestFtMpi:
    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_checksums_verify_officially(self, ranks):
        res = mpiexec(ranks, host_fabric(), lambda c: ft_mpi(c, "S"))
        assert all(r["verified"] for r in res.returns)

    def test_checksums_match_serial_ft(self):
        serial = ft_serial.run("S")
        res = mpiexec(4, host_fabric(), lambda c: ft_mpi(c, "S"))
        chks = res.returns[0]["checksums"]
        for i, c in enumerate(chks):
            assert c.real == pytest.approx(serial.details[f"chk{i + 1}_re"], rel=1e-10)
            assert c.imag == pytest.approx(serial.details[f"chk{i + 1}_im"], rel=1e-10)

    def test_all_ranks_see_same_checksums(self):
        res = mpiexec(4, host_fabric(), lambda c: ft_mpi(c, "S"))
        first = res.returns[0]["checksums"]
        for r in res.returns[1:]:
            assert r["checksums"] == first

    def test_indivisible_rank_count_rejected(self):
        from repro.errors import DeadlockError

        with pytest.raises((ConfigError, DeadlockError, RuntimeError)):
            mpiexec(3, host_fabric(), lambda c: ft_mpi(c, "S"))

    def test_transpose_pays_alltoall_time(self):
        t_host = mpiexec(4, host_fabric(), lambda c: ft_mpi(c, "S")).elapsed
        t_phi = mpiexec(4, phi_fabric(4), lambda c: ft_mpi(c, "S")).elapsed
        assert t_phi > t_host


class TestMgMpi:
    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_official_residual_at_any_rank_count(self, ranks):
        from repro.npb.mg_mpi import mg_mpi

        res = mpiexec(ranks, host_fabric(), lambda c: mg_mpi(c, "S"))
        assert all(r["verified"] for r in res.returns)

    def test_matches_serial_mg_exactly(self):
        from repro.npb import mg as mg_serial
        from repro.npb.mg_mpi import mg_mpi

        serial = mg_serial.run("S").details["rnm2"]
        res = mpiexec(4, host_fabric(), lambda c: mg_mpi(c, "S"))
        assert res.returns[0]["rnm2"] == pytest.approx(serial, rel=1e-12)

    def test_undistributable_grid_rejected(self):
        from repro.npb.mg_mpi import DistributedMg
        from repro.mpi.runtime import MpiJob

        job = MpiJob(24, host_fabric())  # 32 % 24 != 0
        with pytest.raises(ConfigError):
            DistributedMg(job.communicator(0), "S")

    def test_ghost_exchanges_priced_on_fabric(self):
        from repro.npb.mg_mpi import mg_mpi

        t_host = mpiexec(4, host_fabric(), lambda c: mg_mpi(c, "S")).elapsed
        t_phi = mpiexec(4, phi_fabric(4), lambda c: mg_mpi(c, "S")).elapsed
        assert t_phi > 3 * t_host


class TestIsMpi:
    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_distributed_sort_verifies(self, ranks):
        res = mpiexec(ranks, host_fabric(), lambda c: is_mpi(c, "S"))
        assert all(r["verified"] for r in res.returns)

    def test_all_keys_accounted_for(self):
        from repro.npb.common import IS_SIZES

        res = mpiexec(4, host_fabric(), lambda c: is_mpi(c, "S"))
        total = sum(r["local_count"] for r in res.returns)
        assert total == IS_SIZES["S"][0]
