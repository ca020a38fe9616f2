"""Tests for simulated MPI point-to-point semantics and fabrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.software import POST_UPDATE, PRE_UPDATE
from repro.errors import ConfigError, DeadlockError
from repro.mpi import (
    Fabric,
    FabricParams,
    host_fabric,
    mpiexec,
    pcie_fabric,
    phi_fabric,
)
from repro.obs.tracer import Tracer
from repro.units import KiB, MiB, US


def simple_fabric(latency=1 * US, bw=1e9, eager=8 * KiB) -> Fabric:
    return Fabric(
        FabricParams(name="test", latency=latency, pair_bandwidth=bw, eager_max=eager)
    )


# ----------------------------------------------------------------- semantics


class TestPointToPoint:
    def test_send_recv_delivers_payload(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=64, payload={"x": 41})
                return None
            env = yield from comm.recv(source=0)
            return env.payload["x"] + 1

        res = mpiexec(2, simple_fabric(), main)
        assert res.returns == [None, 42]

    def test_eager_message_time_matches_fabric(self):
        fabric = simple_fabric()
        nbytes = 1 * KiB  # eager

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=nbytes)
            else:
                yield from comm.recv(source=0)

        res = mpiexec(2, fabric, main)
        assert res.elapsed == pytest.approx(fabric.p2p_time(nbytes), rel=1e-9)

    def test_rendezvous_blocks_sender_until_receiver(self):
        fabric = simple_fabric()
        nbytes = 1 * MiB  # rendezvous
        late = 5.0

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=nbytes)
                return comm.now
            yield from comm.compute(late)  # receiver arrives late
            yield from comm.recv(source=0)
            return comm.now

        res = mpiexec(2, fabric, main)
        expected = late + fabric.p2p_time(nbytes)
        assert res.returns[0] == pytest.approx(expected)
        assert res.returns[1] == pytest.approx(expected)

    def test_eager_sender_detaches_early(self):
        fabric = simple_fabric()
        nbytes = 512  # eager

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=nbytes)
                return comm.now
            yield from comm.compute(10.0)
            yield from comm.recv(source=0)
            return comm.now

        res = mpiexec(2, fabric, main)
        assert res.returns[0] < 1e-3  # sender long gone
        assert res.returns[1] == pytest.approx(10.0)  # data already arrived

    def test_tag_matching_out_of_order(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=8, tag=1, payload="first")
                yield from comm.send(1, nbytes=8, tag=2, payload="second")
                return None
            env2 = yield from comm.recv(source=0, tag=2)
            env1 = yield from comm.recv(source=0, tag=1)
            return (env1.payload, env2.payload)

        res = mpiexec(2, simple_fabric(), main)
        assert res.returns[1] == ("first", "second")

    def test_non_overtaking_same_source_same_tag(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(1, nbytes=8, payload=i)
                return None
            got = []
            for _ in range(5):
                env = yield from comm.recv(source=0)
                got.append(env.payload)
            return got

        res = mpiexec(2, simple_fabric(), main)
        assert res.returns[1] == [0, 1, 2, 3, 4]

    def test_any_source_wildcard(self):
        def main(comm):
            if comm.rank == 0:
                got = set()
                for _ in range(comm.size - 1):
                    env = yield from comm.recv()
                    got.add(env.payload)
                return got
            yield from comm.send(0, nbytes=8, payload=comm.rank)
            return None

        res = mpiexec(4, simple_fabric(), main)
        assert res.returns[0] == {1, 2, 3}

    def test_sendrecv_ring_exchange(self):
        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            env = yield from comm.sendrecv(right, left, nbytes=64, payload=comm.rank)
            return env.payload

        res = mpiexec(6, simple_fabric(), main)
        assert res.returns == [5, 0, 1, 2, 3, 4]

    def test_isend_irecv_requests(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend(1, nbytes=16, payload="hello")
                yield from comm.compute(1.0)
                yield from req.wait()
                return None
            req = comm.irecv(source=0)
            env = yield from req.wait()
            return env.payload

        res = mpiexec(2, simple_fabric(), main)
        assert res.returns[1] == "hello"

    def test_barrier_synchronizes(self):
        def main(comm):
            yield from comm.compute(float(comm.rank))  # ranks arrive staggered
            yield from comm.barrier()
            return comm.now

        res = mpiexec(5, simple_fabric(), main)
        slowest = 4.0
        assert all(t >= slowest for t in res.returns)
        assert max(res.returns) - min(res.returns) < 1e-3

    def test_unmatched_recv_deadlocks(self):
        def main(comm):
            if comm.rank == 1:
                yield from comm.recv(source=0)

        with pytest.raises(DeadlockError):
            mpiexec(2, simple_fabric(), main)

    def test_send_to_bad_rank_rejected(self):
        def main(comm):
            yield from comm.send(7, nbytes=8)

        with pytest.raises(ConfigError):
            mpiexec(2, simple_fabric(), main)

    @pytest.mark.parametrize("traced", (False, True))
    def test_bad_nonblocking_peer_raises_at_the_call(self, traced):
        """A bad ``isend``/``irecv`` peer raises where the rank can catch
        it, whether or not a tracer is attached."""

        def main(comm):
            caught = []
            for post in (lambda: comm.isend(comm.size, nbytes=8),
                         lambda: comm.isend(0, nbytes=-1),
                         lambda: comm.irecv(source=-1)):
                try:
                    post()
                except ConfigError as exc:
                    caught.append(str(exc))
            return caught
            yield  # pragma: no cover - makes main() a generator

        res = mpiexec(2, simple_fabric(), main,
                      tracer=Tracer() if traced else None)
        assert res.returns == [[
            "peer rank 2 out of range (size 2)",
            "nbytes must be non-negative",
            "peer rank -1 out of range (size 2)",
        ]] * 2

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=1 << 20))
    @settings(max_examples=25, deadline=None)
    def test_ring_elapsed_independent_of_rank_count(self, p, nbytes):
        fabric = simple_fabric()

        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield from comm.sendrecv(right, left, nbytes=nbytes)

        res = mpiexec(p, fabric, main)
        # All exchanges are concurrent: elapsed ≈ one p2p time.
        assert res.elapsed == pytest.approx(fabric.p2p_time(nbytes), rel=0.5)


# ------------------------------------------------------------------- fabrics


class TestFabrics:
    def test_host_fabric_latency_and_bandwidth(self):
        f = host_fabric()
        assert f.p2p_time(0) == pytest.approx(0.6 * US)
        big = 16 * MiB
        assert big / f.p2p_time(big) == pytest.approx(4.8e9, rel=0.01)

    def test_phi_fabric_oversubscription_degrades(self):
        times_small = [phi_fabric(k).p2p_time(1) for k in (1, 2, 3, 4)]
        times_big = [phi_fabric(k).p2p_time(4 * MiB) for k in (1, 2, 3, 4)]
        assert times_small == sorted(times_small)
        assert times_big == sorted(times_big)
        assert times_small[3] > 10 * times_small[0]
        assert times_big[3] > 10 * times_big[0]

    def test_phi_fabric_rejects_bad_tpc(self):
        with pytest.raises(ConfigError):
            phi_fabric(5)

    def test_alltoall_pattern_costs_more(self):
        f = phi_fabric(4)
        neigh = f.p2p_time(1024, pattern="neighbor", n_senders=236)
        a2a = f.p2p_time(1024, pattern="alltoall", n_senders=236)
        assert a2a > neigh

    def test_incast_only_above_capacity(self):
        f = phi_fabric(1)
        assert f.alpha("alltoall", 59) == pytest.approx(f.alpha())  # 59 < 64
        assert f.alpha("alltoall", 236) > f.alpha()


# -------------------------------------------------------- PCIe paths (Fig 7/8)


class TestPcieFabric:
    def test_latencies_match_fig7(self):
        from repro.paperdata import FIG7_MPI_LATENCY

        for sw, stack in (("pre", PRE_UPDATE), ("post", POST_UPDATE)):
            for path, lat in FIG7_MPI_LATENCY[sw].items():
                f = pcie_fabric(path, stack)
                assert f.latency() == pytest.approx(lat, rel=0.02), (sw, path)

    def test_bandwidth_at_4mib_matches_fig8(self):
        from repro.paperdata import FIG8_MPI_BANDWIDTH_4MIB

        for sw, stack in (("pre", PRE_UPDATE), ("post", POST_UPDATE)):
            for path, bw in FIG8_MPI_BANDWIDTH_4MIB[sw].items():
                f = pcie_fabric(path, stack)
                assert f.bandwidth(4 * MiB) == pytest.approx(bw, rel=0.05), (sw, path)

    def test_provider_ladder(self):
        f = pcie_fabric("host-phi0", POST_UPDATE)
        assert f.protocol(8 * KiB) == "eager"
        assert f.provider(8 * KiB) == "ccl"
        assert f.protocol(64 * KiB) == "rendezvous"
        assert f.provider(64 * KiB) == "ccl"
        assert f.provider(512 * KiB) == "scif"

    def test_pre_update_never_uses_scif(self):
        f = pcie_fabric("host-phi0", PRE_UPDATE)
        for size in (1, 8 * KiB, 256 * KiB, 16 * MiB):
            assert f.provider(size) == "ccl"

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigError):
            pcie_fabric("host-phi7", POST_UPDATE)

    def test_runs_as_job_fabric(self):
        # A PCIe path works as a Communicator transport (symmetric mode).
        f = pcie_fabric("host-phi0", POST_UPDATE)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=1 * MiB)
            else:
                yield from comm.recv(source=0)

        res = mpiexec(2, f, main)
        assert res.elapsed == pytest.approx(f.p2p_time(1 * MiB), rel=1e-6)
