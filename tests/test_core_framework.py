"""Tests for the core evaluation framework: software stacks, results,
offload cost model, symmetric load balancing, and the Evaluator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Evaluator,
    Measurement,
    OffloadRegion,
    POST_UPDATE,
    PRE_UPDATE,
    ProgrammingMode,
    ResultSet,
    SymmetricRun,
    WorkPartition,
    partition_zones,
)
from repro.errors import ConfigError, OutOfMemoryError
from repro.execmodel import KernelSpec
from repro.machine import Device
from repro.units import GB, KiB, MB, MiB


def kernel(**kw) -> KernelSpec:
    base = dict(name="k", flops=1e11, memory_traffic=1e10)
    base.update(kw)
    return KernelSpec(**base)


def _fastest_native_runs(ev, k):
    """The paper's headline comparison: the fastest native-host run
    (16 threads) and the fastest native-Phi run (1-4 threads per core)."""
    host = ev.native(Device.HOST, k, 16)
    phi = min(
        (ev.native(Device.PHI0, k, t) for t in (59, 118, 177, 236)),
        key=lambda m: m.time,
    )
    return host, phi


# ------------------------------------------------------------ software stack


class TestSoftwareStack:
    def test_pre_update_all_ccl(self):
        assert not PRE_UPDATE.has_scif
        for n in (1, 8 * KiB, 256 * KiB, 4 * MiB):
            assert PRE_UPDATE.provider_for(n) == "ccl"

    def test_post_update_three_states(self):
        # Section 5's three states.
        assert POST_UPDATE.protocol_for(8 * KiB) == "eager"
        assert POST_UPDATE.provider_for(8 * KiB) == "ccl"
        assert POST_UPDATE.protocol_for(8 * KiB + 1) == "rendezvous"
        assert POST_UPDATE.provider_for(256 * KiB) == "ccl"
        assert POST_UPDATE.provider_for(256 * KiB + 1) == "scif"


# ------------------------------------------------------------------- results


class TestResults:
    def test_best_and_worst(self):
        rs = ResultSet(
            [
                Measurement("a", 2.0, config={"threads": 1}),
                Measurement("b", 1.0, config={"threads": 2}),
                Measurement("c", 3.0, config={"threads": 3}),
            ]
        )
        assert rs.best().name == "b"
        assert rs.worst().name == "c"
        assert rs.ratio(rs.worst(), rs.best()) == pytest.approx(3.0)

    def test_where_filters_by_config(self):
        rs = ResultSet(
            [
                Measurement("a", 1.0, config={"device": "host"}),
                Measurement("b", 2.0, config={"device": "phi0"}),
            ]
        )
        assert len(rs.where(device="phi0")) == 1
        assert rs.where(device="phi0")[0].name == "b"

    def test_empty_best_rejected(self):
        with pytest.raises(ConfigError):
            ResultSet().best()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            Measurement("x", -1.0)


# ------------------------------------------------------------------ evaluator


class TestEvaluator:
    def test_native_host_vs_phi_headline(self):
        # Conclusion: "a single Phi card had about half the performance of
        # the two host Xeon processors" for the CFD-like workloads.
        ev = Evaluator()
        cfd_like = kernel(
            flops=1e11,
            memory_traffic=8e10,  # bandwidth-hungry, like OVERFLOW
            vector_fraction=0.5,
            gather_fraction=0.15,  # overset-grid interpolation is indirect
            streaming_fraction=0.35,  # stencil sweeps mixed with irregular access
            parallel_fraction=0.99,  # per-step serial work (zone bookkeeping)
            sync_points=50,
        )
        host, phi = _fastest_native_runs(ev, cfd_like)
        assert 1.3 < phi.time / host.time < 3.0

    def test_compute_bound_vectorized_wins_on_phi(self):
        # MG-like: the one case where the Phi beat the host (Fig 25).
        ev = Evaluator()
        mg_like = kernel(
            flops=1e11, memory_traffic=5e9, vector_fraction=0.98,
            parallel_fraction=0.999,
        )
        host, phi = _fastest_native_runs(ev, mg_like)
        assert phi.time < host.time

    def test_oom_kernel_infeasible_on_phi_only(self):
        ev = Evaluator()
        big = kernel(footprint=10 * GB)
        with pytest.raises(OutOfMemoryError):
            ev.native(Device.PHI0, big, 118)
        m = ev.native(Device.HOST, big, 16)
        assert m.time > 0

    def test_native_mode_labels(self):
        ev = Evaluator()
        assert (
            ev.native(Device.HOST, kernel(), 16).config["mode"]
            is ProgrammingMode.NATIVE_HOST
        )
        assert (
            ev.native(Device.PHI1, kernel(), 59).config["mode"]
            is ProgrammingMode.NATIVE_PHI
        )

    def test_sync_points_priced_higher_on_phi(self):
        ev = Evaluator()
        chatty = kernel(sync_points=1000)
        quiet = kernel(sync_points=0)
        phi_penalty = (
            ev.native(Device.PHI0, chatty, 236).time
            - ev.native(Device.PHI0, quiet, 236).time
        )
        host_penalty = (
            ev.native(Device.HOST, chatty, 16).time
            - ev.native(Device.HOST, quiet, 16).time
        )
        assert phi_penalty > 5 * host_penalty

    def test_offload_to_host_rejected(self):
        with pytest.raises(ConfigError):
            Evaluator().offload_model(Device.HOST)


# -------------------------------------------------------------------- offload


class TestOffload:
    def _region(self, name, data, invocations, flops_per_inv=1e9):
        return OffloadRegion(
            name=name,
            kernel=kernel(name=f"{name}-kernel", flops=flops_per_inv,
                          memory_traffic=flops_per_inv / 4),
            data_in=data,
            data_out=data // 2,
            invocations=invocations,
        )

    def test_fewer_invocations_less_overhead(self):
        # Fig 26/27: loop version (many invocations, most data) worst;
        # whole-computation version best.
        ev = Evaluator()
        model = ev.offload_model()
        total_flops = 4e11
        loop = self._region("loop", data=8 * MiB, invocations=4000,
                            flops_per_inv=total_flops / 4000)
        whole = self._region("whole", data=400 * MiB, invocations=1,
                             flops_per_inv=total_flops)
        reports = model.compare(loop, whole)
        assert reports["loop"].overhead > reports["whole"].overhead
        assert reports["loop"].total_data > reports["whole"].total_data
        assert reports["loop"].invocations > reports["whole"].invocations

    def test_offload_slower_than_native_when_chatty(self):
        # Fig 25: all offload versions lose to native because of transfer.
        ev = Evaluator()
        per_inv = kernel(name="inner", flops=2e8, memory_traffic=2e8)
        region = OffloadRegion(
            "chatty", per_inv, data_in=16 * MiB, data_out=16 * MiB, invocations=500
        )
        offload = ev.offload(region)
        native = ev.native(Device.PHI0, per_inv.scaled(500), 177)
        assert offload.time > native.time

    def test_overhead_components_positive(self):
        ev = Evaluator()
        rep = ev.offload_model().run(self._region("r", 1 * MiB, 10))
        comp = rep.components()
        assert all(v >= 0 for v in comp.values())
        assert rep.overhead == pytest.approx(
            comp["host_setup"] + comp["pcie_transfer"] + comp["phi_setup"]
        )

    def test_invalid_region_rejected(self):
        with pytest.raises(ConfigError):
            OffloadRegion("bad", kernel(), data_in=-1, data_out=0, invocations=1)
        with pytest.raises(ConfigError):
            OffloadRegion("bad", kernel(), data_in=0, data_out=0, invocations=0)


# ------------------------------------------------------------------ symmetric


class TestSymmetric:
    RATES = {Device.HOST: 2.0, Device.PHI0: 1.0, Device.PHI1: 1.0}

    def test_partition_covers_all_zones(self):
        sizes = [5, 3, 8, 1, 2, 9, 4]
        assignment = partition_zones(sizes, self.RATES)
        placed = sorted(i for zs in assignment.values() for i in zs)
        assert placed == list(range(len(sizes)))

    def test_faster_device_gets_more_work(self):
        sizes = [1.0] * 100
        part = WorkPartition.balanced(sizes, self.RATES)
        assert part.load(Device.HOST) > part.load(Device.PHI0)

    def test_perfectly_divisible_work_balances(self):
        sizes = [1.0] * 400
        part = WorkPartition.balanced(sizes, self.RATES)
        assert part.imbalance == pytest.approx(1.0, abs=0.02)

    def test_lumpy_zones_cause_imbalance(self):
        # One giant zone forces imbalance (the OVERFLOW DLRF6 situation).
        sizes = [100.0] + [1.0] * 10
        part = WorkPartition.balanced(sizes, self.RATES)
        assert part.imbalance > 1.2

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_lpt_never_worse_than_single_bin(self, sizes):
        part = WorkPartition.balanced(sizes, self.RATES)
        # Shares sum to 1 and imbalance is at least 1.
        total_share = sum(part.share(d) for d in self.RATES)
        assert total_share == pytest.approx(1.0)
        assert part.imbalance >= 1.0 - 1e-9

    def test_post_update_shrinks_comm_time(self):
        # Fig 23's mechanism: SCIF for large messages speeds symmetric mode.
        sizes = [1.0] * 23
        part = WorkPartition.balanced(sizes, self.RATES)

        def compute(dev, share):
            return share * 1.0

        halo = 200 * MiB
        pre = SymmetricRun(compute, part, halo, PRE_UPDATE).step()
        post = SymmetricRun(compute, part, halo, POST_UPDATE).step()
        assert post.comm_time < pre.comm_time
        assert post.total < pre.total

    def test_empty_zone_list_rejected(self):
        with pytest.raises(ConfigError):
            partition_zones([], self.RATES)
