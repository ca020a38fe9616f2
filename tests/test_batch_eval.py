"""Vectorized batch evaluation vs the scalar model stack.

The contract for every batch entry point (`kernel_time_batch`,
`Evaluator.native_batch`, the `batch=` sweep paths) is *bit-identical*
results to the per-point scalar loop, with infeasible points masked
(batch) where the scalar path raises.
"""

from __future__ import annotations

import pytest

from repro.core import Evaluator
from repro.core.sweep import thread_sweep
from repro.errors import ConfigError, OutOfMemoryError
from repro.execmodel.batch import kernel_time_batch
from repro.execmodel.kernel import KernelSpec
from repro.execmodel.roofline import kernel_time
from repro.machine.node import Device
from repro.machine.presets import maia_host_processor, xeon_phi_5110p
from repro.machine.processor import Processor
from repro.npb.characterization import class_c_kernel
from repro.openmp.constructs import barrier_cost
from repro.perf.cache import EvalCache


@pytest.fixture(scope="module")
def phi():
    return Processor(xeon_phi_5110p())


@pytest.fixture(scope="module")
def host2():
    return Processor(maia_host_processor(), sockets=2)


# --------------------------------------------------------------- roofline


@pytest.mark.parametrize("bench", ["MG", "CG", "BT", "FT"])
def test_kernel_time_batch_bit_identical(bench, phi):
    kern = class_c_kernel(bench)
    counts = list(range(1, phi.max_threads + 1))
    sync = [barrier_cost(phi.spec, n) if kern.sync_points else 0.0 for n in counts]
    bd = kernel_time_batch(kern, phi, counts, sync_costs=sync, check_memory=False)
    for i, n in enumerate(counts):
        t = kernel_time(kern, phi, n, sync_cost=sync[i], check_memory=False)
        assert bd.feasible[i]
        assert bd.compute_time[i] == t.compute_time
        assert bd.memory_time[i] == t.memory_time
        assert bd.serial_time[i] == t.serial_time
        assert bd.sync_time[i] == t.sync_time
        assert bd.total[i] == t.total
        assert bd.bound(i) == t.bound


def test_kernel_time_batch_multi_socket(host2):
    """NUMA round-robin shares mirror the scalar per-socket loop."""
    kern = class_c_kernel("MG")
    counts = list(range(1, host2.max_threads + 1))
    bd = kernel_time_batch(kern, host2, counts, check_memory=False)
    for i, n in enumerate(counts):
        t = kernel_time(kern, host2, n, check_memory=False)
        assert bd.total[i] == t.total


def test_out_of_range_counts_masked_not_raised(phi):
    kern = class_c_kernel("MG")
    counts = [0, 1, phi.max_threads, phi.max_threads + 1, -3]
    bd = kernel_time_batch(kern, phi, counts, check_memory=False)
    assert list(bd.feasible) == [False, True, True, False, False]


def test_footprint_over_memory_raises_for_whole_batch(phi):
    big = KernelSpec(name="big", flops=1e9, memory_traffic=1e9,
                     footprint=1e18)
    with pytest.raises(OutOfMemoryError):
        kernel_time_batch(big, phi, [59, 118], check_memory=True)


def test_sync_costs_must_align(phi):
    kern = class_c_kernel("MG")
    with pytest.raises(ConfigError):
        kernel_time_batch(kern, phi, [59, 118], sync_costs=[0.0])


def test_scalar_fallback_matches_numpy_path(phi, monkeypatch, recwarn):
    """Without numpy the batch loop degrades to identical scalar results."""
    import repro.execmodel.batch as batch_mod
    import repro.perf.batch as gate

    kern = class_c_kernel("CG")
    counts = [0, 59, 118, 177, 236, 500]
    fast = kernel_time_batch(kern, phi, counts, check_memory=False)
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
    gate.reset_fallback_warning()
    slow = kernel_time_batch(kern, phi, counts, check_memory=False)
    slow2 = kernel_time_batch(kern, phi, counts, check_memory=False)
    warnings = [w for w in recwarn.list if "numpy is not installed" in str(w.message)]
    assert len(warnings) == 1  # single warning, not one per batch
    for i in range(len(counts)):
        assert bool(fast.feasible[i]) == slow.feasible[i] == slow2.feasible[i]
        if slow.feasible[i]:
            assert fast.total[i] == slow.total[i]


# --------------------------------------------------------------- evaluator


def test_native_batch_equals_native():
    ev = Evaluator()
    kern = class_c_kernel("MG")
    counts = [1, 16, 59, 118, 177, 236, 300]
    batch = ev.native_batch(Device.PHI0, kern, counts)
    for n, m in zip(counts, batch):
        if m is None:
            with pytest.raises((ConfigError, OutOfMemoryError)):
                ev.native(Device.PHI0, kern, n)
        else:
            assert m == ev.native(Device.PHI0, kern, n)


def test_native_batch_shares_cache_with_scalar():
    cache = EvalCache()
    ev = Evaluator(cache=cache)
    kern = class_c_kernel("MG")
    warm = ev.native(Device.PHI0, kern, 118)
    batch = ev.native_batch(Device.PHI0, kern, [59, 118, 177])
    assert batch[1] is warm  # batch replays the scalar-cached entry
    assert ev.native(Device.PHI0, kern, 59) is batch[0]


def test_partial_batch_hit_counts_per_point():
    """Regression: a 1-hit/2-miss batch must record exactly that."""
    cache = EvalCache()
    ev = Evaluator(cache=cache)
    kern = class_c_kernel("MG")
    ev.native(Device.PHI0, kern, 118)  # 1 miss
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    ev.native_batch(Device.PHI0, kern, [59, 118, 177])
    assert (cache.stats.hits, cache.stats.misses) == (1, 3)
    ev.native_batch(Device.PHI0, kern, [59, 118, 177])  # all hits now
    assert (cache.stats.hits, cache.stats.misses) == (4, 3)


def test_infeasible_batch_points_not_cached():
    cache = EvalCache()
    ev = Evaluator(cache=cache)
    kern = class_c_kernel("MG")
    out = ev.native_batch(Device.PHI0, kern, [9999])
    assert out == [None]
    assert len(cache) == 0


# ------------------------------------------------------------------ sweeps


@pytest.mark.parametrize("dev", [Device.HOST, Device.PHI0])
def test_thread_sweep_batch_identical(dev):
    kern = class_c_kernel("CG")
    counts = list(range(1, 260, 7))
    batched = thread_sweep(Evaluator(), kern, dev, counts, batch=True)
    pointwise = thread_sweep(Evaluator(), kern, dev, counts, batch=False)
    assert list(batched) == list(pointwise)


def test_thread_sweep_batch_raises_when_not_skipping():
    kern = class_c_kernel("MG")
    with pytest.raises(ConfigError):
        thread_sweep(
            Evaluator(), kern, Device.PHI0, [59, 9999],
            skip_infeasible=False, batch=True,
        )


def test_thread_sweep_batch_scalar_disagreement_is_an_error(monkeypatch):
    """Regression: with ``skip_infeasible=False`` a point the batch path
    masks but the scalar path prices must surface as an explicit error,
    not silently vanish from the sweep."""
    from repro.errors import SimulationError

    ev = Evaluator()
    kern = class_c_kernel("MG")
    real_batch = Evaluator.native_batch

    def lying_batch(self, dev, kernel, counts, **kw):
        out = real_batch(self, dev, kernel, counts, **kw)
        out[0] = None  # mask a perfectly feasible point
        return out

    monkeypatch.setattr(Evaluator, "native_batch", lying_batch)
    with pytest.raises(SimulationError, match="disagreement"):
        thread_sweep(ev, kern, Device.PHI0, [59, 118],
                     skip_infeasible=False, batch=True)


def test_decomposition_sweep_batch_identical():
    from repro.apps import OverflowModel, dataset

    model = OverflowModel(dataset("DLRF6-Medium"))
    grid = [(i, j) for i in range(1, 25) for j in range(1, 25)]
    for dev in (Device.HOST, Device.PHI0):
        batched = model.decomposition_sweep(dev, grid, batch=True)
        pointwise = model.decomposition_sweep(dev, grid, batch=False)
        assert batched == pointwise
        assert len(batched) > 0


def test_decomposition_sweep_batch_rejects_invalid_points():
    from repro.apps import OverflowModel, dataset

    model = OverflowModel(dataset("DLRF6-Medium"))
    with pytest.raises(ConfigError, match="invalid decomposition"):
        model.decomposition_sweep(Device.HOST, [(0, 4)], batch=True)


def test_decomposition_sweep_batch_traces_like_pointwise():
    from repro.apps import OverflowModel, dataset
    from repro.obs.tracer import Tracer

    model = OverflowModel(dataset("DLRF6-Medium"))
    grid = [(1, 1), (2, 2), (4, 4)]
    tr_b, tr_p = Tracer(), Tracer()
    model.decomposition_sweep(Device.HOST, grid, batch=True, trace=tr_b)
    model.decomposition_sweep(Device.HOST, grid, batch=False, trace=tr_p)
    assert len(tr_b.events) == len(tr_p.events) > 0
