"""Vectorized batch evaluation vs the scalar model stack.

The contract for every batch entry point (`kernel_time_batch`,
`OverflowModel.decomposition_sweep(batch=True)`) is *bit-identical*
results to the per-point scalar loop, with infeasible points masked
(batch) where the scalar path raises.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, OutOfMemoryError
from repro.execmodel.batch import kernel_time_batch
from repro.execmodel.kernel import KernelSpec
from repro.execmodel.roofline import kernel_time
from repro.machine.node import Device
from repro.machine.presets import maia_host_processor, xeon_phi_5110p
from repro.machine.processor import Processor
from repro.npb.characterization import class_c_kernel


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
    bd = kernel_time_batch(kern, phi, counts, check_memory=False)
    for i, n in enumerate(counts):
        t = kernel_time(kern, phi, n, check_memory=False)
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


# ------------------------------------------------------------------ sweeps


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


def test_decomposition_sweep_without_numpy_matches_pointwise(monkeypatch, recwarn):
    """A batch sweep that finds no numpy prices point by point: identical
    results to ``batch=False``, and one warning, not one per sweep."""
    import repro.perf.batch as gate
    from repro.apps import OverflowModel, dataset

    model = OverflowModel(dataset("DLRF6-Medium"))
    grid = [(i, j) for i in (1, 2, 4, 8, 16, 32) for j in (1, 2, 4, 8, 28)]
    pointwise = {
        dev: model.decomposition_sweep(dev, grid, batch=False)
        for dev in (Device.HOST, Device.PHI0)
    }
    monkeypatch.setattr(gate, "get_numpy", lambda: None)
    gate.reset_fallback_warning()
    for dev in (Device.HOST, Device.PHI0):
        priced = model.decomposition_sweep(dev, grid)
        assert priced == pointwise[dev]
        assert 0 < len(priced) < len(grid)  # some points are infeasible
    warnings = [w for w in recwarn.list if "numpy is not installed" in str(w.message)]
    assert len(warnings) == 1
