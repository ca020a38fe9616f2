"""Tests for the sweep helpers of :mod:`repro.core.sweep`.

Sweeps price their grid serially and return feasible points in grid
order; only the simulator's own error types mark a point infeasible.
"""

from functools import partial

import pytest

from repro.apps import OverflowModel, dataset
from repro.core import Evaluator
from repro.core.sweep import (
    INFEASIBLE_ERRORS,
    grid_sweep,
    message_size_sweep,
)
from repro.errors import OutOfMemoryError
from repro.machine.node import Device
from repro.npb.characterization import class_c_kernel


def _oversized_kernel():
    """A Class-C kernel inflated past the Phi's 8 GB (the FT-on-Phi shape)."""
    import dataclasses

    return dataclasses.replace(class_c_kernel("FT"), footprint=int(10 * 2**30))


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator()


@pytest.fixture(scope="module")
def overflow():
    return OverflowModel(dataset("DLRF6-Medium"))


class TestDecompositionSweep:
    CONFIGS = [(16, 1), (8, 2), (4, 4), (2, 8), (1, 16)]

    def test_grid_order(self, overflow):
        rs = grid_sweep(partial(overflow.native_step, Device.HOST), self.CONFIGS)
        assert [(m.config["ranks"], m.config["omp_threads"]) for m in rs] == self.CONFIGS

    def test_infeasible_skipped(self, overflow):
        # 32x28 exceeds the Phi's 236 hardware threads -> ConfigError point.
        rs = grid_sweep(
            partial(overflow.native_step, Device.PHI0), [(8, 28), (32, 28)]
        )
        assert [(m.config["ranks"], m.config["omp_threads"]) for m in rs] == [(8, 28)]

    def test_genuine_bugs_propagate(self):
        # The old bare `except Exception` silently ate everything; only the
        # simulator's own error types may be treated as infeasible.
        def buggy(i, j):
            raise ValueError("a real bug")

        with pytest.raises(ValueError, match="a real bug"):
            grid_sweep(buggy, [(1, 1)])


class TestGridSweep:
    COUNTS = (16, 59, 118, 177, 236)

    def test_thread_axis_grid_order(self, evaluator):
        k = class_c_kernel("MG")
        rs = grid_sweep(partial(evaluator.native, Device.PHI0, k), self.COUNTS)
        assert [m.config["threads"] for m in rs] == list(self.COUNTS)

    def test_infeasible_points_skipped(self, evaluator):
        # A kernel too big for the Phi's 8 GB: every point is infeasible.
        native = partial(evaluator.native, Device.PHI0, _oversized_kernel())
        assert len(grid_sweep(native, (59, 118))) == 0

    def test_skip_infeasible_false_raises(self, evaluator):
        native = partial(evaluator.native, Device.PHI0, _oversized_kernel())
        with pytest.raises(OutOfMemoryError):
            grid_sweep(native, (59,), skip_infeasible=False)

    def test_message_size_axis(self, evaluator):
        from repro.microbench.mpifuncs import function_time
        from repro.mpi.fabrics import phi_fabric

        fabric = phi_fabric(2)
        sizes = message_size_sweep(stop=4096)

        def price(n):
            from repro.core.results import Measurement

            return Measurement(
                name="allreduce", time=function_time("allreduce", fabric, 16, n),
                unit="call", config={"nbytes": n},
            )

        rs = grid_sweep(price, sizes)
        assert [m.config["nbytes"] for m in rs] == sizes
        assert all(m.time > 0 for m in rs)

    def test_infeasible_error_tuple_is_simulator_only(self):
        names = {e.__name__ for e in INFEASIBLE_ERRORS}
        assert "ConfigError" in names
        assert "OutOfMemoryError" in names
        assert "SimulationError" in names
        assert Exception not in INFEASIBLE_ERRORS
