"""Tests for the parallel sweep executor and its sweep wiring.

The load-bearing property: a parallel sweep returns *bit-identical*
results, in identical order, to the serial path.  Pool workers are kept
to 2 and grids small — correctness, not speed, is under test.
"""

import pytest

from repro.apps import OverflowModel, dataset
from repro.core import Evaluator
from repro.core.sweep import (
    INFEASIBLE_ERRORS,
    decomposition_sweep,
    grid_sweep,
    message_size_sweep,
    thread_sweep,
)
from repro.errors import ConfigError, OutOfMemoryError
from repro.machine.node import Device
from repro.npb.characterization import class_c_kernel
from repro.perf.parallel import default_workers, parallel_map, parallel_tasks


def _square(x):
    return x * x


def _oversized_kernel():
    """A Class-C kernel inflated past the Phi's 8 GB (the FT-on-Phi shape)."""
    import dataclasses

    return dataclasses.replace(class_c_kernel("FT"), footprint=int(10 * 2**30))


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _maybe_boom(x):
    if x == 3:
        raise RuntimeError("boom 3")
    return x


# --------------------------------------------------------------------------
# the executor
# --------------------------------------------------------------------------


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty_and_single(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [5], workers=4) == [25]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(23))
        assert parallel_map(_square, items, workers=2) == [x * x for x in items]

    def test_exceptions_propagate_serial(self):
        with pytest.raises(RuntimeError, match="boom 3"):
            parallel_map(_maybe_boom, [1, 2, 3, 4])

    def test_exceptions_propagate_parallel(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_boom, [1, 2, 3, 4], workers=2)

    def test_unpicklable_fn_falls_back_to_serial(self):
        # A closure cannot be pickled into pool workers; the executor must
        # degrade to the serial path, not fail.
        offset = 10
        with pytest.warns(RuntimeWarning):
            result = parallel_map(lambda x: x + offset, [1, 2, 3], workers=2)
        assert result == [11, 12, 13]

    def test_serial_fallback_warns_naming_the_cause(self):
        # The fallback used to be silent — a sweep just ran N× slower.
        # Exactly one RuntimeWarning must fire, naming the unpicklable
        # culprit so CI logs show why parallelism was disabled.
        offset = 7
        with pytest.warns(RuntimeWarning, match="cannot pickle") as caught:
            parallel_map(lambda x: x + offset, [1, 2], workers=2)
        fallback = [
            w for w in caught if "parallel execution disabled" in str(w.message)
        ]
        assert len(fallback) == 1
        assert "lambda" in str(fallback[0].message)

    def test_serial_path_does_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
            assert parallel_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]

    def test_parallel_tasks_preserves_order(self):
        tasks = [(_square, 3), (_square, 4), (_square, 5)]
        assert parallel_tasks(tasks, workers=2) == [9, 16, 25]

    def test_default_workers_positive(self):
        assert default_workers() >= 1


# --------------------------------------------------------------------------
# sweep wiring
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator()


@pytest.fixture(scope="module")
def overflow():
    return OverflowModel(dataset("DLRF6-Medium"))


class TestThreadSweep:
    COUNTS = (16, 59, 118, 177, 236)

    def test_parallel_identical_to_serial(self, evaluator):
        k = class_c_kernel("MG")
        serial = thread_sweep(evaluator, k, Device.PHI0, self.COUNTS)
        par = thread_sweep(evaluator, k, Device.PHI0, self.COUNTS, workers=2)
        assert list(serial) == list(par)
        assert [m.config["threads"] for m in par] == list(self.COUNTS)

    def test_infeasible_points_skipped(self, evaluator):
        # A kernel too big for the Phi's 8 GB: every point is infeasible.
        rs = thread_sweep(evaluator, _oversized_kernel(), Device.PHI0, (59, 118))
        assert len(rs) == 0

    def test_skip_infeasible_false_raises(self, evaluator):
        with pytest.raises(OutOfMemoryError):
            thread_sweep(
                evaluator, _oversized_kernel(), Device.PHI0, (59,),
                skip_infeasible=False,
            )

    def test_skip_infeasible_false_raises_from_pool(self, evaluator):
        with pytest.raises(OutOfMemoryError):
            thread_sweep(
                evaluator, _oversized_kernel(), Device.PHI0, (59, 118),
                skip_infeasible=False, workers=2,
            )


class TestDecompositionSweep:
    CONFIGS = [(16, 1), (8, 2), (4, 4), (2, 8), (1, 16)]

    def test_parallel_identical_to_serial(self, overflow):
        run = lambda i, j: overflow.native_step(Device.HOST, i, j)  # noqa: E731
        serial = decomposition_sweep(overflow_host_step(overflow), self.CONFIGS)
        par = decomposition_sweep(
            overflow_host_step(overflow), self.CONFIGS, workers=2
        )
        unwired = decomposition_sweep(run, self.CONFIGS)
        assert list(serial) == list(par) == list(unwired)
        assert [(m.config["ranks"], m.config["omp_threads"]) for m in par] == self.CONFIGS

    def test_infeasible_skipped(self, overflow):
        # 32x28 exceeds the Phi's 236 hardware threads -> ConfigError point.
        rs = decomposition_sweep(
            overflow_phi_step(overflow), [(8, 28), (32, 28)]
        )
        assert [(m.config["ranks"], m.config["omp_threads"]) for m in rs] == [(8, 28)]

    def test_invalid_decomposition_rejected(self, overflow):
        with pytest.raises(ConfigError):
            decomposition_sweep(overflow_host_step(overflow), [(0, 4)])

    def test_genuine_bugs_propagate(self):
        # The old bare `except Exception` silently ate everything; only the
        # simulator's own error types may be treated as infeasible.
        def buggy(i, j):
            raise ValueError("a real bug")

        with pytest.raises(ValueError, match="a real bug"):
            decomposition_sweep(buggy, [(1, 1)])

    def test_model_sweep_method_parallel(self, overflow):
        serial = overflow.decomposition_sweep(Device.PHI0, [(4, 14), (8, 28)])
        par = overflow.decomposition_sweep(
            Device.PHI0, [(4, 14), (8, 28)], workers=2
        )
        assert serial == par


class TestGridSweep:
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


# Module-level step helpers so the pool can pickle them (bound methods of
# module-fixture models also pickle, but keep intent explicit).


class overflow_host_step:
    def __init__(self, model):
        self.model = model

    def __call__(self, i, j):
        return self.model.native_step(Device.HOST, i, j)


class overflow_phi_step:
    def __init__(self, model):
        self.model = model

    def __call__(self, i, j):
        return self.model.native_step(Device.PHI0, i, j)
