"""Built-in campaign experiments for the ``repro campaign`` CLI and CI.

Point functions live at module level (``partial`` for fixed arguments)
so they pickle into pool workers *and* fingerprint stably across
interpreter runs — both requirements of
:class:`~repro.campaign.spec.CampaignSpec`.

* ``fig22`` — the OVERFLOW decomposition campaign behind Figure 22:
  every feasible (device, I, J) lattice point of a DLRF6 case.  Under
  the demo fault plan, memory pressure shrinks the Phi card below the
  case footprint, so every Phi point dies on its first attempt and
  recovers when the retry policy relaxes the plan — the CI
  kill-and-resume gate's ``capture_failures``-retry scenario.  Needs
  numpy (the dataset layer).

* ``halo`` — a pure-python ring-exchange campaign over (ranks, nbytes):
  each point simulates an I-rank halo ring through
  :func:`~repro.mpi.compile.compiled_mpiexec`.  Works without numpy;
  under the demo plan a scheduled rank crash kills the longer exchanges
  mid-ring and the retry policy's relaxation (the one-shot crash is
  dropped) recovers them.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.retry import RetryPolicy
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, MemoryPressure, RankCrash
from repro.paperdata import FIG22_OVERFLOW_NATIVE
from repro.units import GiB, KiB

__all__ = ["EXPERIMENTS", "JOB_STATS", "build_spec", "demo_plan",
           "reset_job_stats"]

#: Device capacities the fig22 fault check prices against (Table 1).
_HOST_MEMORY = 32 * GiB
_PHI_MEMORY = 8 * GiB


# ==========================================================================
# fig22: the OVERFLOW decomposition lattice
# ==========================================================================


@lru_cache(maxsize=4)
def _overflow_model(grid_name: str):
    from repro.apps import OverflowModel, dataset

    return OverflowModel(dataset(grid_name))


#: Whole-job memo shared by every fig22 exchange probe in this process:
#: a resumed (or retried) campaign re-prices repeated decompositions as
#: O(1) cache hits instead of re-running the replay.  Built lazily so
#: importing this module stays dependency-free.
_JOB_CACHE: Optional[Any] = None

#: Path counters for the fig22 exchange probes (``"memo"``/``"replay"``/
#: ``"vector"``/``"stepped"`` → count) — the campaign tests' proof that a
#: second pass steps no engine event.
JOB_STATS: Dict[str, int] = {}


def reset_job_stats() -> None:
    """Drop the fig22 job memo and its path counters (test hook)."""
    global _JOB_CACHE
    _JOB_CACHE = None
    JOB_STATS.clear()


def _job_cache():
    global _JOB_CACHE
    if _JOB_CACHE is None:
        from repro.perf.cache import EvalCache

        _JOB_CACHE = EvalCache()
    return _JOB_CACHE


def _decomp_halo_main(nbytes: int, comm):
    """The decomposition's communication skeleton: one halo exchange per
    lattice direction plus the residual allreduce."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.sendrecv(right, left, nbytes=nbytes)
    yield from comm.sendrecv(left, right, nbytes=nbytes)
    total = yield from comm.allreduce(comm.rank, nbytes=8)
    return total


def _exchange_probe(device_str: str, i: int, j: int,
                    footprint: float) -> Optional[float]:
    """Price the (i, j) decomposition's halo+allreduce exchange.

    Runs through :func:`~repro.mpi.compile.compiled_mpiexec` against the
    shared :func:`_job_cache`, so the campaign runner's repeated
    decompositions (resume passes, retry attempts, shared rank counts)
    hit the memo in O(1) with zero engine steps.  Which path priced the
    probe goes to :data:`JOB_STATS`, never into the result: it depends on
    what this process priced before.  Fault plans stay on the
    native-step path: the probe always prices the healthy network.
    """
    ranks = i * j
    if ranks < 2:
        return None
    from repro.mpi.compile import CompileStats, compiled_mpiexec
    from repro.mpi.fabrics import host_fabric, phi_fabric

    fabric = host_fabric() if device_str == "host" else phi_fabric()
    # Halo plane bytes per rank: the footprint sliced across the lattice.
    nbytes = max(64, int(footprint) // (ranks * 64))
    st = CompileStats()
    res = compiled_mpiexec(
        ranks, fabric, partial(_decomp_halo_main, nbytes),
        cache=_job_cache(), stats=st,
    )
    JOB_STATS[st.path] = JOB_STATS.get(st.path, 0) + 1
    return res.elapsed


def fig22_points(quick: bool = False) -> List[Tuple[str, int, int]]:
    """The (device, I, J) grid; ``quick`` keeps the paper's nine points."""
    if quick:
        host = FIG22_OVERFLOW_NATIVE["host_configs"]
        phi = FIG22_OVERFLOW_NATIVE["phi_configs"]
    else:
        host = [
            (i, j)
            for i in (1, 2, 4, 8, 16)
            for j in (1, 2, 4, 8, 16)
            if i * j <= 32
        ]
        phi = [
            (i, j)
            for i in (2, 4, 8, 16, 32, 59)
            for j in (1, 2, 4, 7, 14, 28)
            if i * j <= 236
        ]
    return [("host", i, j) for i, j in host] + [("phi0", i, j) for i, j in phi]


def fig22_point(
    grid_name: str, point: Tuple[str, int, int], fault_plan: Optional[FaultPlan]
) -> Any:
    """Price one Fig-22 decomposition, honouring an active fault plan.

    Memory-pressure faults check the case footprint against the
    (pressured) device capacity before pricing — the same check the
    alltoall sweeps use — so a pressured card raises
    :class:`~repro.errors.OutOfMemoryError` exactly as the real machine
    would refuse the allocation.  Stragglers scale the step time by the
    plan's compute factor for rank 0 at t=0 (the decomposition's
    critical path).
    """
    from repro.machine.node import Device

    device_str, i, j = point
    device = Device(device_str)
    model = _overflow_model(grid_name)
    if fault_plan is not None:
        base = _HOST_MEMORY if device is Device.HOST else _PHI_MEMORY
        fault_plan.check_footprint(
            model.grid.footprint,
            base,
            what=f"overflow[{grid_name}] {i}x{j} on {device_str}",
        )
    m = model.native_step(device, i, j)
    if fault_plan is not None:
        factor = fault_plan.compute_factor(0, 0.0)
        if factor != 1.0:
            from repro.core.results import Measurement

            m = Measurement(m.name, m.time * factor, m.unit, m.gflops, m.config)
    elapsed = _exchange_probe(device_str, i, j, model.grid.footprint)
    if elapsed is not None:
        from repro.core.results import Measurement

        cfg = dict(m.config)
        cfg["exchange_elapsed_s"] = elapsed
        m = Measurement(m.name, m.time, m.unit, m.gflops, cfg)
    return m


# ==========================================================================
# halo: pure-python ring exchange
# ==========================================================================


def halo_points(quick: bool = False) -> List[Tuple[int, int]]:
    """(ranks, nbytes) grid for the ring-exchange campaign."""
    ranks = (2, 4, 8) if quick else (2, 4, 8, 16, 32)
    sizes = (1 * KiB, 64 * KiB) if quick else (1 * KiB, 16 * KiB, 256 * KiB)
    return [(r, n) for r in ranks for n in sizes]


def _halo_main(nbytes: int, comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.sendrecv(right, left, nbytes=nbytes)
    yield from comm.sendrecv(left, right, nbytes=nbytes)
    yield from comm.barrier()


def halo_point(
    fabric_name: str,
    tpc: int,
    point: Tuple[int, int],
    fault_plan: Optional[FaultPlan],
) -> Any:
    """Simulate one halo ring under ``fault_plan`` with the stepped
    collective algorithms (``fast_collectives=False``).

    A plan with a rank crash steps on the event engine; a static plan
    (the relaxed, crash-free retry) prices on the max-plus replay, which
    runs the same collective algorithms.
    """
    from repro.core.results import Measurement
    from repro.mpi.compile import compiled_mpiexec
    from repro.mpi.fabrics import host_fabric, phi_fabric

    ranks, nbytes = point
    fabric = host_fabric() if fabric_name == "host" else phi_fabric(tpc)
    res = compiled_mpiexec(
        ranks,
        fabric,
        partial(_halo_main, nbytes),
        fault_plan=fault_plan,
        fast_collectives=False,
    )
    return Measurement(
        name="halo-ring",
        time=res.elapsed,
        config={"ranks": ranks, "nbytes": nbytes},
    )


# ==========================================================================
# Registry
# ==========================================================================


def demo_plan(experiment: str) -> FaultPlan:
    """The demo fault plan each experiment recovers from via retries."""
    if experiment == "fig22":
        # 0.4 * 8 GiB = 3.2 GiB < the ~4 GiB DLRF6-Medium footprint: every
        # Phi point OOMs on attempt 1; relaxation drops the pressure and
        # attempt 2 prices the healthy step.  The host (0.4 * 32 GiB)
        # stays feasible throughout.
        return FaultPlan(
            [MemoryPressure(capacity_factor=0.4, label="demo-pressure")]
        )
    if experiment == "halo":
        # Kill rank 1 early in the exchange: the affected points die with
        # a FaultError on attempt 1; relaxation drops the one-shot crash
        # and attempt 2 completes the healthy ring.
        return FaultPlan([RankCrash(rank=1, at=2e-6, label="demo-crash")])
    raise ConfigError(f"no demo plan for experiment {experiment!r}")


def build_spec(
    experiment: str,
    quick: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    grid_name: str = "DLRF6-Medium",
    fabric: str = "host",
    tpc: int = 3,
) -> CampaignSpec:
    """Build one of the registered campaign specs by name."""
    if retry is None:
        retry = RetryPolicy()
    if experiment == "fig22":
        return CampaignSpec(
            name=f"fig22[{grid_name}]",
            point_fn=partial(fig22_point, grid_name),
            points=fig22_points(quick),
            fault_plan=fault_plan,
            retry=retry,
        )
    if experiment == "halo":
        return CampaignSpec(
            name=f"halo[{fabric}]",
            point_fn=partial(halo_point, fabric, tpc),
            points=halo_points(quick),
            fault_plan=fault_plan,
            retry=retry,
        )
    raise ConfigError(
        f"unknown campaign experiment {experiment!r} (have {sorted(EXPERIMENTS)})"
    )


#: Experiment names the CLI accepts.
EXPERIMENTS = ("fig22", "halo")
