"""The Evaluator: one front door for running a workload under any mode.

Binds a node (machine models), a software stack, and the runtime cost
models together::

    ev = Evaluator()                      # Maia, post-update software
    m = ev.native(Device.PHI0, kernel, n_threads=177)
    m.gflops                              # the Fig 19/25 y-axis

The evaluator prices OpenMP synchronization into native runs (the
roofline's ``sync_cost``) using the Fig 15 barrier model, enforces device
memory limits (FT-on-Phi fails), and exposes offload and symmetric modes
through their dedicated models.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigError
from repro.core.modes import ProgrammingMode
from repro.core.offload import OffloadCostModel, OffloadRegion, OffloadReport
from repro.core.results import Measurement
from repro.core.software import POST_UPDATE, SoftwareStack
from repro.execmodel.kernel import KernelSpec
from repro.execmodel.roofline import kernel_time
from repro.machine.node import Device, MaiaNode
from repro.machine.presets import maia_host_processor, maia_node
from repro.machine.processor import Processor
from repro.obs.tracer import Tracer, active
from repro.openmp.constructs import barrier_cost
from repro.perf.cache import EvalCache, fingerprint


class Evaluator:
    """Runs kernels on a Maia node under the four programming modes.

    Passing an :class:`~repro.perf.cache.EvalCache` memoizes
    :meth:`native` and :meth:`offload`: repeated evaluations of the same
    (machine, kernel, mode, params) point across figures are priced
    once.  Keys include a fingerprint of the node spec and software
    stack, so evaluators built over different machines never share
    entries.

    A ``fault_plan`` (:class:`~repro.faults.FaultPlan`) applies memory
    pressure: kernel footprints are checked against the *pressured*
    device capacity, so Fig 19/20-style OOMs fire earlier than on the
    healthy card.  The plan's fingerprint is mixed into the machine
    fingerprint, keeping faulted and healthy campaigns in disjoint cache
    namespaces.
    """

    def __init__(
        self,
        node: Optional[MaiaNode] = None,
        software: SoftwareStack = POST_UPDATE,
        cache: Optional[EvalCache] = None,
        fault_plan: Optional["object"] = None,
    ):
        self.node = node or maia_node()
        self.software = software
        self.cache = cache
        self.fault_plan = fault_plan
        self._processors: Dict[Device, Processor] = {}
        self._machine_key: Optional[str] = None

    @property
    def machine_fingerprint(self) -> str:
        """Stable hash of this evaluator's machine spec + software stack
        (and active fault plan, when one is attached)."""
        if self._machine_key is None:
            key = fingerprint(self.node, self.software)
            if self.fault_plan is not None:
                key = f"{key}+faults:{self.fault_plan.fingerprint()}"
            self._machine_key = key
        return self._machine_key

    def _check_pressure(self, kernel: KernelSpec, proc: Processor) -> None:
        """Raise if memory-pressure faults shrink the device below the
        kernel's footprint (the healthy-capacity check still runs in the
        roofline itself)."""
        if self.fault_plan is not None:
            self.fault_plan.check_footprint(
                kernel.footprint, proc.memory_capacity, kernel.name
            )

    def processor(self, dev: Device) -> Processor:
        """The device as a Processor facade (host = merged 16-core view)."""
        dev = Device(dev)
        if dev not in self._processors:
            if dev is Device.HOST:
                self._processors[dev] = Processor(maia_host_processor())
            else:
                self._processors[dev] = Processor(self.node.processor(dev))
        return self._processors[dev]

    # ----------------------------------------------------------- native

    def native(
        self,
        dev: Device,
        kernel: KernelSpec,
        n_threads: int,
        check_memory: bool = True,
    ) -> Measurement:
        """Native-mode execution of ``kernel`` on ``dev``.

        Synchronization points are priced with the device's barrier
        overhead at this thread count (Fig 15's model).  With a cache
        attached, repeat evaluations replay the stored measurement.
        """
        if self.cache is not None:
            key = self.cache.key(
                "native", self.machine_fingerprint, kernel,
                Device(dev).value, n_threads, check_memory,
            )
            return self.cache.get_or_compute(
                key, lambda: self._native_uncached(dev, kernel, n_threads, check_memory)
            )
        return self._native_uncached(dev, kernel, n_threads, check_memory)

    def _native_uncached(
        self,
        dev: Device,
        kernel: KernelSpec,
        n_threads: int,
        check_memory: bool = True,
    ) -> Measurement:
        proc = self.processor(dev)
        if check_memory:
            self._check_pressure(kernel, proc)
        sync = barrier_cost(proc.spec, n_threads) if kernel.sync_points else 0.0
        t = kernel_time(
            kernel, proc, n_threads, sync_cost=sync, check_memory=check_memory
        )
        mode = (
            ProgrammingMode.NATIVE_HOST
            if Device(dev) is Device.HOST
            else ProgrammingMode.NATIVE_PHI
        )
        return Measurement(
            name=kernel.name,
            time=t.total,
            unit="run",
            gflops=kernel.flops / t.total / 1e9 if kernel.flops else None,
            config={
                "mode": mode,
                "device": Device(dev).value,
                "threads": n_threads,
                "bound": t.bound,
            },
        )

    # ---------------------------------------------------------- offload

    def offload_model(
        self, target: Device = Device.PHI0, n_threads: int = 177
    ) -> OffloadCostModel:
        """An offload cost model targeting ``target``."""
        target = Device(target)
        if target is Device.HOST:
            raise ConfigError("cannot offload to the host")
        link = self.node.link(Device.HOST, target)
        return OffloadCostModel(link, self.processor(target), n_threads=n_threads)

    def offload(
        self,
        region: OffloadRegion,
        target: Device = Device.PHI0,
        n_threads: int = 177,
        tracer: Optional[Tracer] = None,
    ) -> Measurement:
        """Offload-mode execution; time covers all invocations.

        An active ``tracer`` records the run's phase spans — and bypasses
        the cache, since a replayed measurement would emit no spans.
        """
        if self.cache is not None and active(tracer) is None:
            key = self.cache.key(
                "offload", self.machine_fingerprint, region,
                Device(target).value, n_threads,
            )
            return self.cache.get_or_compute(
                key, lambda: self._offload_uncached(region, target, n_threads)
            )
        return self._offload_uncached(region, target, n_threads, tracer=tracer)

    def _offload_uncached(
        self,
        region: OffloadRegion,
        target: Device = Device.PHI0,
        n_threads: int = 177,
        tracer: Optional[Tracer] = None,
    ) -> Measurement:
        report: OffloadReport = self.offload_model(target, n_threads).run(
            region, tracer=tracer
        )
        flops = region.kernel.flops * region.invocations
        return Measurement(
            name=region.name,
            time=report.total,
            unit="run",
            gflops=flops / report.total / 1e9 if flops else None,
            config={
                "mode": ProgrammingMode.OFFLOAD,
                "device": Device(target).value,
                "threads": n_threads,
                "invocations": report.invocations,
                "overhead": report.overhead,
                "total_data": report.total_data,
            },
        )
