"""Fault plans: scheduled injectors against the simulated clock.

A :class:`FaultPlan` is an ordered collection of fault descriptions —
link degradation, rank crashes, stragglers, memory pressure — applied to
a simulated MPI job (:class:`~repro.mpi.runtime.MpiJob`), an
:class:`~repro.core.evaluator.Evaluator`, or a bare fabric.  The plan is
pure data: the machinery that wires it into a running simulation lives
in :mod:`repro.faults.inject`.

The paper's single largest performance axis is itself a software fault:
the pre-update MPSS stack degrades MPI bandwidth over PCIe by up to 13×
(Figs 7–9).  :func:`pre_update_plan` expresses that stack as link
degradation over the post-update baseline — per-path latency/bandwidth
derates plus the loss of the DAPL-over-SCIF provider — and the
``bench_fault_equivalence`` gate checks the degraded model against the
paper's pre-update numbers at the Fig 7–9 tolerances.

Plans serialize to/from JSON (``FaultPlan.from_file``), the format the
``repro faults --plan`` CLI consumes; see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from fnmatch import fnmatch
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.errors import ConfigError
from repro.units import GiB

INF = math.inf


def _window_active(start: float, end: float, now: float) -> bool:
    return start <= now < end


@dataclass(frozen=True)
class LinkDegradation:
    """Scale a fabric's latency/bandwidth over a simulated-time window.

    ``latency_factor`` multiplies the per-message cost (α);
    ``bandwidth_factor`` multiplies the data rate (so a value < 1 is a
    degradation).  ``disable_scif`` models the pre-update software stack
    on PCIe paths: the DAPL-over-SCIF provider disappears and CCL-direct
    carries every message size.  ``link`` is an ``fnmatch`` pattern
    against the fabric's name (``"*"`` matches everything) so a plan can
    target one PCIe path out of several.
    """

    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    start: float = 0.0
    end: float = INF
    disable_scif: bool = False
    link: str = "*"
    label: str = "link-degradation"

    kind = "link"

    def __post_init__(self) -> None:
        if self.latency_factor <= 0 or self.bandwidth_factor <= 0:
            raise ConfigError(f"{self.label}: factors must be positive")
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(f"{self.label}: need 0 <= start < end")

    def active(self, now: float) -> bool:
        return _window_active(self.start, self.end, now)

    def matches(self, fabric_name: str) -> bool:
        return fnmatch(fabric_name, self.link)


@dataclass(frozen=True)
class RankCrash:
    """Kill rank ``rank`` at simulated time ``at``.

    The injector throws a :class:`~repro.errors.FaultError` naming the
    rank, the fault and the simulated time into the rank process at its
    current yield point — mid-collective if that is where the clock
    lands — so the run surfaces the cause instead of a generic
    :class:`~repro.errors.DeadlockError`.
    """

    rank: int
    at: float
    label: str = "crash"

    kind = "crash"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigError(f"{self.label}: rank must be >= 0")
        if self.at < 0:
            raise ConfigError(f"{self.label}: crash time must be >= 0")

    def describe(self) -> str:
        return f"{self.label}@rank{self.rank}"


@dataclass(frozen=True)
class Straggler:
    """Slow one rank's local computation by ``slowdown`` over a window.

    Models a thermally-throttled or time-sliced core: every
    ``Communicator.compute`` issued by ``rank`` while the window is
    active takes ``slowdown``× its nominal simulated time.
    """

    rank: int
    slowdown: float
    start: float = 0.0
    end: float = INF
    label: str = "straggler"

    kind = "straggler"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigError(f"{self.label}: rank must be >= 0")
        if self.slowdown < 1.0:
            raise ConfigError(f"{self.label}: slowdown must be >= 1")
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(f"{self.label}: need 0 <= start < end")

    def active(self, now: float) -> bool:
        return _window_active(self.start, self.end, now)


@dataclass(frozen=True)
class MemoryPressure:
    """Shrink the device memory available to the job.

    ``capacity_factor`` scales the base capacity; ``reserve_bytes`` is
    subtracted afterwards (a resident allocation).  Under pressure the
    Fig 14 alltoall and Fig 19/20 kernel-footprint OOMs fire at smaller
    message sizes / problem classes than on the healthy card.
    """

    capacity_factor: float = 1.0
    reserve_bytes: float = 0.0
    label: str = "memory-pressure"

    kind = "memory"

    def __post_init__(self) -> None:
        if not (0.0 < self.capacity_factor <= 1.0):
            raise ConfigError(f"{self.label}: capacity_factor in (0, 1]")
        if self.reserve_bytes < 0:
            raise ConfigError(f"{self.label}: reserve_bytes must be >= 0")


Fault = Union[LinkDegradation, RankCrash, Straggler, MemoryPressure]

_FAULT_TYPES: Dict[str, type] = {
    "link": LinkDegradation,
    "crash": RankCrash,
    "straggler": Straggler,
    "memory": MemoryPressure,
}


class FaultPlan:
    """A schedule of faults to inject into one simulated campaign.

    Parameters
    ----------
    faults:
        The fault descriptions (see the dataclasses above).
    device_memory:
        Base device capacity that :class:`MemoryPressure` faults shrink
        (default: one Phi card's 8 GiB of GDDR5).
    """

    def __init__(
        self, faults: Iterable[Fault] = (), device_memory: float = 8 * GiB
    ):
        if device_memory <= 0:
            raise ConfigError("device_memory must be positive")
        self.faults: List[Fault] = []
        self.device_memory = float(device_memory)
        for f in faults:
            self.add(f)

    # ------------------------------------------------------------ building

    def add(self, fault: Fault) -> "FaultPlan":
        if not isinstance(fault, tuple(_FAULT_TYPES.values())):
            raise ConfigError(f"not a fault: {fault!r}")
        self.faults.append(fault)
        return self

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ", ".join(f.kind for f in self.faults) or "empty"
        return f"<FaultPlan [{kinds}]>"

    # ------------------------------------------------------------- queries

    @property
    def link_faults(self) -> List[LinkDegradation]:
        return [f for f in self.faults if isinstance(f, LinkDegradation)]

    @property
    def crashes(self) -> List[RankCrash]:
        return [f for f in self.faults if isinstance(f, RankCrash)]

    @property
    def stragglers(self) -> List[Straggler]:
        return [f for f in self.faults if isinstance(f, Straggler)]

    @property
    def memory_faults(self) -> List[MemoryPressure]:
        return [f for f in self.faults if isinstance(f, MemoryPressure)]

    def compute_factor(self, rank: int, now: float) -> float:
        """Combined straggler slowdown for ``rank`` at time ``now``."""
        factor = 1.0
        for f in self.stragglers:
            if f.rank == rank and f.active(now):
                factor *= f.slowdown
        return factor

    def effective_memory(self, base: Optional[float] = None) -> float:
        """Device capacity after every memory-pressure fault is applied."""
        capacity = self.device_memory if base is None else float(base)
        for f in self.memory_faults:
            capacity = capacity * f.capacity_factor - f.reserve_bytes
        return max(0.0, capacity)

    def check_alltoall(self, p: int, nbytes: int) -> None:
        """Raise :class:`~repro.errors.OutOfMemoryError` if an alltoall of
        this shape no longer fits the pressured device memory."""
        if not self.memory_faults:
            return
        from repro.mpi.collectives import check_alltoall_memory

        check_alltoall_memory(p, nbytes, self.effective_memory())

    def check_footprint(self, footprint: float, base_capacity: float,
                        what: str = "workload") -> None:
        """Raise :class:`~repro.errors.OutOfMemoryError` if ``footprint``
        exceeds the pressured capacity derived from ``base_capacity``."""
        if not self.memory_faults:
            return
        effective = self.effective_memory(base_capacity)
        if footprint > effective:
            from repro.errors import OutOfMemoryError

            raise OutOfMemoryError(footprint, effective, what)

    def degrade(self, fabric: Any, clock: Any = None) -> Any:
        """Wrap ``fabric`` with this plan's matching link degradations.

        ``clock`` (anything with a ``now`` attribute, e.g. an
        :class:`~repro.simcore.engine.Engine`) gates the time windows;
        without one the degradations are treated as always active —
        the mode the Fig 7–9 fault-equivalence bench uses.  A fabric no
        link fault matches is returned unchanged.
        """
        name = getattr(fabric, "name", "")
        matching = [f for f in self.link_faults if f.matches(name)]
        if not matching:
            return fabric
        from repro.faults.inject import degrade

        return degrade(fabric, matching, clock=clock)

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        faults = []
        for f in self.faults:
            d = asdict(f)
            d["kind"] = f.kind
            if d.get("end") == INF:
                d["end"] = None
            faults.append(d)
        return {"device_memory": self.device_memory, "faults": faults}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict) or "faults" not in data:
            raise ConfigError("fault plan needs a 'faults' list")
        plan = cls(device_memory=data.get("device_memory", 8 * GiB))
        for entry in data["faults"]:
            entry = dict(entry)
            kind = entry.pop("kind", None)
            if kind not in _FAULT_TYPES:
                raise ConfigError(
                    f"unknown fault kind {kind!r} (have {sorted(_FAULT_TYPES)})"
                )
            if entry.get("end", 0.0) is None:
                entry["end"] = INF
            try:
                plan.add(_FAULT_TYPES[kind](**entry))
            except TypeError as exc:
                raise ConfigError(f"bad {kind} fault: {exc}") from None
        return plan

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--plan`` CLI format)."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load fault plan {path!r}: {exc}") from None
        return cls.from_dict(data)

    def to_file(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def fingerprint(self) -> str:
        """Stable digest of the plan (mixed into evaluation cache keys)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __eq__(self, other: Any) -> bool:
        # The faults are frozen dataclasses: two are equal when they are
        # of one kind with equal fields, as their to_dict() entries are.
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return (self.device_memory == other.device_memory
                and self.faults == other.faults)

    # Field equality makes plans unhashable by default; identity hashing
    # keeps them usable as ephemeral dict keys.
    __hash__ = object.__hash__

    # -------------------------------------------------------- relaxation

    def relaxed(self, steps: int = 1) -> "FaultPlan":
        """A progressively healthier copy of this plan (retry policy).

        Each relaxation step takes the square root of every link and
        straggler severity (halving its log-distance from healthy), so
        repeated relaxation converges geometrically on the fault-free
        plan.  Memory pressure and rank crashes are dropped outright at
        the first step: a pressured allocation either fits or it does
        not, and a crash already consumed its one scheduled kill — both
        only block a retry, never inform it.  ``relaxed(0)`` is ``self``.
        """
        if steps <= 0:
            return self
        root = 0.5**steps
        faults: List[Fault] = []
        for f in self.faults:
            if isinstance(f, LinkDegradation):
                faults.append(
                    replace(
                        f,
                        latency_factor=f.latency_factor**root,
                        bandwidth_factor=f.bandwidth_factor**root,
                        disable_scif=False,
                    )
                )
            elif isinstance(f, Straggler):
                slowdown = max(1.0, f.slowdown**root)
                if slowdown > 1.0:
                    faults.append(replace(f, slowdown=slowdown))
        return FaultPlan(faults, device_memory=self.device_memory)

    def describe(self) -> str:
        """One line per fault, for CLI output."""
        if not self.faults:
            return "(empty fault plan)"
        lines = []
        for f in self.faults:
            parts = [f"[{f.kind}] {f.label}"]
            for k, v in asdict(f).items():
                if k == "label" or v in (1.0, 0.0, INF, "*", False, "neighbor"):
                    continue
                parts.append(f"{k}={v}")
            lines.append("  ".join(parts))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# The paper's pre-update software stack as a fault plan
# --------------------------------------------------------------------------


def pre_update_plan() -> FaultPlan:
    """The pre-update MPSS/MPI stack expressed as link degradation.

    For each PCIe path, the pre-update environment is the post-update
    baseline with (a) the DAPL-over-SCIF provider disabled — CCL-direct
    carries every message size — and (b) the CCL latency/bandwidth
    derated to the pre-update calibration.  Factors are derived from the
    calibrated constants in :mod:`repro.mpi.protocols`, so the plan
    tracks any recalibration; ``benchmarks/bench_fault_equivalence.py``
    gates the degraded model against the paper's Fig 7–9 pre-update
    numbers.
    """
    from repro.mpi.protocols import PCIE_MPI_PATHS

    plan = FaultPlan()
    for path in ("host-phi0", "host-phi1", "phi0-phi1"):
        pre = PCIE_MPI_PATHS[(path, "pre-update")]
        post = PCIE_MPI_PATHS[(path, "post-update")]
        plan.add(
            LinkDegradation(
                latency_factor=pre.latency / post.latency,
                bandwidth_factor=pre.ccl_bandwidth / post.ccl_bandwidth,
                disable_scif=True,
                link=f"{path}*",
                label=f"pre-update-stack:{path}",
            )
        )
    return plan
