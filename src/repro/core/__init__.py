"""The paper's evaluation framework: programming modes, software stacks,
the evaluator, sweeps and reporting.

This package is the "core contribution" layer of the reproduction: it
combines the machine models (:mod:`repro.machine`), the execution model
(:mod:`repro.execmodel`) and the simulated runtimes (:mod:`repro.mpi`,
:mod:`repro.openmp`) into the four programming modes of the paper's
Section 4 — native host, native Phi, offload and symmetric — and runs
workloads under them.

Each name in ``__all__`` loads its submodule on first use, so importing
one submodule (:mod:`repro.mpi` reads :mod:`repro.core.software`) does
not load the evaluator chain.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.evaluator import Evaluator
    from repro.core.modes import ProgrammingMode
    from repro.core.offload import OffloadCostModel, OffloadRegion, OffloadReport
    from repro.core.results import Measurement, ResultSet
    from repro.core.software import PRE_UPDATE, POST_UPDATE, SoftwareStack
    from repro.core.symmetric import (
        SymmetricRun,
        SymmetricStep,
        WorkPartition,
        partition_zones,
    )

__all__ = [
    "Evaluator",
    "Measurement",
    "OffloadCostModel",
    "OffloadRegion",
    "OffloadReport",
    "POST_UPDATE",
    "PRE_UPDATE",
    "ProgrammingMode",
    "ResultSet",
    "SoftwareStack",
    "SymmetricRun",
    "SymmetricStep",
    "WorkPartition",
    "partition_zones",
]

# Runtime only: to mypy the TYPE_CHECKING imports above are the names,
# so a misspelt one is still reported.
if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(__name__, {
        "Evaluator": "repro.core.evaluator",
        "ProgrammingMode": "repro.core.modes",
        "OffloadCostModel": "repro.core.offload",
        "OffloadRegion": "repro.core.offload",
        "OffloadReport": "repro.core.offload",
        "Measurement": "repro.core.results",
        "ResultSet": "repro.core.results",
        "POST_UPDATE": "repro.core.software",
        "PRE_UPDATE": "repro.core.software",
        "SoftwareStack": "repro.core.software",
        "SymmetricRun": "repro.core.symmetric",
        "SymmetricStep": "repro.core.symmetric",
        "WorkPartition": "repro.core.symmetric",
        "partition_zones": "repro.core.symmetric",
    })
