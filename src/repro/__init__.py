"""repro — a performance-model reproduction of the SC'13 Maia evaluation.

Saini et al., *"An Early Performance Evaluation of Many Integrated Core
Architecture Based SGI Rackable Computing System"*, SC 2013, measured a
host (2× Intel Xeon E5-2670) + coprocessor (2× Intel Xeon Phi 5110P)
node across microbenchmarks, the NAS Parallel Benchmarks, and two NASA
CFD applications.  This library rebuilds that study as software:

* :mod:`repro.machine` — parameterized hardware models (Table 1),
* :mod:`repro.simcore` — a discrete-event engine,
* :mod:`repro.mpi` / :mod:`repro.openmp` — simulated programming runtimes,
* :mod:`repro.execmodel` — roofline-style kernel pricing,
* :mod:`repro.core` — the four programming modes and the evaluator,
* :mod:`repro.microbench` — the paper's microbenchmark suite,
* :mod:`repro.npb` — real NumPy NAS Parallel Benchmarks + characterizations,
* :mod:`repro.apps` — OVERFLOW / Cart3D proxy applications,
* :mod:`repro.paperdata` — every number the paper reports.

Quickstart
----------
>>> from repro.machine import maia_node, Device
>>> node = maia_node()
>>> node.peak_flops(Device.PHI0) / 1e9
1008.0

The names in ``__all__`` are the objects a session almost always starts
with.  Each loads its submodule on first use (PEP 562), so ``import
repro`` runs no model code, and a job priced through :mod:`repro.mpi`
loads the MPI stack without the evaluator chain (:mod:`repro.core`'s
evaluator, :mod:`repro.execmodel`, :mod:`repro.machine`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.version import __version__

if TYPE_CHECKING:
    from repro.core.evaluator import Evaluator
    from repro.core.software import POST_UPDATE, PRE_UPDATE, SoftwareStack
    from repro.execmodel.kernel import KernelSpec
    from repro.machine.node import Device
    from repro.machine.presets import maia_node, maia_system
    from repro.mpi.fabrics import host_fabric, phi_fabric
    from repro.mpi.runtime import mpiexec

__all__ = [
    "Device",
    "Evaluator",
    "KernelSpec",
    "POST_UPDATE",
    "PRE_UPDATE",
    "SoftwareStack",
    "__version__",
    "host_fabric",
    "maia_node",
    "maia_system",
    "mpiexec",
    "phi_fabric",
]

# Runtime only: to mypy the TYPE_CHECKING imports above are the names,
# so a misspelt one is still reported.
if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(__name__, {
        "Evaluator": "repro.core.evaluator",
        "POST_UPDATE": "repro.core.software",
        "PRE_UPDATE": "repro.core.software",
        "SoftwareStack": "repro.core.software",
        "KernelSpec": "repro.execmodel.kernel",
        "Device": "repro.machine.node",
        "maia_node": "repro.machine.presets",
        "maia_system": "repro.machine.presets",
        "host_fabric": "repro.mpi.fabrics",
        "phi_fabric": "repro.mpi.fabrics",
        "mpiexec": "repro.mpi.runtime",
    })
