"""What a process loads: the lazy package surfaces and the MPI import graph.

``repro``, ``repro.core`` and ``repro.analyze`` re-export their names
lazily (PEP 562), so a job priced through :mod:`repro.mpi.compile`
loads the MPI stack and none of the evaluator chain.  Each fresh
``repro`` CLI call, campaign worker and perfsuite round pays for every
module it loads.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.perf.batch import HAVE_NUMPY

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules that no compiled or stepped MPI path may load.
NOT_LOADED = (
    "repro.core.evaluator",
    "repro.core.offload",
    "repro.core.symmetric",
    "repro.execmodel",
    "repro.machine",
    "repro.apps",
    "repro.npb",
    "repro.analyze.verifier",
    "repro.analyze.unitscheck",
)

#: Every ``__all__`` name of the lazy packages, by the module defining it.
SURFACES = {
    "repro": {
        "repro.core.evaluator": ("Evaluator",),
        "repro.core.software": ("POST_UPDATE", "PRE_UPDATE", "SoftwareStack"),
        "repro.execmodel.kernel": ("KernelSpec",),
        "repro.machine.node": ("Device",),
        "repro.machine.presets": ("maia_node", "maia_system"),
        "repro.mpi.fabrics": ("host_fabric", "phi_fabric"),
        "repro.mpi.runtime": ("mpiexec",),
        "repro.version": ("__version__",),
    },
    "repro.core": {
        "repro.core.evaluator": ("Evaluator",),
        "repro.core.modes": ("ProgrammingMode",),
        "repro.core.offload": (
            "OffloadCostModel", "OffloadRegion", "OffloadReport"),
        "repro.core.results": ("Measurement", "ResultSet"),
        "repro.core.software": ("POST_UPDATE", "PRE_UPDATE", "SoftwareStack"),
        "repro.core.symmetric": (
            "SymmetricRun", "SymmetricStep", "WorkPartition",
            "partition_zones"),
    },
    "repro.analyze": {
        "repro.analyze.staticcheck": (
            "CODES", "Diagnostic", "RankProgramProfile", "check_file",
            "check_paths", "check_source", "rank_program_profile",
            "render_diagnostics"),
        "repro.analyze.unitscheck": ("check_units_paths", "check_units_source"),
        "repro.analyze.verifier": (
            "Issue", "Verifier", "VerifyReport", "verify_mpiexec"),
    },
}

PROBE = '''
import sys
from functools import partial

from repro.faults import FaultPlan, LinkDegradation
from repro.mpi.compile import CompileStats, compiled_mpiexec
from repro.mpi.fabrics import host_fabric
from repro.obs import Tracer
from repro.perf.cache import EvalCache


def shift_allreduce(nbytes, comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    env = yield from comm.sendrecv(right, left, nbytes=nbytes,
                                   payload=comm.rank)
    yield from comm.compute(2e-6)
    out = yield from comm.allreduce(env.payload, nbytes=nbytes)
    return out


def price(p, **kw):
    st = CompileStats()
    res = compiled_mpiexec(p, host_fabric(), partial(shift_allreduce, 4096),
                           stats=st, **kw)
    assert res.completed
    return st.path


cache = EvalCache()
paths = [
    price(16, cache=cache),
    price(16, cache=cache),
    price(256, cache=EvalCache()),
    price(16, tracer=Tracer()),
    price(16, fault_plan=FaultPlan([LinkDegradation(latency_factor=2.0)])),
    price(16, fault_plan=FaultPlan([
        LinkDegradation(latency_factor=2.0, start=1e-6, end=1e-3)])),
]
print(" ".join(paths))
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro."))))
'''


def test_mpi_paths_load_no_evaluator_chain(tmp_path):
    # A file, not ``-c``: lowering reads the rank program's source.
    probe = tmp_path / "probe.py"
    probe.write_text(textwrap.dedent(PROBE))
    out = subprocess.run(
        [sys.executable, str(probe)], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)),
    )
    paths, modules = out.stdout.splitlines()
    # Without numpy the P=256 job has no vector path and replays.
    large = "vector" if HAVE_NUMPY else "replay"
    assert paths.split() == [
        "replay", "memo", large, "replay", "replay", "stepped"]
    loaded = modules.split()
    assert "repro.analyze.staticcheck" in loaded  # the replay's profile
    assert [m for m in loaded
            if any(m == n or m.startswith(n + ".") for n in NOT_LOADED)] == []


@pytest.mark.parametrize("package", sorted(SURFACES))
def test_star_import_binds_each_submodule_object(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    expected = {name: getattr(importlib.import_module(module), name)
                for module, names in SURFACES[package].items()
                for name in names}
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(expected)
    for name, obj in expected.items():
        assert namespace[name] is obj, name
        assert getattr(module, name) is obj, name


@pytest.mark.parametrize("package", sorted(SURFACES))
def test_dir_lists_all_and_unknown_names_raise(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=f"module '{package}' has no "
                       "attribute 'no_such_name'"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
