"""Repo-wide pytest configuration: gate numpy-dependent modules.

``numpy``/``scipy`` are the optional ``repro[fast]`` extra — the core
machine/MPI/OpenMP models and the simulation engine run without them
(``repro.perf.batch`` falls back to scalar loops with a warning).  The
NPB reference implementations, the application datasets, and every
figure benchmark built on them genuinely need the array stack, so when
numpy is absent their test modules are skipped at collection instead of
erroring at import.  CI exercises this exact configuration in the
``tier1-no-numpy`` job.

Also resets the once-per-process scalar-fallback warning gate around
every test so warning-capturing tests cannot order-depend on which
module tripped the fallback first, and provides the ``fsync_calls``
fixture the campaign journal tests count commits with.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _rearm_fallback_warning():
    """Isolate the process-global scalar-fallback warning per test."""
    from repro.perf.batch import reset_fallback_warning

    reset_fallback_warning()
    yield
    reset_fallback_warning()


@pytest.fixture
def fsync_calls(monkeypatch):
    """Count ``os.fsync`` calls (still performing them) into a list."""
    calls = []
    real = os.fsync

    def fsync(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


try:
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except ImportError:
    _HAVE_NUMPY = False

if not _HAVE_NUMPY:
    collect_ignore = [
        # Direct or transitive `import numpy` at module scope.
        "tests/test_ablation.py",
        "tests/test_apps.py",
        "tests/test_batch_eval.py",
        "tests/test_cross_checks.py",
        "tests/test_extensions.py",
        "tests/test_microbench.py",
        "tests/test_npb_characterization.py",
        "tests/test_npb_kernels.py",
        "tests/test_npb_mpi_versions.py",
        "tests/test_perf_cache.py",
        "tests/test_sweep.py",
        # Import cleanly but drive numpy-backed campaigns at runtime.
        "tests/test_cli.py",
        "tests/test_perf_selfbench.py",
        "tests/test_validation.py",
        "benchmarks/bench_selfperf.py",
    ]
    collect_ignore_glob = ["benchmarks/bench_fig*.py", "benchmarks/bench_abl*.py"]
