"""NumPy gate: the one place that knows whether NumPy is importable.

NumPy is an *optional* accelerator — ``pip install repro[fast]``.  The
MPI stack's clock vectors (:mod:`repro.mpi.phasec`,
:func:`repro.mpi.collectives.finish_times`) are numpy arrays when it is
installed and Python lists otherwise; both containers run the same
float operations in the same order, so the numbers are identical and
there is nothing to warn about.  The container is chosen from the
platform, never by a caller.

Everything else asks :data:`HAVE_NUMPY` / :func:`get_numpy` instead of
importing ``numpy`` directly.  Importing this module does not import
NumPy: the first :func:`get_numpy` call does, so a job that never
builds an array never pays for the import.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Optional

__all__ = ["HAVE_NUMPY", "get_numpy"]

#: Whether ``numpy`` is installed (found, not yet imported).
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
_np: Optional[Any] = None


def get_numpy() -> Optional[Any]:
    """The ``numpy`` module, imported on the first call, or ``None`` when
    it is not installed."""
    global _np
    if _np is None and HAVE_NUMPY:
        import numpy

        _np = numpy
    return _np
