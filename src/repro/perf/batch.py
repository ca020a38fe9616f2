"""NumPy gate for the vectorized batch-evaluation path.

The batch evaluators (:mod:`repro.execmodel.batch`, the ``batch=`` sweep
paths) vectorize whole figure axes into array operations.  NumPy is an
*optional* accelerator for this — ``pip install repro[fast]`` — and its
absence must degrade gracefully: every batch entry point falls back to
the per-point scalar loop, producing identical results, and the first
fallback emits a single :class:`~warnings.UserWarning` so slow campaigns
are explainable without being noisy.

This module is the one place that knows whether NumPy is importable;
everything else asks :data:`HAVE_NUMPY` / :func:`get_numpy` instead of
importing ``numpy`` directly.  Importing it does not import NumPy: the
first :func:`get_numpy` call does, so a job that never builds an array
never pays for the import.
"""

from __future__ import annotations

import importlib.util
import warnings
from typing import Any, Optional

__all__ = ["HAVE_NUMPY", "get_numpy", "reset_fallback_warning",
           "warn_scalar_fallback"]

#: Whether ``numpy`` is installed (found, not yet imported).
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
_np: Optional[Any] = None

# Contexts that already warned this process.  Per-context (not one
# global bool) so the first campaign to fall back cannot swallow the
# warning a *different* subsystem owes its own users later in the same
# process — and so warning-capturing tests cannot order-depend.
_warned: set = set()


def get_numpy() -> Optional[Any]:
    """The ``numpy`` module, imported on the first call, or ``None`` when
    it is not installed."""
    global _np
    if _np is None and HAVE_NUMPY:
        import numpy

        _np = numpy
    return _np


def reset_fallback_warning(context: Optional[str] = None) -> None:
    """Re-arm the fallback warning (test hook).

    With no argument every context re-arms; naming one re-arms just it.
    """
    if context is None:
        _warned.clear()
    else:
        _warned.discard(context)


def warn_scalar_fallback(context: str) -> None:
    """Warn — once per process *per context* — about a scalar fallback."""
    if context in _warned:
        return
    _warned.add(context)
    warnings.warn(
        f"numpy is not installed; {context} falls back to per-point scalar "
        "evaluation (identical results, slower). Install the 'fast' extra "
        "(pip install repro[fast]) for vectorized batch evaluation.",
        UserWarning,
        stacklevel=3,
    )
