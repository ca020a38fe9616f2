"""Measurement-campaign performance layer: memo cache + optional NumPy.

Every figure in the paper is a parameter sweep, and a full reproduction
re-prices the same (machine, kernel, mode, params) points many times
across figures.  This package makes those re-pricings cheap:

* :mod:`repro.perf.cache` — a memoized evaluation cache keyed by a
  stable fingerprint of the full specification, with hit/miss counters.
* :mod:`repro.perf.batch` — the optional-NumPy gate
  (``pip install repro[fast]``): the MPI stack's clock vectors are
  arrays when NumPy is installed and lists otherwise, with identical
  numbers either way.

Sweeps run serially; fanning points over processes is the campaign
runner's job (:mod:`repro.campaign`).  The simulator's own
self-benchmark lives outside the library, in
``benchmarks/bench_selfperf.py``.
"""

from repro.perf.batch import HAVE_NUMPY, get_numpy
from repro.perf.cache import CacheStats, EvalCache, fingerprint

__all__ = [
    "CacheStats",
    "EvalCache",
    "HAVE_NUMPY",
    "fingerprint",
    "get_numpy",
]
