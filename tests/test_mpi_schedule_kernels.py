"""Collective schedules: a golden digest and list/array bit equality.

Every ``SCHEDULES[kind]`` in :mod:`repro.mpi.collectives` is composed of
two max-plus steps (a ring shift and an xor-partner exchange) plus the
binomial-tree walks, and runs on whichever container ``arrivals`` is: a
Python list or a numpy array.  Two contracts are gated here:

* **Golden pin** — one sha256 over the ``repr`` of every list-backed
  schedule output on a fixed grid (rank counts around the power-of-two
  and P=128 edges, both roots, the host and a Phi fabric, uniform and
  skewed arrivals, sizes on both sides of every algorithm switch and of
  the eager limit).  Any change to a recurrence's float order moves the
  digest.  This half runs without numpy.
* **List vs array** — the ndarray backend returns an ndarray whose
  ``tolist()`` equals the list backend's output bit for bit.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, List, Tuple

import pytest

from repro.mpi.collectives import (
    ALLGATHER_RING_SWITCH,
    LARGE_MESSAGE_SWITCH,
    SCHEDULES,
)
from repro.mpi.fabrics import host_fabric, phi_fabric
from repro.perf.batch import HAVE_NUMPY, get_numpy

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

P_VALUES = (1, 2, 3, 7, 64, 127, 128, 129, 300)

#: sha256 over the repr of every case's output, in grid order.
GOLDEN_DIGEST = (
    "79d80292ba2bd500605e28dfd25579c05659bb5334451c3c078160f506f1252b"
)

Case = Tuple[str, object, int, int, List[float], int]


def _sizes(fabric) -> List[int]:
    """A small size plus both sides of every switch the schedules take."""
    edges = (fabric.eager_max, ALLGATHER_RING_SWITCH, LARGE_MESSAGE_SWITCH)
    return sorted({8} | {e + d for e in edges for d in (0, 1)})


def _arrivals(p: int, skewed: bool) -> List[float]:
    if not skewed:
        return [1e-6] * p
    rnd = random.Random(p)
    return [rnd.random() * 1e-5 for _ in range(p)]


def grid() -> Iterator[Case]:
    """``(kind, fabric, p, nbytes, arrivals, root)`` in a fixed order."""
    for fabric in (host_fabric(), phi_fabric(2)):
        for p in P_VALUES:
            for skewed in (False, True):
                arrivals = _arrivals(p, skewed)
                for nbytes in _sizes(fabric):
                    for kind in sorted(SCHEDULES):
                        for root in sorted({0, p - 1}):
                            yield kind, fabric, p, nbytes, arrivals, root


def test_schedules_match_golden_digest():
    h = hashlib.sha256()
    for kind, fabric, p, nbytes, arrivals, root in grid():
        out = SCHEDULES[kind](fabric, p, nbytes, list(arrivals), root)
        assert isinstance(out, list) and len(out) == p
        h.update(repr(out).encode())
    assert h.hexdigest() == GOLDEN_DIGEST


@needs_numpy
def test_array_schedules_equal_list_schedules():
    np = get_numpy()
    for kind, fabric, p, nbytes, arrivals, root in grid():
        listed = SCHEDULES[kind](fabric, p, nbytes, list(arrivals), root)
        arrayed = SCHEDULES[kind](
            fabric, p, nbytes, np.asarray(arrivals, dtype=float), root
        )
        assert isinstance(arrayed, np.ndarray), kind
        assert arrayed.tolist() == listed, (kind, fabric.name, p, nbytes, root)
