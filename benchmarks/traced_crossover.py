"""Where a traced job's vector path overtakes its traced replay.

Takes the traced jobs of perfsuite's ``stepped-traced`` workload for one
seed (their kind, message size, iterations and fabric), reruns each at
every rank count in ``RANKS``, and sums, per rank count, the wall of

* ``replay``: the traced max-plus replay (``vector=False``);
* ``vector``: ``lower`` + ``record`` + ``emit_trace`` (``vector=True``);
* ``vector+returns``: the same, then reading ``returns``, which replays
  the job untraced.

Each job is timed best of ``REPEATS`` runs, each after ``gc.collect()``,
as the workload runs it.  Every vector run must price on the vector path
and give the replay's elapsed and trace digest.  The smallest rank count
where ``vector+returns`` beats ``replay`` is the traced crossover,
``repro.mpi.compile.TRACED_VECTOR_MIN_RANKS``::

    PYTHONPATH=src python benchmarks/traced_crossover.py [--seed 0]
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import sys
import time
from typing import Any, Callable, Dict, List, Optional

RANKS = (8, 16, 32, 64, 128)
REPEATS = 5
LEGS = ("replay", "vector", "vector+returns")


def _best(run: Callable[[], Any]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def traced_jobs(seed: int) -> List[Dict[str, Any]]:
    """The traced jobs of one ``stepped-traced`` round."""
    from benchmarks.perfsuite.workloads import SteppedTraced

    ops = SteppedTraced.generate(random.Random(seed), SteppedTraced.ops)
    return [op for op in ops if op["faults"] is None]


def crossover_table(seed: int) -> Dict[int, Dict[str, float]]:
    """Summed best-of walls per rank count and leg (seconds)."""
    from benchmarks.perfsuite.workloads import main_of, make_fabric

    from repro.mpi.compile import CompileStats, compiled_mpiexec
    from repro.obs import Tracer, trace_digest

    jobs = traced_jobs(seed)
    table: Dict[int, Dict[str, float]] = {}
    for p in RANKS:
        row = dict.fromkeys(LEGS, 0.0)
        for op in jobs:
            fabric, main = make_fabric(op["fabric"]), main_of(op)

            def run(vector: bool, returns: bool = False) -> Any:
                tracer, st = Tracer(), CompileStats()
                res = compiled_mpiexec(p, fabric, main, tracer=tracer,
                                       stats=st, vector=vector)
                if returns:
                    res.returns
                return res, tracer, st

            (ref, ref_tr, _), (vec, vec_tr, st) = run(False), run(True)
            if st.path != "vector" or vec.elapsed != ref.elapsed or \
                    trace_digest(vec_tr) != trace_digest(ref_tr):
                raise SystemExit(f"P={p} {op}: vector trace differs "
                                 f"({st.path}: {st.reason})")
            row["replay"] += _best(lambda: run(False))
            row["vector"] += _best(lambda: run(True))
            row["vector+returns"] += _best(lambda: run(True, True))
        table[p] = row
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    table = crossover_table(args.seed)
    n = len(traced_jobs(args.seed))
    print(f"stepped-traced seed {args.seed}: {n} traced jobs, summed best of "
          f"{REPEATS} (ms)")
    print(f"{'P':>5} " + " ".join(f"{leg:>15}" for leg in LEGS)
          + f" {'ratio':>7}")
    crossover = None
    for p, row in table.items():
        ratio = row["vector+returns"] / row["replay"]
        if crossover is None and ratio < 1.0:
            crossover = p
        print(f"{p:>5} " + " ".join(f"{row[leg] * 1e3:>15.2f}" for leg in LEGS)
              + f" {ratio:>7.2f}")
    print(f"crossover (vector+returns beats replay): P={crossover}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    # The repo root, for ``benchmarks.perfsuite`` when run as a script.
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.exit(main())
