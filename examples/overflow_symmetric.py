#!/usr/bin/env python
"""OVERFLOW on Maia: decomposition tuning and symmetric mode (Figs 22-23).

Sweeps (I MPI ranks x J OpenMP threads) on host and Phi for the
DLRF6-Medium case, then runs the DLRF6-Large case in symmetric mode
(host + Phi0 + Phi1) under both software stacks and against the
two-host baseline.

Run:  python examples/overflow_symmetric.py
"""

from repro.apps import OverflowModel, OverflowSolver, dataset
from repro.core.report import render_table
from repro.core.software import POST_UPDATE, PRE_UPDATE
from repro.errors import OutOfMemoryError
from repro.machine import Device

# --- 0. the real mini-solver still solves its PDE ---------------------------

solver = OverflowSolver(n=16, n_zones=4, steps=8)
check = solver.run()
print(f"multi-zone ADI solver: MMS error {check['mms_error']:.2e} "
      f"(tolerance {check['tolerance']:.2e}) -> "
      f"{'OK' if solver.verify() else 'FAILED'}\n")

# --- 1. native decomposition sweep (Figure 22) -------------------------------

medium = OverflowModel(dataset("DLRF6-Medium"))
rows = [
    (device, f"{i}x{j}", f"{m.time:.3f}")
    for (device, i, j), m in medium.figure22().items()
]
print(render_table(
    ("device", "ranks x threads", "s/step"),
    rows,
    title="DLRF6-Medium, native modes (Figure 22)",
))
print("host: more OpenMP threads per rank only add overhead -> 16x1 wins.")
print("phi:  total thread count is king -> 8x28 (224 threads) wins.\n")

# --- 2. symmetric mode on the big case (Figure 23) ---------------------------

large = OverflowModel(dataset("DLRF6-Large"))
try:
    large.native_step(Device.PHI0, 8, 28)
except OutOfMemoryError as e:
    print(f"DLRF6-Large on a single Phi: {e}")

host_native = large.native_step(Device.HOST, 16, 1).time
sym_post = large.symmetric_step(POST_UPDATE)
sym_pre = large.symmetric_step(PRE_UPDATE)
two_hosts = large.two_host_step()

rows = [
    ("host native (16x1)", f"{host_native:.3f}", "", ""),
    ("symmetric, pre-update", f"{sym_pre['total']:.3f}",
     f"{sym_pre['compute_only']:.3f}", f"{sym_pre['comm']:.3f}"),
    ("symmetric, post-update", f"{sym_post['total']:.3f}",
     f"{sym_post['compute_only']:.3f}", f"{sym_post['comm']:.3f}"),
    ("two hosts over InfiniBand", f"{two_hosts['total']:.3f}",
     f"{two_hosts['compute_only']:.3f}", f"{two_hosts['comm']:.3f}"),
]
print()
print(render_table(
    ("configuration", "s/step", "compute", "comm"),
    rows,
    title="DLRF6-Large (Figure 23)",
))
print(f"""
symmetric vs host native : {host_native / sym_post['total']:.2f}x  (paper: 1.9x)
post-update gain         : {(sym_pre['total'] / sym_post['total'] - 1) * 100:.1f}%  (paper: 2-28%)
vs two hosts             : {'slower' if sym_post['total'] > two_hosts['total'] else 'faster'} overall, but compute parts are
                           {two_hosts['ideal_compute'] / sym_post['ideal_compute']:.2f}x faster (paper: ~1.15x) — communication and
                           load imbalance eat the advantage (imbalance {sym_post['imbalance']:.2f}).""")
