"""MPI correctness checking: static lint + dynamic race/match verification.

The paper's four programming modes (native host, native Phi, offload,
symmetric) all hinge on correctly written MPI programs, and the early Phi
reports agree that porting *bugs*, not hardware, dominated bring-up time.
This package is the MUST/ISP-style correctness layer for the simulated
MPI stack:

* :mod:`repro.analyze.staticcheck` — an AST linter over user rank
  functions (any function driving a simulated
  :class:`~repro.mpi.api.Communicator`) that flags the classic misuse
  patterns before a run: dropped/unwaited ``isend``/``irecv`` requests,
  collective sequences that diverge across ``if comm.rank == ...``
  branches, sends with no structurally matching receive, send/receive
  loop-bound mismatches, blocking send cycles (rendezvous deadlock), and
  generator methods called without ``yield from``.  Each diagnostic
  carries a stable ``RPA0xx`` code, a location, and a fix hint.

* :mod:`repro.analyze.verifier` — a dynamic pass that arms an
  :class:`~repro.mpi.runtime.MpiJob` with per-rank vector clocks to
  detect wildcard-receive message races (two concurrent sends both
  matching one ``ANY_SOURCE`` receive), unmatched envelopes and leaked
  non-blocking requests at finalize, and cross-rank collective-sequence
  mismatches — reported through the existing
  :class:`~repro.obs.tracer.Tracer` as instants and summarized in a
  :class:`~repro.analyze.verifier.VerifyReport` (JSON + text).

* :mod:`repro.analyze.unitscheck` — a small repo-specific lint that
  flags raw-float arithmetic mixing :mod:`repro.units` quantities
  (seconds vs bytes) in the model layers.

Command line: ``python -m repro check <file|dir>`` (static),
``python -m repro check <experiment> --dynamic`` (verifier), and
``python -m repro check <dir> --units``.

Each name in ``__all__`` loads its submodule on first use: a compiled
MPI job reads rank-program profiles from :mod:`repro.analyze.staticcheck`
and loads neither the verifier nor the units lint.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analyze.staticcheck import (
        CODES,
        Diagnostic,
        RankProgramProfile,
        check_file,
        check_paths,
        check_source,
        rank_program_profile,
        render_diagnostics,
    )
    from repro.analyze.unitscheck import check_units_paths, check_units_source
    from repro.analyze.verifier import (
        Issue,
        Verifier,
        VerifyReport,
        verify_mpiexec,
    )

__all__ = [
    "CODES",
    "Diagnostic",
    "Issue",
    "RankProgramProfile",
    "Verifier",
    "VerifyReport",
    "check_file",
    "check_paths",
    "check_source",
    "check_units_paths",
    "check_units_source",
    "rank_program_profile",
    "render_diagnostics",
    "verify_mpiexec",
]

# Runtime only: to mypy the TYPE_CHECKING imports above are the names,
# so a misspelt one is still reported.
if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(__name__, {
        "CODES": "repro.analyze.staticcheck",
        "Diagnostic": "repro.analyze.staticcheck",
        "RankProgramProfile": "repro.analyze.staticcheck",
        "check_file": "repro.analyze.staticcheck",
        "check_paths": "repro.analyze.staticcheck",
        "check_source": "repro.analyze.staticcheck",
        "rank_program_profile": "repro.analyze.staticcheck",
        "render_diagnostics": "repro.analyze.staticcheck",
        "check_units_paths": "repro.analyze.unitscheck",
        "check_units_source": "repro.analyze.unitscheck",
        "Issue": "repro.analyze.verifier",
        "Verifier": "repro.analyze.verifier",
        "VerifyReport": "repro.analyze.verifier",
        "verify_mpiexec": "repro.analyze.verifier",
    })
