"""Exception hierarchy for :mod:`repro`.

Every error the library raises derives from :class:`ReproError`, so callers
can catch the whole family with one clause.  Hardware-faithful failure modes
(running out of coprocessor memory, unsupported rank counts) get their own
classes because the paper's experiments hinge on them — e.g. NPB FT could
not run on the Phi at all (Section 6.8.2) and MPI_Alltoall failed beyond
4 KiB messages at 236 ranks (Section 6.4.5).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all :mod:`repro` errors."""


class ConfigError(ReproError):
    """A machine/software/workload specification is invalid or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event engine detected an impossible state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked."""


class OutOfMemoryError(ReproError):
    """A workload's footprint exceeds the target device memory.

    Mirrors the paper's observed failures: NPB FT needs ≥10 GB but each
    Phi card has only 8 GB; MPI_Alltoall at 236 ranks exhausts memory for
    messages larger than 4 KiB.
    """

    def __init__(self, required: float, available: float, what: str = "workload"):
        self.required = float(required)
        self.available = float(available)
        self.what = what
        super().__init__(
            f"{what} requires {required / 2**30:.2f} GiB "
            f"but only {available / 2**30:.2f} GiB is available"
        )

    def __reduce__(self):
        # Rebuild from the constructor arguments, not the formatted message,
        # so the error survives the trip back from campaign pool workers.
        return (type(self), (self.required, self.available, self.what))


class FaultError(ReproError):
    """An injected fault (:mod:`repro.faults`) terminated a simulated process.

    Carries the fault's identity, the victim rank (``None`` for faults
    without a single victim) and the simulated time of impact, so a
    campaign can record *why* a point died instead of reporting a generic
    :class:`DeadlockError`.
    """

    def __init__(self, fault: str, rank=None, when: float = 0.0):
        self.fault = fault
        self.rank = rank
        self.when = float(when)
        victim = f"rank {rank}" if rank is not None else "the job"
        super().__init__(
            f"fault {fault!r} killed {victim} at t={self.when:.9g}s"
        )

    def __reduce__(self):
        # Rebuild from constructor arguments so the error survives the
        # trip back from campaign pool workers.
        return (type(self), (self.fault, self.rank, self.when))


class TimeoutExpired(ReproError):
    """A timed wait (``Communicator.send``/``recv`` with ``timeout=``) expired.

    ``when`` is the simulated time the timer fired (set by the engine);
    ``op`` describes the operation that was waiting.
    """

    def __init__(self, op: str, timeout: float, when: float = 0.0):
        self.op = op
        self.timeout = float(timeout)
        self.when = float(when)
        super().__init__(
            f"{op} timed out after {self.timeout:.9g}s (t={self.when:.9g}s)"
        )

    def __reduce__(self):
        return (type(self), (self.op, self.timeout, self.when))


class IncompleteJobError(ReproError):
    """``JobResult.returns`` was read off a truncated run.

    Raised when a job stopped at ``run(until=...)`` before every rank
    finished and the caller did not opt in via
    :meth:`~repro.mpi.runtime.JobResult.partial_returns`.
    """


class UnsupportedConfigurationError(ReproError):
    """A benchmark constraint is violated (e.g. BT/SP need square rank counts)."""


class VerificationError(ReproError):
    """An NPB kernel (or app proxy) produced a result outside tolerance."""
