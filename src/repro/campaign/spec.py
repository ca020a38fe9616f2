"""Campaign specifications: what a campaign *is*, independent of how it runs.

A :class:`CampaignSpec` names a parameter grid and the pure point
function that prices it, plus the failure-handling contract (fault plan,
retry policy, capture-vs-skip).  Its :meth:`~CampaignSpec.fingerprint`
— built on :func:`repro.perf.cache.fingerprint`, so the point function
keys by *bytecode*, not address — is the campaign's identity: it names
the journal the campaign checkpoints into, and it namespaces every
point's cache key.  Execution parameters (worker count, shard size,
throttle) are deliberately *not* part of the identity: a campaign killed
at ``--workers 8`` may resume at ``--workers 1`` against the same
journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.campaign.retry import RetryPolicy
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.perf.cache import fingerprint

__all__ = ["CampaignSpec"]


@dataclass
class CampaignSpec:
    """One campaign: a grid, its point function, and failure semantics.

    ``point_fn(point, fault_plan)`` prices one grid point; it must be a
    module-level callable (or a :func:`functools.partial` of one) so it
    both pickles into pool workers and fingerprints stably.  With
    ``capture_failures=True`` (the campaign default) a point that dies
    with a :class:`~repro.errors.ReproError` — after the retry policy is
    exhausted — becomes a :class:`~repro.core.results.Failure` on the
    result set instead of aborting the run.
    """

    name: str
    point_fn: Callable[..., Any]
    points: Sequence[Any]
    fault_plan: Optional[FaultPlan] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    capture_failures: bool = True
    skip_infeasible: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("campaign needs a name")
        if not callable(self.point_fn):
            raise ConfigError("point_fn must be callable")
        self.points = tuple(self.points)
        if not self.points:
            raise ConfigError(f"campaign {self.name!r} has no points")

    # ----------------------------------------------------------- identity

    def fingerprint(self) -> str:
        """The campaign's stable identity (journal + cache namespace).

        Covers everything that determines the results — the grid, the
        point function's behaviour, the fault plan and the retry policy
        — and nothing about how execution is scheduled.
        """
        return fingerprint(
            "campaign",
            self.name,
            self.point_fn,
            self.points,
            None if self.fault_plan is None else self.fault_plan.to_dict(),
            self.retry,
            self.capture_failures,
            self.skip_infeasible,
        )

    def point_key(self, spec_fp: str, point: Any) -> str:
        """EvalCache key for one grid point under this campaign."""
        return fingerprint("campaign-point", spec_fp, point)

    def keys(self, spec_fp: str) -> Tuple[str, ...]:
        """Per-point cache keys under ``spec_fp`` (this spec's
        :meth:`fingerprint`, which the caller has already computed), in
        grid order."""
        return tuple(self.point_key(spec_fp, p) for p in self.points)
