"""Distributed, resumable campaign execution.

A *campaign* is a named parameter grid priced by a pure point function —
the shape of every figure in the paper (Figs 4–27 are all sweep
campaigns).  This package makes campaigns:

* **shardable** — the grid is cut into work units and executed through
  an async job queue over N workers: an in-process pool, or remote
  hosts via :class:`~repro.campaign.net.SocketShardExecutor` and
  ``repro campaign worker`` (journals from several runners reconcile
  with :meth:`~repro.campaign.journal.Journal.merge`);
* **resumable** — every completed point is journaled to an append-only
  on-disk store keyed by the :func:`~repro.perf.cache.fingerprint` of
  (campaign spec, point).  A killed or crashed run resumes from the
  journal: journaled points are replayed, never re-executed;
* **self-healing** — points that die under a fault plan are retried
  under a progressively relaxed plan
  (:class:`~repro.campaign.retry.RetryPolicy`), completing the
  degrade-then-recover story of :mod:`repro.faults`;
* **streaming** — partial :class:`~repro.core.results.ResultSet`\\ s are
  delivered shard by shard as they land, with one
  :mod:`repro.obs` span per shard.

See ``docs/CAMPAIGNS.md`` for the journal format, resume semantics and
CLI examples (``repro campaign run/resume/status``).
"""

from repro.campaign.journal import (
    Journal,
    JournalEntry,
    JournalReadResult,
    decode_result,
    encode_result,
)
from repro.campaign.net import SocketShardExecutor, run_worker
from repro.campaign.queue import (
    PointRecord,
    ShardExecutor,
    ShardResult,
    make_executor,
)
from repro.campaign.retry import RetryPolicy
from repro.campaign.runner import CampaignRun, RunStats, run_campaign
from repro.campaign.spec import CampaignSpec

__all__ = [
    "CampaignRun",
    "CampaignSpec",
    "Journal",
    "JournalEntry",
    "JournalReadResult",
    "PointRecord",
    "RetryPolicy",
    "RunStats",
    "ShardExecutor",
    "ShardResult",
    "SocketShardExecutor",
    "decode_result",
    "encode_result",
    "make_executor",
    "run_campaign",
    "run_worker",
]
