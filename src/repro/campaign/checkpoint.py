"""Per-point checkpoints for the core sweeps.

:class:`SweepCheckpoint` gives ``grid_sweep`` / ``thread_sweep`` /
``decomposition_sweep`` (:mod:`repro.core.sweep`) the campaign journal's
resumability without the full campaign runner: pass ``checkpoint=`` to a
sweep and every priced point — measurements, captured failures, and
infeasible skips alike — is durably journaled under the fingerprint of
(caller-supplied scope, point).  Re-running the sweep replays journaled
points and prices only the rest.

The *scope* is the caller's statement of sweep identity (evaluator
config, kernel, device, sweep options …).  Points from a different
scope never collide — their keys differ — but they do share the file,
so a scope change mid-file simply stops matching rather than erroring.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.campaign.journal import Journal, JournalEntry, encode_result
from repro.core.results import Failure
from repro.perf.cache import fingerprint

__all__ = ["SweepCheckpoint"]


class SweepCheckpoint:
    """A resumable point store for one sweep, backed by a campaign journal."""

    def __init__(self, path: str, scope: Any = ()):
        self.path = path
        self._scope_fp = fingerprint("sweep-checkpoint", scope)
        self._journal = Journal(path)
        read = Journal.read(path)
        self.skipped = read.skipped
        self._seen: Dict[str, JournalEntry] = read.by_key()
        self._needs_header = read.header is None
        self.replayed = 0
        self.recorded = 0

    # ------------------------------------------------------------- lookup

    def key(self, point: Any) -> str:
        return fingerprint("sweep-point", self._scope_fp, point)

    def lookup(self, point: Any) -> Tuple[bool, Any]:
        """``(True, value)`` when ``point`` is journaled, else ``(False, None)``.

        ``value`` is whatever the sweep priced last time: a
        ``Measurement``, a ``Failure``, or ``None`` for an
        infeasible-skipped point.
        """
        entry = self._seen.get(self.key(point))
        if entry is None:
            return False, None
        self.replayed += 1
        return True, entry.result()

    # ------------------------------------------------------------ record

    def record(self, point: Any, value: Any) -> None:
        """Durably journal one freshly priced point as its own commit."""
        if self._needs_header:
            self._journal.write_header(self._scope_fp, "sweep-checkpoint")
            self._needs_header = False
        key = self.key(point)
        status = "ok"
        if value is None:
            status = "infeasible"
        elif isinstance(value, Failure):
            status = "failure"
        entry = JournalEntry(
            key=key,
            index=self.recorded,
            status=status,
            payload=encode_result(value),
        )
        self._journal.append_point(entry)
        self._seen.setdefault(key, entry)
        self.recorded += 1

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._seen)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SweepCheckpoint {self.path!r} entries={len(self._seen)} "
            f"replayed={self.replayed} recorded={self.recorded}>"
        )
