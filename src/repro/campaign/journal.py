"""Append-only campaign journal: the on-disk checkpoint store.

One JSON record per line.  The first well-formed line is the *header*
(campaign name, spec fingerprint, total point count); every following
line is one completed point keyed by the
:func:`~repro.perf.cache.fingerprint` of (campaign spec, point).  Each
record carries a truncated SHA-256 of its own canonical form, so a line
that was half-written when the process died — or corrupted afterwards —
is detected and *skipped with a warning* on resume instead of crashing
it.  One damage shape is expected rather than alarming: a ``SIGKILL``
mid-append leaves a torn *final* line, which replays silently (the
point simply re-executes); only corruption strictly inside the journal
warrants the warning.

Journals written by several runners of one campaign (multi-host socket
execution, racing resumes) reconcile through :meth:`Journal.merge`:
headers must agree on the spec fingerprint, duplicate keys resolve
first-write-wins with payload-digest verification, and the merged
entries replay into a byte-identical ``results_payload()`` regardless
of merge order.

Durability: the unit of durability is the *commit*.  The header is one
commit; every :meth:`Journal.append_point` call — one per landed shard
in the campaign runner — is another: all its lines go out in one
``write``, then one ``flush`` and one ``fsync``.  A ``SIGKILL`` or power
loss therefore loses at most the commit in flight — the in-flight
shard, which resume re-runs — never a point that was reported
complete.  A kill inside a multi-line commit leaves complete lines
followed by one torn final line, which :meth:`Journal.read` replays
and skips exactly like any other torn tail.

The payload codec (:func:`encode_result` / :func:`decode_result`) round-
trips :class:`~repro.core.results.Measurement`,
:class:`~repro.core.results.Failure` and ``None`` (infeasible-skipped)
exactly: floats survive via JSON's shortest-round-trip representation,
and tuple coordinates are restored on decode.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.results import Failure, Measurement
from repro.errors import ConfigError

__all__ = [
    "Journal",
    "JournalEntry",
    "JournalReadResult",
    "decode_result",
    "encode_result",
]

#: Journal format version; bumped on incompatible record changes.
VERSION = 1
#: Hex digits of SHA-256 kept per record (collision-safe for integrity).
_SHA_LEN = 16

#: Entry statuses: a priced point, a captured death, an infeasible skip.
STATUSES = ("ok", "failure", "infeasible")


# ==========================================================================
# Result payload codec
# ==========================================================================


def _detuple(obj: Any) -> Any:
    """Recursively turn JSON lists back into tuples (point coordinates)."""
    if isinstance(obj, list):
        return tuple(_detuple(x) for x in obj)
    return obj


def encode_result(value: Any) -> Dict[str, Any]:
    """Encode a point result (Measurement / Failure / ``None``) as JSON."""
    if value is None:
        return {"type": "infeasible"}
    if isinstance(value, Measurement):
        return {
            "type": "measurement",
            "name": value.name,
            "time": value.time,
            "unit": value.unit,
            "gflops": value.gflops,
            "config": value.config,
        }
    if isinstance(value, Failure):
        return {
            "type": "failure",
            "point": value.point,
            "error": value.error,
            "message": value.message,
            "when": value.when,
        }
    raise ConfigError(f"cannot journal result of type {type(value).__name__}")


def decode_result(payload: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_result`."""
    kind = payload.get("type")
    if kind == "infeasible":
        return None
    if kind == "measurement":
        return Measurement(
            name=payload["name"],
            time=payload["time"],
            unit=payload["unit"],
            gflops=payload["gflops"],
            config=dict(payload["config"]),
        )
    if kind == "failure":
        return Failure(
            point=_detuple(payload["point"]),
            error=payload["error"],
            message=payload["message"],
            when=payload["when"],
        )
    raise ConfigError(f"unknown journal payload type {kind!r}")


# ==========================================================================
# Records
# ==========================================================================


@dataclass(frozen=True)
class JournalEntry:
    """One journaled point: key, grid index, status, payload, retry info."""

    key: str
    index: int
    status: str  # one of STATUSES
    payload: Dict[str, Any]
    attempts: int = 1
    relaxation: int = 0  # fault-plan relaxation level that produced the result

    def result(self) -> Any:
        """The decoded Measurement / Failure / ``None``."""
        return decode_result(self.payload)


@dataclass
class JournalReadResult:
    """What :meth:`Journal.read` recovered from disk."""

    header: Optional[Dict[str, Any]] = None
    entries: List[JournalEntry] = field(default_factory=list)
    skipped: int = 0  # corrupt / truncated / unknown lines dropped
    torn_tail: bool = False  # expected SIGKILL damage: a truncated last line
    reasons: List[str] = field(default_factory=list)  # one per skipped line

    def by_key(self) -> Dict[str, JournalEntry]:
        """First-write-wins map of journaled points by cache key."""
        out: Dict[str, JournalEntry] = {}
        for e in self.entries:
            out.setdefault(e.key, e)
        return out


def _record_sha(record: Dict[str, Any]) -> str:
    canon = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:_SHA_LEN]


def _entry_digest(entry: JournalEntry) -> str:
    """Digest of what :meth:`Journal.merge` verifies: status + payload."""
    return _record_sha({"status": entry.status, "payload": entry.payload})


def _seal(record: Dict[str, Any]) -> str:
    """Serialize ``record`` with its integrity digest attached."""
    record = dict(record)
    record["sha"] = _record_sha(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _unseal(line: str) -> Tuple[Optional[Dict[str, Any]], str]:
    """Parse and verify one journal line.

    Returns ``(record, "")`` on success, else ``(None, why)`` where
    ``why`` is ``"unparseable"`` (the shape a mid-append kill tears a
    line into) or ``"digest mismatch"`` (valid JSON whose content no
    longer matches its own integrity digest).
    """
    try:
        record = json.loads(line)
    except ValueError:
        return None, "unparseable"
    if not isinstance(record, dict):
        return None, "unparseable"
    sha = record.pop("sha", None)
    if sha != _record_sha(record):
        return None, "digest mismatch"
    return record, ""


# ==========================================================================
# The journal
# ==========================================================================


class Journal:
    """Append-only JSONL checkpoint store for one campaign.

    Every write is a commit: :meth:`write_header` commits the header,
    and :meth:`append_point` commits any number of points together with
    one ``write`` and one ``fsync``, so a ``SIGKILL`` loses at most the
    commit in flight.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[Any] = None

    # ------------------------------------------------------------- writing

    def _handle(self):
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def _append(self, *records: Dict[str, Any]) -> None:
        """Commit ``records``: seal them all, then one write and one fsync."""
        lines = "".join(_seal(record) + "\n" for record in records)
        fh = self._handle()
        fh.write(lines)
        fh.flush()
        os.fsync(fh.fileno())

    def write_header(
        self,
        campaign: str,
        name: str,
        total: Optional[int] = None,
    ) -> None:
        """Open the journal with the campaign's identity record."""
        self._append(
            {
                "kind": "header",
                "version": VERSION,
                "campaign": campaign,
                "name": name,
                "total": total,
            }
        )

    def append_point(self, *entries: JournalEntry) -> None:
        """Durably record completed points as one commit.

        Every status is checked before anything is written, so a bad
        entry raises :class:`~repro.errors.ConfigError` and leaves the
        file untouched.  With no entries this is a no-op: no write, no
        ``fsync``.
        """
        for entry in entries:
            if entry.status not in STATUSES:
                raise ConfigError(f"unknown journal status {entry.status!r}")
        if not entries:
            return
        self._append(
            *(
                {
                    "kind": "point",
                    "key": entry.key,
                    "index": entry.index,
                    "status": entry.status,
                    "payload": entry.payload,
                    "attempts": entry.attempts,
                    "relaxation": entry.relaxation,
                }
                for entry in entries
            )
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------- reading

    @classmethod
    def read(cls, path: str, warn: bool = True) -> JournalReadResult:
        """Recover everything readable from a journal file.

        Damaged lines — corrupted on disk, digest-mismatched, or simply
        not journal records — are counted and skipped with a single
        :class:`UserWarning` (suppressed with ``warn=False``; the
        per-line diagnostics survive in ``reasons`` either way).  One
        damage shape is *expected*: a ``SIGKILL`` mid-append tears the
        final line into an unparseable fragment.  That torn tail is
        skipped silently (``torn_tail=True``, not counted in
        ``skipped``) because the in-flight commit was never reported
        complete; its lost points simply re-execute on resume.  The
        surviving entries are returned in file order.  A missing file
        reads as empty.
        """
        out = JournalReadResult()
        if not os.path.exists(path):
            return out
        with open(path, "r", encoding="utf-8") as fh:
            lines = [
                (lineno, stripped)
                for lineno, raw in enumerate(fh, 1)
                if (stripped := raw.strip())
            ]
        last_lineno = lines[-1][0] if lines else 0
        # (lineno, diagnostic, unparseable?) per damaged line; the tail
        # torn by a kill is recognised after the loop so interior damage
        # keeps its warning even when the file *also* ends torn.
        damaged: List[Tuple[int, str, bool]] = []
        for lineno, line in lines:
            record, why = _unseal(line)
            if record is None:
                damaged.append(
                    (lineno, f"line {lineno}: {why}", why == "unparseable")
                )
                continue
            kind = record.get("kind")
            if kind == "header":
                if out.header is None:
                    out.header = record
                continue
            if kind != "point":
                damaged.append(
                    (lineno, f"line {lineno}: unknown kind {kind!r}", False)
                )
                continue
            try:
                entry = JournalEntry(
                    key=record["key"],
                    index=record["index"],
                    status=record["status"],
                    payload=record["payload"],
                    attempts=record.get("attempts", 1),
                    relaxation=record.get("relaxation", 0),
                )
                if entry.status not in STATUSES:
                    raise KeyError(entry.status)
                entry.result()  # validate the payload decodes
            except (KeyError, TypeError, ConfigError):
                damaged.append(
                    (lineno, f"line {lineno}: malformed point record", False)
                )
                continue
            out.entries.append(entry)
        if damaged and damaged[-1][0] == last_lineno and damaged[-1][2]:
            out.torn_tail = True
            damaged.pop()
        out.skipped = len(damaged)
        out.reasons = [reason for _, reason, _ in damaged]
        if out.skipped and warn:
            warnings.warn(
                f"campaign journal {path!r}: skipped {out.skipped} damaged "
                f"record(s) ({'; '.join(out.reasons[:3])}"
                f"{'; ...' if len(out.reasons) > 3 else ''}); resuming from "
                f"the {len(out.entries)} intact point(s)",
                UserWarning,
                stacklevel=2,
            )
        return out

    # ------------------------------------------------------------- merging

    @classmethod
    def merge(cls, *paths: str, out: Optional[str] = None) -> JournalReadResult:
        """Reconcile journals written by several runners of one spec.

        Every readable header must agree on the campaign fingerprint
        (mixed specs raise :class:`~repro.errors.ConfigError`), and at
        least one input must carry an intact header.  Duplicate keys
        resolve first-write-wins *in argument order*, but the winner is
        verified against every loser: two records for one key whose
        ``(status, payload)`` digests disagree mean the inputs came from
        different worlds, and merging them silently would corrupt the
        campaign — that also raises ``ConfigError``.  (``attempts`` /
        ``relaxation`` may legitimately differ — a cache-hit checkpoint
        journals attempt 1 — and are taken from the winner.)

        Damaged lines across all inputs are aggregated into **one**
        :class:`UserWarning`; torn tails stay silent exactly as in
        :meth:`read`.  Because ``results_payload()`` orders by the spec
        grid and duplicate keys must agree, the merged payload is
        byte-identical regardless of merge order.

        With ``out=``, the merged journal (header plus the winning
        entry per key, re-sealed) is written to that path, ready for
        ``repro campaign resume`` / ``status``: the header as one
        commit, every entry as a second.
        """
        merged = JournalReadResult()
        seen: Dict[str, JournalEntry] = {}
        for path in paths:
            part = cls.read(path, warn=False)
            merged.skipped += part.skipped
            merged.torn_tail = merged.torn_tail or part.torn_tail
            merged.reasons.extend(f"{path}: {r}" for r in part.reasons)
            if part.header is not None:
                if merged.header is None:
                    merged.header = part.header
                elif part.header.get("campaign") != merged.header.get("campaign"):
                    raise ConfigError(
                        f"journal {path!r} belongs to campaign "
                        f"{part.header.get('campaign')!r}, not "
                        f"{merged.header.get('campaign')!r}: refusing to mix "
                        "checkpoints from different specs"
                    )
            for entry in part.entries:
                prev = seen.get(entry.key)
                if prev is None:
                    seen[entry.key] = entry
                    merged.entries.append(entry)
                    continue
                if (prev.status, prev.payload) != (entry.status, entry.payload):
                    raise ConfigError(
                        f"journal {path!r} disagrees with an earlier input on "
                        f"key {entry.key!r}: digest "
                        f"{_entry_digest(entry)} vs {_entry_digest(prev)} — "
                        "these journals were not written by the same campaign"
                    )
        if merged.header is None:
            raise ConfigError(
                "none of the merged journals carries an intact header; "
                "cannot establish which campaign they belong to"
            )
        if merged.skipped:
            warnings.warn(
                f"journal merge: skipped {merged.skipped} damaged record(s) "
                f"across {len(paths)} journal(s) "
                f"({'; '.join(merged.reasons[:3])}"
                f"{'; ...' if len(merged.reasons) > 3 else ''})",
                UserWarning,
                stacklevel=2,
            )
        if out is not None:
            with cls(out) as journal:
                journal._append(dict(merged.header))
                journal.append_point(*merged.entries)
        return merged
