"""Tests for the campaign journal: codec exactness, durability, damage.

The journal is the campaign's crash-safety story, so the load-bearing
properties are (a) results round-trip the codec *exactly* — floats,
tuples, None — and (b) a journal mangled by a mid-write kill or on-disk
corruption is read back minus the damaged lines, with a warning, never
an exception.  Everything here is numpy-free.
"""

import json
import random
import warnings

import pytest

from repro.campaign.journal import (
    Journal,
    JournalEntry,
    decode_result,
    encode_result,
)
from repro.core.results import Failure, Measurement
from repro.errors import ConfigError


# --------------------------------------------------------------------------
# codec
# --------------------------------------------------------------------------


class TestResultCodec:
    def test_measurement_roundtrip_is_exact(self):
        m = Measurement(
            name="alltoall",
            time=1.2345678901234567e-5,  # full double precision
            unit="call",
            gflops=0.1 + 0.2,  # famously not 0.3
            config={"nbytes": 4096, "device": "phi0"},
        )
        out = decode_result(encode_result(m))
        assert out == m
        assert out.time == m.time  # bit-exact, not approx
        assert out.gflops == m.gflops

    def test_failure_roundtrip_restores_tuple_point(self):
        f = Failure(
            point=("phi0", 8, 28),
            error="OutOfMemoryError",
            message="needs 10.0 GiB, have 3.2 GiB",
            when=1.5e-6,
        )
        out = decode_result(encode_result(f))
        assert out == f
        assert out.point == ("phi0", 8, 28)
        assert isinstance(out.point, tuple)

    def test_infeasible_roundtrip(self):
        assert decode_result(encode_result(None)) is None

    def test_codec_survives_json_serialization(self):
        # The journal stores the encoded payload as JSON text; the round
        # trip through an actual dump/load must stay exact too.
        m = Measurement(name="x", time=7.077899999999999e-3, config={"t": 59})
        payload = json.loads(json.dumps(encode_result(m)))
        assert decode_result(payload) == m

    def test_unknown_types_are_rejected(self):
        with pytest.raises(ConfigError, match="cannot journal"):
            encode_result(object())
        with pytest.raises(ConfigError, match="unknown journal payload"):
            decode_result({"type": "wat"})


# --------------------------------------------------------------------------
# write -> read round trip
# --------------------------------------------------------------------------


def _entry(i, status="ok", value=None):
    if status == "ok" and value is None:
        value = Measurement(name="pt", time=i * 1e-6, config={"i": i})
    return JournalEntry(
        key=f"key{i}", index=i, status=status, payload=encode_result(value)
    )


class TestJournalRoundTrip:
    def test_header_and_points_read_back(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as j:
            j.write_header("fp123", "toy", total=3)
            for i in range(3):
                j.append_point(_entry(i))
        read = Journal.read(path)
        assert read.skipped == 0
        assert read.header["campaign"] == "fp123"
        assert read.header["name"] == "toy"
        assert read.header["total"] == 3
        assert [e.index for e in read.entries] == [0, 1, 2]
        assert read.entries[1].result() == Measurement(
            name="pt", time=1e-6, config={"i": 1}
        )

    def test_missing_file_reads_empty(self, tmp_path):
        read = Journal.read(str(tmp_path / "nope.jsonl"))
        assert read.header is None
        assert read.entries == []
        assert read.skipped == 0

    def test_by_key_is_first_write_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as j:
            j.write_header("fp", "toy")
            j.append_point(_entry(0))
            # A duplicate append for the same key (e.g. two racing
            # resumes): the first record is the authoritative one.
            dup = JournalEntry(
                key="key0",
                index=0,
                status="ok",
                payload=encode_result(
                    Measurement(name="pt", time=9.9, config={"i": 0})
                ),
            )
            j.append_point(dup)
        by_key = Journal.read(path).by_key()
        assert by_key["key0"].result().time == 0.0

    def test_bad_status_is_rejected_at_write(self, tmp_path):
        j = Journal(str(tmp_path / "j.jsonl"))
        with pytest.raises(ConfigError, match="unknown journal status"):
            j.append_point(_entry(0, status="exploded"))

    def test_bad_status_anywhere_in_a_commit_writes_nothing(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as j:
            j.write_header("fp", "toy")
            j.append_point(_entry(0))
        before = open(path, "rb").read()
        with Journal(path) as j:
            with pytest.raises(ConfigError, match="unknown journal status"):
                j.append_point(_entry(1), _entry(2, status="exploded"))
        assert open(path, "rb").read() == before

    def test_a_commit_is_one_write_and_one_fsync(self, tmp_path, fsync_calls):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as j:
            j.write_header("fp", "toy", total=4)
            j.append_point(*(_entry(i) for i in range(4)))
            j.append_point()  # an empty commit touches nothing
        assert len(fsync_calls) == 2
        assert [e.index for e in Journal.read(path).entries] == [0, 1, 2, 3]

    def test_append_after_reopen_resumes_file(self, tmp_path):
        # A resumed run opens the same path in append mode: old entries
        # survive, new ones follow.
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as j:
            j.write_header("fp", "toy")
            j.append_point(_entry(0))
        with Journal(path) as j:
            j.append_point(_entry(1))
        read = Journal.read(path)
        assert [e.index for e in read.entries] == [0, 1]
        assert read.header is not None


# --------------------------------------------------------------------------
# damage tolerance: the process-death cases
# --------------------------------------------------------------------------


class TestJournalDamage:
    def _write(self, path, n=3):
        with Journal(path) as j:
            j.write_header("fp", "toy", total=n)
            for i in range(n):
                j.append_point(_entry(i))

    def test_truncated_tail_is_silently_skipped(self, tmp_path):
        # SIGKILL mid-append leaves a half-written last line.  That is
        # the *expected* crash shape — the in-flight point was never
        # reported complete and will simply re-execute — so replay skips
        # it silently instead of alarming every resume after a kill.
        path = str(tmp_path / "j.jsonl")
        self._write(path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) - 25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            read = Journal.read(path)
        assert read.torn_tail
        assert read.skipped == 0
        assert [e.index for e in read.entries] == [0, 1]

    def test_interior_truncation_still_warns(self, tmp_path):
        # The same torn shape strictly *inside* the journal is not a
        # kill signature — something intact once followed it — so it
        # keeps the warning.
        path = str(tmp_path / "j.jsonl")
        self._write(path)
        lines = open(path, "r").read().splitlines()
        lines[2] = lines[2][:-25]  # tear point 1, but point 2 survives
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="skipped 1 damaged"):
            read = Journal.read(path)
        assert read.skipped == 1
        assert not read.torn_tail
        assert [e.index for e in read.entries] == [0, 2]

    def test_interior_damage_plus_torn_tail_warns_once(self, tmp_path):
        # A journal can carry both shapes at once: only the interior
        # damage is warned about; the torn tail stays silent.
        path = str(tmp_path / "j.jsonl")
        self._write(path, n=4)
        lines = open(path, "r").read().splitlines()
        lines[2] = lines[2][:-25]  # interior tear (point 1)
        lines[4] = lines[4][:-25]  # torn tail (point 3, the last line)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="skipped 1 damaged"):
            read = Journal.read(path)
        assert read.skipped == 1
        assert read.torn_tail
        assert [e.index for e in read.entries] == [0, 2]

    def test_corrupted_record_fails_its_digest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        self._write(path)
        lines = open(path, "r").read().splitlines()
        # Flip the journaled time of point 1: still valid JSON, but the
        # per-record sha no longer matches.
        lines[2] = lines[2].replace('"time":1e-06', '"time":99.0')
        assert '"time":99.0' in lines[2]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="digest mismatch"):
            read = Journal.read(path)
        assert read.skipped == 1
        assert [e.index for e in read.entries] == [0, 2]

    def test_digest_mismatch_on_last_line_is_not_a_torn_tail(self, tmp_path):
        # A final line that *parses* but fails its digest is corruption,
        # not a kill signature: a torn append cannot produce valid JSON.
        path = str(tmp_path / "j.jsonl")
        self._write(path)
        lines = open(path, "r").read().splitlines()
        lines[-1] = lines[-1].replace('"time":2e-06', '"time":99.0')
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="digest mismatch"):
            read = Journal.read(path)
        assert read.skipped == 1
        assert not read.torn_tail

    def test_read_warn_false_suppresses_but_keeps_reasons(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        self._write(path)
        lines = open(path, "r").read().splitlines()
        lines[2] = lines[2][:-25]
        open(path, "w").write("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read = Journal.read(path, warn=False)
        assert read.skipped == 1
        assert read.reasons and "line 3" in read.reasons[0]

    def test_foreign_lines_are_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        self._write(path, n=2)
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('{"kind": "note", "sha": "nope"}\n')
        with pytest.warns(UserWarning):
            read = Journal.read(path)
        assert read.skipped == 2
        assert len(read.entries) == 2

    def test_blank_lines_are_ignored_silently(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        self._write(path, n=1)
        with open(path, "a") as fh:
            fh.write("\n\n")
        read = Journal.read(path)  # no warning expected
        assert read.skipped == 0
        assert len(read.entries) == 1


# --------------------------------------------------------------------------
# merging journals from several runners
# --------------------------------------------------------------------------


def _write_journal(path, indices, campaign="fp", total=None, times=None):
    with Journal(str(path)) as j:
        j.write_header(campaign, "toy", total=total)
        for i in indices:
            value = Measurement(
                name="pt",
                time=(times or {}).get(i, i * 1e-6),
                config={"i": i},
            )
            j.append_point(_entry(i, value=value))
    return str(path)


class TestJournalMerge:
    def test_disjoint_journals_union(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [0, 1], total=4)
        b = _write_journal(tmp_path / "b.jsonl", [2, 3], total=4)
        merged = Journal.merge(a, b)
        assert merged.header["campaign"] == "fp"
        assert sorted(e.index for e in merged.entries) == [0, 1, 2, 3]
        assert merged.skipped == 0

    def test_overlap_with_identical_payloads_dedupes(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [0, 1, 2])
        b = _write_journal(tmp_path / "b.jsonl", [1, 2, 3])
        merged = Journal.merge(a, b)
        assert sorted(e.index for e in merged.entries) == [0, 1, 2, 3]
        assert len(merged.by_key()) == 4

    def test_conflicting_digests_for_one_key_refuse(self, tmp_path):
        # Two journals claiming different results for one key cannot
        # have come from the same campaign: merging them silently would
        # corrupt it, so merge refuses.
        a = _write_journal(tmp_path / "a.jsonl", [0, 1])
        b = _write_journal(tmp_path / "b.jsonl", [1], times={1: 99.0})
        with pytest.raises(ConfigError, match="disagrees .* key"):
            Journal.merge(a, b)

    def test_mixed_campaign_fingerprints_refuse(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [0])
        b = _write_journal(tmp_path / "b.jsonl", [1], campaign="other")
        with pytest.raises(ConfigError, match="refusing to mix"):
            Journal.merge(a, b)

    def test_empty_journal_is_a_no_op_input(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [0, 1])
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        merged = Journal.merge(a, empty)
        assert sorted(e.index for e in merged.entries) == [0, 1]

    def test_headerless_inputs_refuse(self, tmp_path):
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        with pytest.raises(ConfigError, match="intact header"):
            Journal.merge(empty)

    def test_merge_with_self_is_identity(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [0, 1, 2])
        merged = Journal.merge(a, a)
        solo = Journal.read(a)
        assert [e.key for e in merged.entries] == [e.key for e in solo.entries]
        assert merged.header == solo.header

    def test_damage_across_inputs_is_one_warning(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [0, 1])
        b = _write_journal(tmp_path / "b.jsonl", [2, 3])
        for path in (a, b):
            lines = open(path).read().splitlines()
            lines[1] = lines[1][:-20]  # interior tear in each input
            open(path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="skipped 2 damaged") as caught:
            merged = Journal.merge(a, b)
        assert len([w for w in caught if w.category is UserWarning]) == 1
        assert merged.skipped == 2
        assert sorted(e.index for e in merged.entries) == [1, 3]

    def test_merged_output_journal_is_readable(self, tmp_path, fsync_calls):
        a = _write_journal(tmp_path / "a.jsonl", [0, 1], total=4)
        b = _write_journal(tmp_path / "b.jsonl", [2, 3], total=4)
        out = str(tmp_path / "merged.jsonl")
        fsync_calls.clear()
        Journal.merge(a, b, out=out)
        assert len(fsync_calls) == 2  # the header, then every entry at once
        read = Journal.read(out)
        assert read.skipped == 0
        assert read.header["campaign"] == "fp"
        assert sorted(e.index for e in read.entries) == [0, 1, 2, 3]

    def test_merge_order_never_changes_the_merged_map(self, tmp_path):
        # Seeded property test: random overlapping journals, shuffled
        # merge orders — the by_key() map (which is what replay and
        # results_payload() consume) never changes.  Runs without
        # hypothesis so the numpy-free campaign CI job can execute it.
        rng = random.Random(1337)
        paths = []
        for w in range(4):
            indices = sorted(rng.sample(range(8), rng.randint(2, 6)))
            paths.append(
                _write_journal(tmp_path / f"w{w}.jsonl", indices, total=8)
            )
        reference = None
        for trial in range(10):
            order = paths[:]
            rng.shuffle(order)
            merged = Journal.merge(*order)
            snapshot = {
                key: (e.status, json.dumps(e.payload, sort_keys=True))
                for key, e in merged.by_key().items()
            }
            if reference is None:
                reference = snapshot
            assert snapshot == reference, f"merge order changed results ({order})"
