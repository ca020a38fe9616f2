"""Tests for the programmatic validation battery."""

import argparse
from collections import Counter

import pytest

from repro.figures import FIGURES, NUMBERS
from repro.validation import Claim, ClaimSet, render_report, validate_all


class TestClaimSet:
    def test_band_check_with_slack(self):
        cs = ClaimSet()
        cs.band("F", "inside", 1.0, 2.0, 1.5)
        cs.band("F", "edge-with-slack", 1.0, 2.0, 0.9)
        cs.band("F", "outside", 1.0, 2.0, 3.0)
        assert [c.passed for c in cs.claims] == [True, True, False]

    def test_approx_check(self):
        cs = ClaimSet()
        cs.approx("F", "close", 10.0, 10.4)
        cs.approx("F", "far", 10.0, 12.0)
        assert [c.passed for c in cs.claims] == [True, False]

    def test_failures_listed(self):
        cs = ClaimSet()
        cs.check("F", "good", "x", "x", True)
        cs.check("F", "bad", "x", "y", False)
        assert cs.n_passed == 1
        assert not cs.all_passed
        assert [c.statement for c in cs.failures()] == ["bad"]


class TestFullBattery:
    @pytest.fixture(scope="class")
    def battery(self):
        return validate_all()

    def test_every_claim_reproduces(self, battery):
        failing = [f"{c.figure}: {c.statement}" for c in battery.failures()]
        assert battery.all_passed, failing

    def test_coverage_spans_all_sections(self, battery):
        figures = {c.figure for c in battery.claims}
        # At least one claim from each experimental section.
        for expected in ("Fig 4", "Fig 7", "Fig 15", "Fig 17", "Fig 19",
                         "Fig 22", "Fig 23", "Fig 25"):
            assert any(expected in f for f in figures), expected

    def test_battery_is_substantial(self, battery):
        assert len(battery.claims) >= 35

    def test_report_renders(self, battery):
        report = render_report(battery)
        assert "claims reproduced" in report
        assert "FAIL" not in report

    def test_cli_validate(self, capsys):
        from repro.cli import main

        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.endswith("\n39/39 claims reproduced\n")


# The 39 rendered claim rows, byte for byte (sorted, so figure order does
# not matter): the paper column reads ``paperdata``, and these rows prove
# the rendered strings never move when a literal becomes a lookup.
PINNED_ROWS = [
    'Fig 10-14  allgather factor band at 1 rank/core           2.6..17.1          3.14..13.5          ok     ',
    'Fig 10-14  allgather factor band at 4 rank/core           68..1.15e+03       67.6..819           ok     ',
    'Fig 10-14  allreduce factor band at 1 rank/core           2.2..13.4          3.65..12.4          ok     ',
    'Fig 10-14  allreduce factor band at 4 rank/core           28..104            75..107             ok     ',
    'Fig 10-14  alltoall factor band at 1 rank/core            8..20              8.06..13.5          ok     ',
    'Fig 10-14  alltoall factor band at 4 rank/core            1e+03..2.6e+03     1.14e+03..2.05e+03  ok     ',
    'Fig 10-14  sendrecv factor band at 1 rank/core            1.3..3.5           2.08..3.5           ok     ',
    'Fig 10-14  sendrecv factor band at 4 rank/core            24..54             33.3..52.3          ok     ',
    'Fig 14     alltoall OOM beyond 4 KiB at 236 ranks         4096               4096                ok     ',
    'Fig 15     Phi sync overhead ≈ order of magnitude higher  > 7x mean          11.3x               ok     ',
    'Fig 15     host: REDUCTION worst / ATOMIC best            REDUCTION, ATOMIC  REDUCTION, ATOMIC   ok     ',
    'Fig 15     phi: REDUCTION worst / ATOMIC best             REDUCTION, ATOMIC  REDUCTION, ATOMIC   ok     ',
    'Fig 16     host: STATIC < GUIDED < DYNAMIC                ordered            ordered             ok     ',
    'Fig 16     phi: STATIC < GUIDED < DYNAMIC                 ordered            ordered             ok     ',
    'Fig 17     host/phi read ratio                            3.9                3.944               ok     ',
    'Fig 17     host/phi write ratio                           2.6                2.634               ok     ',
    'Fig 18     offload plateau (GB/s)                         6.4                6.399               ok     ',
    'Fig 19     BT best / CG worst on Phi                      BT, CG             BT, CG              ok     ',
    'Fig 19     host beats Phi except MG                       only MG > 1        MG                  ok     ',
    'Fig 20     FT Class C cannot run on the Phi under MPI     OutOfMemoryError   raised              ok     ',
    'Fig 21     Cart3D host over best Phi                      2                  2.037               ok     ',
    'Fig 22     best host over best Phi                        1.8                1.92                ok     ',
    'Fig 22     host best 16x1, Phi best 8x28                  (16,1), (8,28)     (16, 1), (8, 28)    ok     ',
    'Fig 23     post-update gain (%)                           2..28              7.95                ok     ',
    'Fig 23     symmetric loses to two hosts                   slower             slower              ok     ',
    'Fig 23     symmetric speedup vs host native               1.9                1.859               ok     ',
    'Fig 25     MG native Phi Gflop/s                          29.9               30.16               ok     ',
    'Fig 25     MG native host Gflop/s                         23.5               23.45               ok     ',
    'Fig 4      Phi STREAM at 177 threads (GB/s)               140                140                 ok     ',
    'Fig 4      Phi STREAM at 59 threads (GB/s)                180                180                 ok     ',
    'Fig 5      Phi memory latency (ns)                        295                294.9               ok     ',
    'Fig 5      host L1 latency (ns)                           1.5                1.5                 ok     ',
    'Fig 6      Phi per-core read bw at MEM (MB/s)             504                504.1               ok     ',
    'Fig 6      host per-core read bw at MEM (GB/s)            7.5                7.552               ok     ',
    'Fig 7      host-phi0 latency (µs)                         3.3                3.3                 ok     ',
    'Fig 8      post-update host-phi0 bw @4MiB (GB/s)          6                  6.018               ok     ',
    'Fig 8      pre-update host-phi0 bw @4MiB (GB/s)           1.6                1.617               ok     ',
    'Fig 9      host-phi1 large-message gain                   7..13              11.3                ok     ',
    'Fig 9      host-phi1 large-message gain (hi)              7..13              13                  ok     ',
]


class TestPinnedReport:
    def test_rows_byte_identical(self):
        lines = render_report(validate_all()).split("\n")
        assert sorted(lines[2:-1]) == PINNED_ROWS

    def test_summary_line(self):
        assert render_report(validate_all()).split("\n")[-1] == (
            "39/39 claims reproduced"
        )


class TestFigureTable:
    @pytest.fixture(scope="class")
    def claimsets(self):
        """Each entry's validate claims and bench gates over its data."""
        out = {}
        for key, fig in FIGURES.items():
            data = fig.data()
            cs = ClaimSet()
            fig.claims(data, cs, gates=cs)
            out[key] = cs
        return out

    def test_every_entry_has_a_claim_or_gate(self, claimsets):
        empty = [key for key, cs in claimsets.items() if not cs.claims]
        assert not empty

    def test_claim_names_unique_across_the_table(self, claimsets):
        names = Counter(
            (c.figure, c.statement) for cs in claimsets.values() for c in cs.claims
        )
        assert [n for n, k in names.items() if k > 1] == []

    def test_figure_choices_are_the_table_keys(self, monkeypatch):
        from repro.cli import main

        seen = {}
        add_argument = argparse._ActionsContainer.add_argument

        def spy(self, *args, **kwargs):
            if args == ("number",):
                seen["choices"] = kwargs["choices"]
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
        assert main(["figure", "4"]) == 0
        assert seen["choices"] == sorted(NUMBERS) == list(range(4, 28))
        assert set(NUMBERS.values()) == set(FIGURES) - {"table1"}
        assert NUMBERS[26] == NUMBERS[27] == "26-27"
