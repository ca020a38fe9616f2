"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestCli:
    def test_table1(self, capsys):
        rc, out = run_cli(capsys, "table1")
        assert rc == 0
        assert "301.4" in out  # paper's total peak
        assert "model" in out

    @pytest.mark.parametrize("number", [4, 7, 10, 15, 17, 19, 22, 24, 26])
    def test_single_figures(self, capsys, number):
        rc, out = run_cli(capsys, "figure", str(number))
        assert rc == 0
        assert f"Figure" in out

    def test_figure_out_of_range_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "99"])

    def test_npb_subset(self, capsys):
        rc, out = run_cli(capsys, "npb", "--problem", "S", "--benchmarks", "CG,IS")
        assert rc == 0
        assert out.count("VERIFIED") == 2
        assert "FAILED" not in out

    def test_modes(self, capsys):
        rc, out = run_cli(capsys, "modes")
        assert rc == 0
        assert "native phi 177" in out
        assert "offload whole" in out

    def test_figures_runs_everything(self, capsys):
        rc, out = run_cli(capsys, "figures")
        assert rc == 0
        # Every figure header appears exactly once (26/27 share a renderer).
        for n in (4, 9, 14, 18, 21, 23, 25):
            assert f"Figure {n}" in out
        assert "Figures 26-27" in out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


# sha256 of the stdout of each figure command. Any change to a figure's
# data, table layout or number formatting moves its pin.
GOLDEN_FIGURES = {
    "table1": "2397deb84a38b3e33144453ce6824ab95794d8043e0e7c6a5d733dc49570f7b3",
    "figures": "8592aa229c032ca7e6d580e7364b85eefea1fb2b57a102048340f83856ec33ba",
    "figure 4": "bd1e8a458341430f92fe56fdc7047a12c93bfdef0260bef3f905345603ff9c6d",
    "figure 5": "8b54a615fbe3080b6e2479bd4a0e9d14b9399d55856ac4aa70cc30bcc67d65a1",
    "figure 6": "89f93ba3f87f3f4400bdd02a1244d945e3f63dfff75cf14cf51e6cc26694d9ab",
    "figure 7": "5e6e6f93fdc36e501d7bf5af14d53c7fca1dfa513cbd59e84ec277d823af7e2d",
    "figure 8": "d6cfcdf06811f9805a7e1ee1b5c99a4e028202702370fe2b7a904f12f504c340",
    "figure 9": "95803aa6c5f7bc4a67ca8dc740c63e5079f971b326dd66a20dd5a312145381a6",
    "figure 10": "f6c0092801cd7039685a261f37b989f04c24fb356bd9c618ada7cb068a56eec4",
    "figure 11": "6923df2bdcc7fd8e5ab30cb0b6590089b20467e9111e03861519f4f81d798a1e",
    "figure 12": "b61527ff8257506796f9dd46ad78fdff87f17c1a6941f5ee854af2ce5b06e5cc",
    "figure 13": "245e0455919646943fdbcb238c0a79c068e01b1171397cf7b45684cca7c02422",
    "figure 14": "92f2542e4c79e96ee2d43c50e7eff5ca78a4e443554fd0404d73798930d0d77c",
    "figure 15": "a0b0c9db297f9ffbf7db0ceabd614fceb4a0b0b11ddefaac1b50706c7f97c576",
    "figure 16": "0d913e16e8d8a41f0a9a30500b8aebd9ea83e8e4c60897d6a4f99dbd8a789191",
    "figure 17": "b3811173d3b2f723085c265e9fabd22c3bd5f359882a8093f2ab0cc5d9fc503b",
    "figure 18": "f0cba15f184db1e9177434f7dbfac6503fbf3b2eae787c57021183c55a06f0bf",
    "figure 19": "e070e937fd9dfa4a577ed025ca6dace807d887c2b34b4f5623d57b8d1d34e57e",
    "figure 20": "16cf0ae2c9b7d9cae901414eaaea7729ccecdd1645f612cf66244f4bd874c81e",
    "figure 21": "fdc6d52285637d2e009f3149a9a6e0302632e7dedbc58494539178e808700e27",
    "figure 22": "be4688934cfafae37acc3d7765cf89b1c97a0a3ed628cce0da9ebffee8ad17d7",
    "figure 23": "2b33801c8e7b6c6a905397121e10a6cc76c5501a77d674626d422f4a4814083c",
    "figure 24": "c970c808df44fafeeba0e3d1eee355fad8708a1fdbce2db197c8d50abab940f0",
    "figure 25": "81cb3340f92af11f0361b480f773cf193ceef12263d5b449a12b15cd10e2efa9",
    "figure 26": "6dbdf41d23e725a7d41fd585d9cda5462b352745d574577bc5e6faf23fd4e1ab",
    "figure 27": "6dbdf41d23e725a7d41fd585d9cda5462b352745d574577bc5e6faf23fd4e1ab",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_FIGURES))
def test_figure_output_pinned(capsys, command):
    rc, out = run_cli(capsys, *command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FIGURES[command], command


class TestTrace:
    def test_large_halo_traces_on_the_replay(self, capsys, tmp_path):
        out_path = str(tmp_path / "halo.json")
        rc, out = run_cli(capsys, "trace", "halo", "--ranks", "4096",
                          "--out", out_path)
        assert rc == 0
        digest = [ln for ln in out.splitlines() if ln.startswith("digest: ")]
        assert len(digest) == 1 and len(digest[0].split()[1]) == 64
        assert "events: 28672" in out  # 7 spans a rank, no engine instants

    def test_cg_traces_the_job_run_cg_mpi_runs(self, capsys, tmp_path):
        from repro.mpi.fabrics import host_fabric
        from repro.npb.mpi_versions import run_cg_mpi

        out_path = tmp_path / "cg.json"
        rc, out = run_cli(capsys, "trace", "cg", "--ranks", "4",
                          "--out", str(out_path))
        assert rc == 0 and out_path.stat().st_size > 0
        elapsed = run_cg_mpi(4, host_fabric()).elapsed
        assert f"elapsed={elapsed:.6e}s" in out


class TestCompile:
    def test_halo_compiles_exactly_at_p64(self, capsys):
        """The compiled and memo runs must equal the stepped elapsed."""
        rc, out = run_cli(capsys, "compile", "halo", "--ranks", "64")
        assert rc == 0
        assert out.count("0.0e+00") == 2  # rel err of both compiled rows

    def test_cg_rejects_a_rank_count_not_a_power_of_two(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="power-of-two"):
            main(["compile", "cg", "--ranks", "6"])


class TestCheck:
    def test_static_on_shipped_programs_clean(self, capsys):
        rc, out = run_cli(capsys, "check", "examples", "src/repro/npb")
        assert rc == 0
        assert "no diagnostics" in out

    def test_static_flags_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def main(comm):\n"
            "    comm.isend(1, nbytes=8)\n"
            "    yield from comm.barrier()\n"
        )
        rc, out = run_cli(capsys, "check", str(bad))
        assert rc == 1
        assert "RPA001" in out and "hint:" in out

    def test_baseline_accepts_known_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def main(comm):\n"
            "    comm.isend(1, nbytes=8)\n"
            "    yield from comm.barrier()\n"
        )
        report = tmp_path / "report.json"
        rc, _ = run_cli(capsys, "check", str(bad), "--json", str(report))
        assert rc == 1
        rc, out = run_cli(capsys, "check", str(bad), "--baseline", str(report))
        assert rc == 0
        assert "no diagnostics" in out

    def test_units_mode(self, capsys, tmp_path):
        mixed = tmp_path / "mixed.py"
        mixed.write_text(
            "from repro.units import MiB, SEC\nx = 4 * MiB + 2 * SEC\n"
        )
        rc, out = run_cli(capsys, "check", str(mixed), "--units")
        assert rc == 1
        assert "RPA101" in out

    def test_dynamic_clean_experiment(self, capsys):
        rc, out = run_cli(capsys, "check", "allreduce", "--dynamic", "--ranks", "4")
        assert rc == 0
        assert "CLEAN" in out

    def test_dynamic_race_demo_flagged(self, capsys):
        rc, out = run_cli(capsys, "check", "race", "--ranks", "4")
        assert rc == 1
        assert "wildcard-race" in out

    def test_dynamic_leak_demo_flagged(self, capsys):
        rc, out = run_cli(capsys, "check", "leak", "--ranks", "2")
        assert rc == 1
        assert "leaked-request" in out

    def test_unknown_target_rejected(self, capsys):
        rc, out = run_cli(capsys, "check", "no-such-thing")
        assert rc == 2
        assert "unknown target" in out


class TestCampaign:
    def test_run_status_resume_cycle(self, capsys, tmp_path):
        journal = str(tmp_path / "h.jsonl")
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        rc, out = run_cli(
            capsys, "campaign", "run", "halo", "--quick",
            "--journal", journal, "--out", out_a,
        )
        assert rc == 0
        assert "shard landed" in out
        rc, out = run_cli(capsys, "campaign", "status", "--journal", journal)
        assert rc == 0
        assert "6/6 journaled" in out
        assert "complete" in out
        rc, out = run_cli(
            capsys, "campaign", "resume", "halo", "--quick",
            "--journal", journal, "--out", out_b,
        )
        assert rc == 0
        assert open(out_a).read() == open(out_b).read()

    def test_demo_faults_recover_via_retries(self, capsys, tmp_path):
        stats_path = str(tmp_path / "s.json")
        rc, out = run_cli(
            capsys, "campaign", "run", "halo", "--quick", "--faults", "demo",
            "--journal", str(tmp_path / "h.jsonl"), "--stats", stats_path,
        )
        assert rc == 0
        import json as _json

        stats = _json.load(open(stats_path))
        assert stats["retried"] == 6
        assert stats["recovered"] == 6
        assert stats["failures"] == 0

    def test_status_on_missing_journal(self, capsys, tmp_path):
        rc, out = run_cli(
            capsys, "campaign", "status", "--journal", str(tmp_path / "no.jsonl")
        )
        assert rc == 1
        assert "never started" in out

    def test_run_without_experiment_rejected(self, capsys, tmp_path):
        rc, out = run_cli(capsys, "campaign", "run")
        assert rc == 2
        assert "needs an experiment" in out

    def test_status_distinguishes_incomplete_and_failed(self, capsys, tmp_path):
        # Exit codes CI gates on: 1 = resumable, 2 = complete but the
        # results contain failures, 0 = complete and healthy.
        from repro.campaign import Journal, JournalEntry
        from repro.campaign.journal import encode_result
        from repro.core.results import Failure, Measurement

        path = str(tmp_path / "j.jsonl")
        with Journal(path) as j:
            j.write_header("fp", "toy", total=2)
            j.append_point(JournalEntry(
                key="k0", index=0, status="ok",
                payload=encode_result(
                    Measurement(name="pt", time=1e-6, config={})
                ),
            ))
        rc, out = run_cli(capsys, "campaign", "status", "--journal", path)
        assert rc == 1
        assert "resumable" in out
        with Journal(path) as j:
            j.append_point(JournalEntry(
                key="k1", index=1, status="failure",
                payload=encode_result(Failure(
                    point=(1,), error="SimulationError", message="died",
                    when=0.0,
                )),
            ))
        rc, out = run_cli(capsys, "campaign", "status", "--journal", path)
        assert rc == 2
        assert "complete (with 1 failure(s)" in out
        assert "ok=1 failure=1" in out

    def test_worker_cli_serves_an_in_process_campaign(self, capsys, tmp_path):
        import threading

        from repro.campaign import run_campaign
        from repro.campaign.experiments import build_spec
        from repro.campaign.net import SocketShardExecutor

        spec = build_spec("halo", quick=True)
        ex = SocketShardExecutor(spec)
        host, port = ex.address
        outcome = {}

        def _serve():
            outcome["run"] = run_campaign(
                spec, str(tmp_path / "j.jsonl"), executor=ex
            )

        server = threading.Thread(target=_serve, daemon=True)
        server.start()
        rc, out = run_cli(
            capsys, "campaign", "worker",
            "--connect", f"{host}:{port}", "--name", "cli-worker",
        )
        server.join(timeout=10.0)
        assert rc == 0
        assert "shard(s) executed" in out
        assert outcome["run"].stats.executed == len(spec.points)

    def test_merge_reconciles_split_journals(self, capsys, tmp_path):
        # Two journals covering half the campaign each — the multi-
        # runner shape — merge into one that resumes to a byte-identical
        # payload with zero re-execution.
        import json as _json

        from repro.campaign import Journal

        journal = str(tmp_path / "full.jsonl")
        out_full = str(tmp_path / "full.json")
        rc, _ = run_cli(
            capsys, "campaign", "run", "halo", "--quick",
            "--journal", journal, "--out", out_full,
        )
        assert rc == 0
        read = Journal.read(journal)
        halves = []
        for tag, entries in (("a", read.entries[::2]), ("b", read.entries[1::2])):
            path = str(tmp_path / f"half-{tag}.jsonl")
            with Journal(path) as j:
                j._append(dict(read.header))
                for e in entries:
                    j.append_point(e)
            halves.append(path)
        merged = str(tmp_path / "merged.jsonl")
        rc, out = run_cli(
            capsys, "campaign", "merge", *halves, "--journal", merged,
        )
        assert rc == 0
        assert "6 distinct point(s)" in out
        out_merged = str(tmp_path / "merged.json")
        stats_path = str(tmp_path / "stats.json")
        rc, _ = run_cli(
            capsys, "campaign", "resume", "halo", "--quick",
            "--journal", merged, "--out", out_merged, "--stats", stats_path,
        )
        assert rc == 0
        assert open(out_full).read() == open(out_merged).read()
        assert _json.load(open(stats_path))["executed"] == 0
