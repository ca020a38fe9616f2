"""Campaign crash gates: SIGKILL the runner, then SIGKILL a worker.

The crash-safety contract of :mod:`repro.campaign`, exercised for real —
with actual ``SIGKILL``\\ s, not simulated ones:

1. **reference** — an uninterrupted serial ``repro campaign run`` of the
   halo campaign (numpy-free) under its demo fault plan, writing the
   canonical results payload;
2. **kill** — the same campaign started fresh in a subprocess with a
   per-point throttle, ``SIGKILL``\\ ed once enough points are journaled
   (mid-run; each shard is one journal commit, so a torn line can only
   be the tail of one shard's commit);
3. **resume** — ``repro campaign resume`` against the killed journal;
4. **net** — the campaign served over TCP (``--serve``) to two
   ``repro campaign worker`` subprocesses, one of which is
   ``SIGKILL``\\ ed mid-shard; the survivor drains the queue.  The
   completed journal is then split in half and reconciled back with
   ``repro campaign merge`` — the multi-runner reconciliation path.

Gates:

* the resumed payload is **byte-identical** to the reference payload;
* the resume re-executed **zero** journaled points
  (``replayed == journaled_before`` and ``executed = total - replayed``);
* at least one ``capture_failures`` death was retried under the relaxed
  fault plan and recovered;
* the worker-kill run completes every point (zero lost), journals zero
  duplicate keys, reassigns the dead worker's shard(s), and its payload
  is byte-identical to the reference;
* resuming from the merged split journals re-executes zero points and
  reproduces the same payload byte-for-byte.

Writes ``BENCH_campaign.json`` so CI and the nightly can gate on it::

    PYTHONPATH=src python benchmarks/bench_campaign.py
    PYTHONPATH=src python benchmarks/bench_campaign.py --quick

Under pytest it runs the quick gates as a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Journaled points required before the kill fires.
MIN_POINTS_BEFORE_KILL = 5
MIN_POINTS_BEFORE_KILL_QUICK = 2
#: Per-point throttle for the to-be-killed run; doubled on each re-try
#: if the run finishes before the kill lands.
THROTTLE_MS = 150.0
KILL_ATTEMPTS = 4


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SRC + (os.pathsep + existing if existing else "")
    return env


def _campaign_cmd(action: str, journal: str, *extra: str, quick: bool) -> List[str]:
    cmd = [
        sys.executable, "-m", "repro", "campaign", action, "halo",
        "--faults", "demo", "--journal", journal, "--shard-size", "2",
    ]
    if quick:
        cmd.append("--quick")
    cmd.extend(extra)
    return cmd


def _journaled_points(journal: str) -> int:
    try:
        with open(journal, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if '"kind":"point"' in line)
    except FileNotFoundError:
        return 0


def _kill_mid_run(journal: str, quick: bool, min_points: int) -> Dict[str, Any]:
    """Start the campaign throttled and SIGKILL it mid-run.

    Returns the kill record; retries with a doubled throttle if the run
    completes before enough points land (fast machine / slow poller).
    """
    throttle = THROTTLE_MS
    for attempt in range(1, KILL_ATTEMPTS + 1):
        if os.path.exists(journal):
            os.unlink(journal)
        proc = subprocess.Popen(
            _campaign_cmd(
                "run", journal, "--throttle-ms", str(throttle), quick=quick
            ),
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before the kill: retry slower
            if _journaled_points(journal) >= min_points:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30.0)
                return {
                    "attempt": attempt,
                    "throttle_ms": throttle,
                    "journaled_at_kill": _journaled_points(journal),
                    "killed": True,
                }
            time.sleep(0.01)
        if proc.poll() is None:  # pragma: no cover - watchdog
            proc.kill()
            proc.wait(timeout=30.0)
        throttle *= 2.0
    return {"killed": False, "throttle_ms": throttle}


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _worker_cmd(port: int, name: str) -> List[str]:
    return [
        sys.executable, "-m", "repro", "campaign", "worker",
        "--connect", f"127.0.0.1:{port}", "--name", name,
        "--heartbeat-s", "0.5",
    ]


def _reap(*procs: subprocess.Popen) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - watchdog
            pass


def _journal_point_keys(journal: str) -> List[str]:
    keys = []
    with open(journal, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # the torn tail the victim may have left
            if record.get("kind") == "point":
                keys.append(record["key"])
    return keys


def _net_kill_run(tmp: str, quick: bool, min_points: int) -> Dict[str, Any]:
    """Serve the campaign to two workers and SIGKILL one mid-shard.

    Returns the net record (kill details, run stats, artifact paths).
    Retries with a doubled throttle if the run finishes before the kill
    lands, or if the victim held no lease when it died (the reassignment
    gate needs a shard to actually come back from the dead).
    """
    journal = os.path.join(tmp, "net.jsonl")
    out = os.path.join(tmp, "net.json")
    stats_path = os.path.join(tmp, "net_stats.json")
    throttle = THROTTLE_MS
    for attempt in range(1, KILL_ATTEMPTS + 1):
        for path in (journal, out, stats_path):
            if os.path.exists(path):
                os.unlink(path)
        port = _free_port()
        t0 = time.perf_counter()
        server = subprocess.Popen(
            _campaign_cmd(
                "run", journal, "--out", out, "--stats", stats_path,
                "--serve", f"127.0.0.1:{port}", "--min-workers", "2",
                "--throttle-ms", str(throttle), quick=quick,
            ),
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        victim = subprocess.Popen(
            _worker_cmd(port, "victim"), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        survivor = subprocess.Popen(
            _worker_cmd(port, "survivor"), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        killed = False
        at_kill = 0
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if server.poll() is not None:
                break  # finished before the kill: retry slower
            at_kill = _journaled_points(journal)
            if at_kill >= min_points:
                victim.send_signal(signal.SIGKILL)
                victim.wait(timeout=30.0)
                killed = True
                break
            time.sleep(0.01)
        if not killed:
            _reap(server, victim, survivor)
            throttle *= 2.0
            continue
        try:
            rc = server.wait(timeout=120.0)
            survivor.wait(timeout=30.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - watchdog
            _reap(server, victim, survivor)
            throttle *= 2.0
            continue
        stats = json.load(open(stats_path)) if os.path.exists(stats_path) else {}
        if rc == 0 and stats.get("reassigned", 0) < 1:
            # The victim died between shards — no lease to reassign, so
            # nothing was proven.  Slow the shards down and try again.
            throttle *= 2.0
            continue
        return {
            "kill": {
                "attempt": attempt,
                "throttle_ms": throttle,
                "journaled_at_kill": at_kill,
                "killed": True,
            },
            "wall": time.perf_counter() - t0,
            "returncode": rc,
            "stats": stats,
            "journal": journal,
            "out": out,
        }
    return {"kill": {"killed": False, "throttle_ms": throttle}}


def _merge_split_journals(tmp: str, journal: str, quick: bool) -> Dict[str, Any]:
    """Split a completed journal in half, merge, resume from the merge.

    The halves are byte-copies of the original's sealed lines (header +
    every other point), i.e. exactly what two independent runners of the
    same spec would have journaled.
    """
    with open(journal, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    header, points = lines[0], lines[1:]
    halves = []
    for tag, subset in (("a", points[::2]), ("b", points[1::2])):
        path = os.path.join(tmp, f"half-{tag}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, *subset]) + "\n")
        halves.append(path)
    merged = os.path.join(tmp, "merged.jsonl")
    subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "merge",
         *halves, "--journal", merged],
        env=_env(), check=True, stdout=subprocess.DEVNULL,
    )
    merged_out = os.path.join(tmp, "merged.json")
    merged_stats = os.path.join(tmp, "merged_stats.json")
    subprocess.run(
        _campaign_cmd(
            "resume", merged, "--out", merged_out, "--stats", merged_stats,
            quick=quick,
        ),
        env=_env(), check=True, stdout=subprocess.DEVNULL,
    )
    return {"stats": json.load(open(merged_stats)), "out": merged_out}


def run_campaign_gate(
    quick: bool = False, output: Optional[str] = "BENCH_campaign.json"
) -> Dict[str, Any]:
    """Run the full kill-and-resume scenario and write the report."""
    min_points = MIN_POINTS_BEFORE_KILL_QUICK if quick else MIN_POINTS_BEFORE_KILL
    report: Dict[str, Any] = {"name": "campaign", "quick": quick}
    with tempfile.TemporaryDirectory(prefix="bench_campaign_") as tmp:
        ref_journal = os.path.join(tmp, "ref.jsonl")
        ref_out = os.path.join(tmp, "ref.json")
        ref_stats = os.path.join(tmp, "ref_stats.json")
        t0 = time.perf_counter()
        subprocess.run(
            _campaign_cmd(
                "run", ref_journal, "--out", ref_out, "--stats", ref_stats,
                quick=quick,
            ),
            env=_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        report["reference"] = {
            "wall": time.perf_counter() - t0,
            "stats": json.load(open(ref_stats)),
        }

        journal = os.path.join(tmp, "killed.jsonl")
        report["kill"] = _kill_mid_run(journal, quick, min_points)

        res_out = os.path.join(tmp, "resumed.json")
        res_stats = os.path.join(tmp, "resumed_stats.json")
        t0 = time.perf_counter()
        subprocess.run(
            _campaign_cmd(
                "resume", journal, "--out", res_out, "--stats", res_stats,
                quick=quick,
            ),
            env=_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        stats = json.load(open(res_stats))
        report["resume"] = {"wall": time.perf_counter() - t0, "stats": stats}

        net = _net_kill_run(tmp, quick, min_points)
        report["net"] = {"kill": net["kill"]}
        if net["kill"].get("killed"):
            ref_bytes = open(ref_out, "rb").read()
            keys = _journal_point_keys(net["journal"])
            merge = _merge_split_journals(tmp, net["journal"], quick)
            nstats = net["stats"]
            report["net"]["wall"] = net["wall"]
            report["net"]["returncode"] = net["returncode"]
            report["net"]["stats"] = nstats
            report["net"]["merge_stats"] = merge["stats"]
            report["net"]["gate"] = {
                "payload_identical": ref_bytes == open(net["out"], "rb").read(),
                "zero_lost": nstats.get("executed") == nstats.get("total"),
                "duplicate_journal_keys": len(keys) - len(set(keys)),
                "reassigned": nstats.get("reassigned", 0),
                "failures": nstats.get("failures", 0),
                "merge_payload_identical": (
                    ref_bytes == open(merge["out"], "rb").read()
                ),
                "merge_reexecuted": merge["stats"]["executed"],
            }

        report["gate"] = {
            "payload_identical": (
                open(ref_out, "rb").read() == open(res_out, "rb").read()
            ),
            "reexecuted_journaled_points": (
                stats["journaled_before"] - stats["replayed"]
            ),
            "executed_only_remainder": (
                stats["executed"] == stats["total"] - stats["replayed"]
            ),
            "retried": stats["retried"] + report["reference"]["stats"]["retried"],
            "recovered": (
                stats["recovered"] + report["reference"]["stats"]["recovered"]
            ),
        }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report


def check_report(report: Dict[str, Any]) -> List[str]:
    """The gates; returns a list of violations (empty = pass)."""
    bad: List[str] = []
    if not report["kill"].get("killed"):
        bad.append("never managed to SIGKILL the run mid-campaign")
        return bad
    gate = report["gate"]
    if not gate["payload_identical"]:
        bad.append("resumed payload differs from the uninterrupted reference")
    if gate["reexecuted_journaled_points"] != 0:
        bad.append(
            f"{gate['reexecuted_journaled_points']} journaled point(s) "
            "were re-executed on resume"
        )
    if not gate["executed_only_remainder"]:
        bad.append("resume executed a different point count than the remainder")
    if gate["retried"] < 1 or gate["recovered"] < 1:
        bad.append(
            "no capture_failures point was retried-and-recovered under the "
            "relaxed fault plan"
        )
    if report["resume"]["stats"]["failures"] != 0:
        bad.append("resumed campaign ended with unrecovered failures")
    net = report.get("net", {})
    if not net.get("kill", {}).get("killed"):
        bad.append("never managed to SIGKILL a worker mid-campaign")
        return bad
    ngate = net["gate"]
    if net.get("returncode") != 0:
        bad.append("worker-kill campaign run exited non-zero")
    if not ngate["payload_identical"]:
        bad.append("worker-kill payload differs from the serial reference")
    if not ngate["zero_lost"]:
        bad.append("worker-kill run lost points (executed != total)")
    if ngate["duplicate_journal_keys"] != 0:
        bad.append(
            f"{ngate['duplicate_journal_keys']} duplicate key(s) journaled "
            "after the worker kill"
        )
    if ngate["reassigned"] < 1:
        bad.append("the dead worker's shard was never reassigned")
    if ngate["failures"] != 0:
        bad.append("worker-kill campaign ended with unrecovered failures")
    if not ngate["merge_payload_identical"]:
        bad.append("merged split journals resumed to a different payload")
    if ngate["merge_reexecuted"] != 0:
        bad.append(
            f"resume from the merged journals re-executed "
            f"{ngate['merge_reexecuted']} point(s)"
        )
    return bad


def render_report(report: Dict[str, Any]) -> str:
    ref, res = report["reference"]["stats"], report["resume"]["stats"]
    kill = report["kill"]
    lines = [
        "campaign kill-and-resume gate (halo, demo faults)",
        "",
        f"  reference: {ref['total']} points, {ref['retried']} retried, "
        f"{ref['recovered']} recovered, wall {report['reference']['wall']:.2f}s",
        f"  killed at: {kill.get('journaled_at_kill', '?')} journaled points "
        f"(throttle {kill.get('throttle_ms', 0):.0f} ms, "
        f"attempt {kill.get('attempt', '?')})",
        f"  resume:    {res['replayed']} replayed + {res['executed']} executed "
        f"({res['journal_skipped']} damaged line(s) skipped), "
        f"wall {report['resume']['wall']:.2f}s",
    ]
    for name, ok in (
        ("payload byte-identical", report["gate"]["payload_identical"]),
        ("zero re-executed", report["gate"]["reexecuted_journaled_points"] == 0),
        ("retry recovered", report["gate"]["recovered"] >= 1),
    ):
        lines.append(f"  gate {name:<24} {'PASS' if ok else 'FAIL'}")
    net = report.get("net", {})
    if net.get("gate"):
        nstats, ngate, nkill = net["stats"], net["gate"], net["kill"]
        lines += [
            "",
            "worker-kill gate (two socket workers, one SIGKILLed)",
            "",
            f"  killed at: {nkill.get('journaled_at_kill', '?')} journaled "
            f"points (throttle {nkill.get('throttle_ms', 0):.0f} ms, "
            f"attempt {nkill.get('attempt', '?')})",
            f"  survivor:  {nstats['executed']} executed, "
            f"{nstats['reassigned']} shard(s) reassigned, "
            f"wall {net['wall']:.2f}s",
            f"  merge:     {net['merge_stats']['replayed']} replayed + "
            f"{net['merge_stats']['executed']} executed from split journals",
        ]
        for name, ok in (
            ("payload byte-identical", ngate["payload_identical"]),
            ("zero lost / duplicated",
             ngate["zero_lost"] and ngate["duplicate_journal_keys"] == 0),
            ("shard reassigned", ngate["reassigned"] >= 1),
            ("merge byte-identical",
             ngate["merge_payload_identical"]
             and ngate["merge_reexecuted"] == 0),
        ):
            lines.append(f"  gate {name:<24} {'PASS' if ok else 'FAIL'}")
    elif not net.get("kill", {}).get("killed"):
        lines += ["", "worker-kill gate: kill never landed (FAIL)"]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SIGKILL a campaign mid-run, resume it, gate the results."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small grid + earlier kill (CI smoke mode)",
    )
    parser.add_argument(
        "--output", "--out", dest="output",
        default="BENCH_campaign.json", metavar="PATH",
        help="JSON report path ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    output = None if args.output == "-" else args.output
    report = run_campaign_gate(quick=args.quick, output=output)
    print(render_report(report))
    if output:
        print(f"\nreport written to {output}")
    bad = check_report(report)
    for line in bad:
        print(f"GATE FAILED: {line}")
    return 1 if bad else 0


def test_campaign_gate_quick(tmp_path):
    """Smoke: the quick kill-and-resume scenario passes every gate."""
    out = tmp_path / "BENCH_campaign.json"
    report = run_campaign_gate(quick=True, output=str(out))
    assert out.exists()
    assert check_report(report) == []
    assert report["gate"]["payload_identical"]
    assert report["net"]["gate"]["payload_identical"]
    assert report["net"]["gate"]["merge_payload_identical"]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
