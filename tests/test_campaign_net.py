"""Tests for multi-host campaign execution (`repro.campaign.net`).

Workers here are threads speaking the real TCP protocol against a real
listening :class:`SocketShardExecutor` — same wire format, same framing,
same fault paths as cross-host runs, without subprocess overhead (the CI
worker-kill gate in ``benchmarks/bench_campaign.py`` covers the real
``SIGKILL``).  The load-bearing properties: results are byte-identical
to serial execution, a dead or hung worker's shards are reassigned
(never lost), late duplicate deliveries are dropped (never journaled
twice), and asking for an unknown executor kind fails loudly instead of
degrading.  Everything is numpy-free.
"""

import json
import socket
import threading
import time

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.net import (
    SocketShardExecutor,
    _recv_msg,
    _send_msg,
    parse_address,
    run_worker,
)
from repro.core.results import Measurement
from repro.errors import ConfigError


# --------------------------------------------------------------------------
# module-level point functions (pickle across the wire, fingerprint stably)
# --------------------------------------------------------------------------


def _plain_point(point, fault_plan):
    return Measurement(name="pt", time=point * 1e-6, config={"p": point})


def _spec(points=(1, 2, 3, 4, 5, 6), **kw):
    kw.setdefault("name", "net-toy")
    kw.setdefault("point_fn", _plain_point)
    return CampaignSpec(points=points, **kw)


def _payload(run):
    return json.dumps(run.results_payload(), sort_keys=True)


def _start_workers(address, n, **kw):
    host, port = address
    threads = []
    for i in range(n):
        t = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": f"w{i}", **kw},
            daemon=True,
        )
        t.start()
        threads.append(t)
    return threads


# --------------------------------------------------------------------------
# address parsing and worker start-up
# --------------------------------------------------------------------------


class TestPlumbing:
    def test_parse_address(self):
        assert parse_address("10.0.0.7:9100") == ("10.0.0.7", 9100)
        with pytest.raises(ConfigError, match="not HOST:PORT"):
            parse_address("9100")
        with pytest.raises(ConfigError, match="non-numeric port"):
            parse_address("host:http")

    def test_worker_without_a_server_fails_loudly(self):
        with pytest.raises(ConfigError, match="no campaign server"):
            run_worker("127.0.0.1", 1, connect_retry_s=0.2)


# --------------------------------------------------------------------------
# the happy path: distributed == serial
# --------------------------------------------------------------------------


class TestSocketExecution:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        spec = _spec(points=tuple(range(1, 11)))
        reference = run_campaign(spec, str(tmp_path / "ref.jsonl"))

        ex = SocketShardExecutor(spec, min_workers=2)
        workers = _start_workers(ex.address, 2)
        run = run_campaign(
            spec, str(tmp_path / "net.jsonl"), shard_size=2, executor=ex
        )
        for t in workers:
            t.join(timeout=5.0)

        assert _payload(run) == _payload(reference)
        assert run.stats.executed == 10
        assert run.stats.shards == 5
        assert run.stats.reassigned == 0

    def test_distributed_journal_resumes_serially(self, tmp_path):
        # A journal written over the network is a journal like any
        # other: a serial resume replays it fully.
        spec = _spec()
        journal = str(tmp_path / "net.jsonl")
        ex = SocketShardExecutor(spec)
        workers = _start_workers(ex.address, 1)
        first = run_campaign(spec, journal, executor=ex)
        for t in workers:
            t.join(timeout=5.0)
        resumed = run_campaign(spec, journal, resume=True)
        assert resumed.stats.executed == 0
        assert resumed.stats.replayed == len(spec.points)
        assert _payload(first) == _payload(resumed)

    def test_executor_refuses_after_close(self):
        ex = SocketShardExecutor(_spec())
        ex.close()
        with pytest.raises(ConfigError, match="closed"):
            ex.submit(0, [])


# --------------------------------------------------------------------------
# fault paths: death, hangs, duplicates
# --------------------------------------------------------------------------


def _defecting_client(address, defect_after=1):
    """Speak the worker protocol, then die mid-shard like a SIGKILL.

    Registers, accepts ``defect_after`` shards *without ever returning a
    result*, then slams the connection shut — the exact stream shape a
    killed worker process leaves behind.
    """
    sock = socket.create_connection(address)
    try:
        _send_msg(sock, {"type": "hello", "name": "defector"})
        welcome = _recv_msg(sock)
        assert welcome["type"] == "welcome"
        taken = 0
        while taken < defect_after:
            _send_msg(sock, {"type": "ready"})
            msg = _recv_msg(sock)
            if msg is None:
                return
            if msg["type"] == "shard":
                taken += 1
            elif msg["type"] == "shutdown":
                return
            else:
                time.sleep(0.02)
    finally:
        sock.close()  # mid-protocol: the server sees EOF


class TestWorkerDeath:
    def test_dead_workers_shards_are_reassigned(self, tmp_path):
        spec = _spec(points=tuple(range(1, 9)))
        reference = run_campaign(spec, str(tmp_path / "ref.jsonl"))

        ex = SocketShardExecutor(spec, min_workers=2, backoff_s=0.01)
        defector = threading.Thread(
            target=_defecting_client, args=(ex.address,), daemon=True
        )
        defector.start()
        workers = _start_workers(ex.address, 1)
        run = run_campaign(
            spec, str(tmp_path / "net.jsonl"), shard_size=2, executor=ex
        )
        defector.join(timeout=5.0)
        for t in workers:
            t.join(timeout=5.0)

        assert _payload(run) == _payload(reference)
        assert run.stats.executed == 8  # nothing lost
        assert run.stats.reassigned >= 1  # the defector's shard came back

    def test_hung_workers_lease_expires(self, tmp_path):
        # A worker that takes a shard and goes silent (no result, no
        # heartbeat, but the socket stays open) is detected by lease
        # timeout, not EOF.
        spec = _spec(points=tuple(range(1, 7)))
        ex = SocketShardExecutor(
            spec, min_workers=2, lease_timeout_s=0.4, backoff_s=0.01
        )

        hang_forever = threading.Event()

        def _hung_client():
            sock = socket.create_connection(ex.address)
            try:
                _send_msg(sock, {"type": "hello", "name": "hung"})
                _recv_msg(sock)  # welcome
                while True:  # loop past "wait" until a shard is leased
                    _send_msg(sock, {"type": "ready"})
                    msg = _recv_msg(sock)
                    if msg is None or msg["type"] == "shutdown":
                        return
                    if msg["type"] == "shard":
                        break
                    time.sleep(0.02)
                hang_forever.wait(timeout=10.0)  # never price, never beat
            except OSError:
                pass  # the server cut us off: expected
            finally:
                sock.close()

        hung = threading.Thread(target=_hung_client, daemon=True)
        hung.start()
        workers = _start_workers(ex.address, 1, heartbeat_s=0.1)
        run = run_campaign(
            spec, str(tmp_path / "net.jsonl"), shard_size=2, executor=ex
        )
        hang_forever.set()
        hung.join(timeout=5.0)
        for t in workers:
            t.join(timeout=5.0)

        assert run.stats.executed == 6
        assert run.stats.reassigned >= 1

    def test_heartbeats_keep_slow_shards_leased(self, tmp_path):
        # A *slow* worker heartbeating through a lease shorter than its
        # shard must never lose it: slow is not dead.
        spec = _spec(points=tuple(range(1, 5)))
        ex = SocketShardExecutor(
            spec,
            min_workers=1,
            lease_timeout_s=0.5,
            throttle_s=0.3,  # ~0.6s per 2-point shard > the lease
        )
        workers = _start_workers(ex.address, 1, heartbeat_s=0.1)
        run = run_campaign(
            spec, str(tmp_path / "net.jsonl"), shard_size=2, executor=ex
        )
        for t in workers:
            t.join(timeout=10.0)
        assert run.stats.executed == 4
        assert run.stats.reassigned == 0

    def test_duplicate_deliveries_are_dropped(self):
        from repro.campaign.queue import ShardResult, execute_shard

        spec = _spec(points=(1, 2))
        ex = SocketShardExecutor(spec)
        try:
            shard = [(0, "k0", 1), (1, "k1", 2)]
            ex.submit(0, shard)
            result = execute_shard(spec, 0.0, 0, shard)
            ex._land_result("w0", result)
            ex._land_result("w1", result)  # the lease-expired straggler
            landed = list(ex.completed())
            assert len(landed) == 1
            assert isinstance(landed[0], ShardResult)
            assert ex.duplicates == 1
        finally:
            ex.close()
