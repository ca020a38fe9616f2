"""Multi-host shard execution over TCP: the socket executor and worker.

The paper's rack-scale campaigns (Figs 20-27) sweep far more points than
one host's process pool should price.  :class:`SocketShardExecutor` is
the :class:`~repro.campaign.queue.ShardExecutor` that fans shards over
the network instead: it listens on a TCP port, remote worker processes
(``repro campaign worker --connect HOST:PORT``) register, and shards are
leased out one at a time per worker.  Everything on the wire is the same
picklable ``(spec, shard)`` payload the process pool ships, framed as
length-prefixed pickles.

Fault model — workers are expendable, results are not:

* **Leases** — a dispatched shard carries a deadline.  A worker that
  neither finishes nor heartbeats before it is presumed hung; its
  connection is closed and the shard is requeued.
* **Heartbeats** — workers heartbeat mid-shard, so a *slow* shard never
  expires its lease while a *dead* worker cannot renew one.
* **Crash detection** — a worker that dies outright (``SIGKILL``, power
  loss) closes its TCP stream; the server requeues its lease on EOF
  immediately, without waiting out the lease.
* **Exponential backoff** — each reassignment of one shard waits
  ``backoff_s * 2**(assignments - 1)`` before redispatch, so a shard
  that kills workers cannot hot-loop through the fleet.
* **First result wins** — a lease-expired worker may still deliver (it
  was slow, not dead).  Duplicate deliveries are counted and dropped;
  :meth:`~SocketShardExecutor.completed` yields every shard exactly
  once, so the journal sees zero duplicate points.

Determinism is untouched: workers only run
:func:`~repro.campaign.queue.execute_shard` on the pickled spec, so a
point prices identically on any host and the campaign's
``results_payload()`` stays byte-identical to a serial run — the CI
worker-kill gate (``benchmarks/bench_campaign.py``) proves it with a
real ``SIGKILL``.

Observability: dispatches, deaths, and reassignments land as
``campaign.net.dispatch`` instants and each delivered shard as one
``campaign.net.shard`` span, on the same tracer lanes as local runs.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.campaign.queue import Shard, ShardExecutor, ShardResult, execute_shard
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigError
from repro.obs.tracer import Tracer

__all__ = ["SocketShardExecutor", "run_worker", "parse_address"]

#: Upper bound on one framed message; a frame claiming more is garbage.
_MAX_FRAME = 64 * 1024 * 1024
_HEADER = struct.Struct(">I")


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``, with a helpful ConfigError."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"address {text!r} is not HOST:PORT")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(f"address {text!r} has a non-numeric port") from None


# ==========================================================================
# Wire framing: length-prefixed pickles
# ==========================================================================


def _send_msg(
    sock: socket.socket,
    msg: Dict[str, Any],
    lock: Optional[threading.Lock] = None,
) -> None:
    data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    frame = _HEADER.pack(len(data)) + data
    if lock is not None:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None  # orderly EOF or death mid-frame: same treatment
        buf += chunk
    return buf


def _recv_msg(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """One framed message, or ``None`` when the peer is gone."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise ConfigError(f"refusing a {length}-byte frame (corrupt stream?)")
    body = _recv_exact(sock, length)
    if body is None:
        return None
    msg = pickle.loads(body)
    if not isinstance(msg, dict) or "type" not in msg:
        raise ConfigError("malformed protocol message (no type)")
    return msg


# ==========================================================================
# Server side: the executor
# ==========================================================================


class _Lease:
    """One dispatched shard: who holds it and until when."""

    __slots__ = ("shard", "worker", "deadline", "assignments", "t0")

    def __init__(
        self, shard: Shard, worker: str, deadline: float, assignments: int
    ):
        self.shard = shard
        self.worker = worker
        self.deadline = deadline
        self.assignments = assignments
        self.t0 = time.perf_counter()


class SocketShardExecutor(ShardExecutor):
    """Serve shards to remote ``repro campaign worker`` processes.

    Drops into :func:`~repro.campaign.runner.run_campaign` via its
    ``executor=`` parameter.
    Binds immediately on construction — ``.address`` is the
    ``(host, port)`` workers connect to, available before any worker
    exists.  ``min_workers`` holds dispatch until that many workers
    have registered, so a benchmark can stage its fleet first.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        min_workers: int = 1,
        lease_timeout_s: float = 30.0,
        backoff_s: float = 0.05,
        throttle_s: float = 0.0,
        tracer: Optional[Tracer] = None,
    ):
        if min_workers < 1:
            raise ConfigError("min_workers must be >= 1")
        if lease_timeout_s <= 0.0:
            raise ConfigError("lease_timeout_s must be positive")
        self._spec = spec
        self._min_workers = min_workers
        self._lease_timeout_s = lease_timeout_s
        self._backoff_s = backoff_s
        self._throttle_s = throttle_s
        self.tracer = tracer

        self._lock = threading.Lock()
        # (shard_index, shard, assignments, eligible_at) awaiting dispatch.
        self._pending: deque = deque()
        self._leases: Dict[int, _Lease] = {}
        self._done: set = set()
        self._results: deque = deque()
        self._results_ready = threading.Condition(self._lock)
        self._submitted = 0
        self._workers: Dict[str, socket.socket] = {}
        self._fleet_staged = False  # min_workers ever reached?
        self._closing = False

        #: Shards redispatched after a worker died or lost its lease.
        self.reassigned = 0
        #: Late duplicate deliveries dropped (first result won).
        self.duplicates = 0

        self._server = socket.create_server((host, port))
        self._server.settimeout(0.2)
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="campaign-net-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._lease_monitor, name="campaign-net-leases", daemon=True
        )
        self._monitor_thread.start()

    # ------------------------------------------------------ executor API

    def submit(self, shard_index: int, shard: Shard) -> None:
        with self._lock:
            if self._closing:
                raise ConfigError("executor is closed")
            self._pending.append((shard_index, shard, 0, 0.0))
            self._submitted += 1

    def completed(self) -> Iterator[ShardResult]:
        while True:
            with self._results_ready:
                while not self._results:
                    if len(self._done) >= self._submitted:
                        return
                    self._results_ready.wait(timeout=0.5)
                result = self._results.popleft()
            yield result
            with self._lock:
                if len(self._done) >= self._submitted and not self._results:
                    return

    def close(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
            workers = list(self._workers.values())
        try:
            self._server.close()
        except OSError:
            pass
        for sock in workers:
            try:
                sock.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=2.0)
        self._monitor_thread.join(timeout=2.0)
        for t in self._threads:
            t.join(timeout=2.0)

    # -------------------------------------------------------- accept side

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            conn.settimeout(None)
            t = threading.Thread(
                target=self._serve_worker,
                args=(conn,),
                name="campaign-net-worker",
                daemon=True,
            )
            self._threads.append(t)
            t.start()

    def _serve_worker(self, conn: socket.socket) -> None:
        name = None
        try:
            hello = _recv_msg(conn)
            if hello is None or hello.get("type") != "hello":
                return
            with self._lock:
                base = str(hello.get("name") or "worker")
                name = base
                n = 1
                while name in self._workers:
                    n += 1
                    name = f"{base}-{n}"
                self._workers[name] = conn
            _send_msg(
                conn,
                {
                    "type": "welcome",
                    "name": name,
                    "spec": self._spec,
                    "throttle_s": self._throttle_s,
                    "campaign": self._spec.fingerprint(),
                },
            )
            while True:
                msg = _recv_msg(conn)
                if msg is None:
                    return
                kind = msg["type"]
                if kind == "heartbeat":
                    self._renew_leases(name)
                elif kind == "result":
                    self._land_result(name, msg["result"])
                elif kind == "ready":
                    reply = self._next_assignment(name)
                    _send_msg(conn, reply)
                    if reply["type"] == "shutdown":
                        return
        except (OSError, ConfigError, pickle.UnpicklingError, EOFError):
            return  # a broken worker is a dead worker
        finally:
            self._reap_worker(name, conn)

    # ----------------------------------------------------- dispatch logic

    def _next_assignment(self, worker: str) -> Dict[str, Any]:
        """Decide what ``worker`` does next (called with no lock held)."""
        with self._lock:
            # Note `_submitted > 0`: a worker that registers before the
            # runner submits anything must wait, not be shut down.
            if self._closing or (
                self._submitted > 0 and len(self._done) >= self._submitted
            ):
                return {"type": "shutdown"}
            # A *startup* gate only: once the fleet was ever staged,
            # dispatch continues even as workers die off — the last
            # survivor must be able to drain the queue alone.
            if not self._fleet_staged:
                if len(self._workers) < self._min_workers:
                    return {"type": "wait", "for_s": 0.05}
                self._fleet_staged = True
            now = time.monotonic()
            for _ in range(len(self._pending)):
                shard_index, shard, assignments, eligible_at = (
                    self._pending.popleft()
                )
                if shard_index in self._done:
                    continue  # a late duplicate landed while it was queued
                if eligible_at > now:
                    self._pending.append(
                        (shard_index, shard, assignments, eligible_at)
                    )
                    continue
                self._leases[shard_index] = _Lease(
                    shard=shard,
                    worker=worker,
                    deadline=now + self._lease_timeout_s,
                    assignments=assignments + 1,
                )
                tracer = self.tracer
                if tracer is not None:
                    tracer.instant(
                        f"dispatch shard{shard_index} -> {worker}",
                        cat="campaign.net.dispatch",
                        pid=f"campaign.{self._spec.name}",
                        tid=f"net.{worker}",
                        args={
                            "shard": shard_index,
                            "points": len(shard),
                            "assignment": assignments + 1,
                        },
                    )
                return {
                    "type": "shard",
                    "shard_index": shard_index,
                    "shard": shard,
                    "lease_s": self._lease_timeout_s,
                }
            # Nothing dispatchable right now: backlog in backoff, or all
            # in flight elsewhere.  The worker naps and asks again.
            return {"type": "wait", "for_s": 0.05}

    def _land_result(self, worker: str, result: ShardResult) -> None:
        with self._results_ready:
            lease = self._leases.pop(result.shard_index, None)
            if result.shard_index in self._done:
                self.duplicates += 1  # first result already won
                return
            # The lease may have expired and the shard requeued; this
            # delivery still wins — drop the stale pending copy.
            self._drop_pending(result.shard_index)
            self._done.add(result.shard_index)
            self._results.append(result)
            self._results_ready.notify_all()
            tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                f"shard{result.shard_index} @ {worker}",
                cat="campaign.net.shard",
                pid=f"campaign.{self._spec.name}",
                tid=f"net.{worker}",
                ts=0.0,
                dur=result.wall_s,
                args={
                    "shard": result.shard_index,
                    "points": len(result.records),
                    "assignments": lease.assignments if lease else 1,
                    "wall_s": result.wall_s,
                },
            )

    def _drop_pending(self, shard_index: int) -> None:
        """Remove a shard from the pending queue (lock already held)."""
        self._pending = deque(
            item for item in self._pending if item[0] != shard_index
        )

    def _requeue(self, shard_index: int, lease: _Lease, why: str) -> None:
        """Give a lost lease back to the queue with backoff (lock held)."""
        if shard_index in self._done:
            return
        self.reassigned += 1
        delay = self._backoff_s * (2 ** (lease.assignments - 1))
        self._pending.append(
            (shard_index, lease.shard, lease.assignments, time.monotonic() + delay)
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"requeue shard{shard_index} ({why})",
                cat="campaign.net.dispatch",
                pid=f"campaign.{self._spec.name}",
                tid=f"net.{lease.worker}",
                args={
                    "shard": shard_index,
                    "why": why,
                    "assignments": lease.assignments,
                    "backoff_s": delay,
                },
            )

    def _renew_leases(self, worker: str) -> None:
        with self._lock:
            deadline = time.monotonic() + self._lease_timeout_s
            for lease in self._leases.values():
                if lease.worker == worker:
                    lease.deadline = deadline

    def _reap_worker(self, name: Optional[str], conn: socket.socket) -> None:
        """A worker's stream ended: requeue everything it still held."""
        with self._results_ready:
            if name is not None and self._workers.get(name) is conn:
                del self._workers[name]
            if name is not None and not self._closing:
                for shard_index in [
                    i for i, l in self._leases.items() if l.worker == name
                ]:
                    self._requeue(
                        shard_index, self._leases.pop(shard_index), "worker died"
                    )
            self._results_ready.notify_all()
        try:
            conn.close()
        except OSError:
            pass

    def _lease_monitor(self) -> None:
        """Expire leases of hung workers (dead ones are caught by EOF)."""
        while not self._closing:
            time.sleep(min(0.2, self._lease_timeout_s / 4.0))
            with self._results_ready:
                now = time.monotonic()
                expired = [
                    (i, lease)
                    for i, lease in self._leases.items()
                    if lease.deadline < now
                ]
                for shard_index, lease in expired:
                    del self._leases[shard_index]
                    self._requeue(shard_index, lease, "lease expired")
                    # A worker that lost its lease is presumed hung: cut
                    # the connection so its handler reaps any siblings.
                    stale = self._workers.get(lease.worker)
                    if stale is not None:
                        try:
                            stale.close()
                        except OSError:
                            pass
                if expired:
                    self._results_ready.notify_all()


# ==========================================================================
# Worker side
# ==========================================================================


def run_worker(
    host: str,
    port: int,
    name: Optional[str] = None,
    heartbeat_s: float = 2.0,
    connect_retry_s: float = 10.0,
) -> int:
    """Serve shards from ``host:port`` until the server says shutdown.

    Connects (retrying for ``connect_retry_s`` — the server may still be
    binding), registers, then loops ready -> shard -> result.  A
    background thread heartbeats every ``heartbeat_s`` while a shard is
    executing so a slow shard never loses its lease.  Returns the number
    of shards executed; a vanished server ends the worker quietly (the
    campaign is over, or it will reassign our lease — either way the
    journal is safe).
    """
    sock = _connect(host, port, connect_retry_s)
    send_lock = threading.Lock()
    executed = 0
    stop_heartbeat = threading.Event()

    def _heartbeat() -> None:
        while not stop_heartbeat.wait(heartbeat_s):
            try:
                _send_msg(sock, {"type": "heartbeat"}, lock=send_lock)
            except OSError:
                return

    beat = threading.Thread(target=_heartbeat, name="worker-heartbeat", daemon=True)
    try:
        _send_msg(sock, {"type": "hello", "name": name}, lock=send_lock)
        welcome = _recv_msg(sock)
        if welcome is None or welcome.get("type") != "welcome":
            raise ConfigError(
                f"{host}:{port} did not welcome us (not a campaign server?)"
            )
        spec: CampaignSpec = welcome["spec"]
        throttle_s: float = welcome.get("throttle_s", 0.0)
        beat.start()
        while True:
            _send_msg(sock, {"type": "ready"}, lock=send_lock)
            msg = _recv_msg(sock)
            if msg is None or msg["type"] == "shutdown":
                return executed
            if msg["type"] == "wait":
                time.sleep(msg.get("for_s", 0.05))
                continue
            if msg["type"] != "shard":
                raise ConfigError(f"unexpected message {msg['type']!r}")
            result = execute_shard(
                spec, throttle_s, msg["shard_index"], msg["shard"]
            )
            _send_msg(sock, {"type": "result", "result": result}, lock=send_lock)
            executed += 1
    except OSError:
        return executed  # server gone: nothing left to serve
    finally:
        stop_heartbeat.set()
        try:
            sock.close()
        except OSError:
            pass


def _connect(host: str, port: int, retry_s: float) -> socket.socket:
    deadline = time.monotonic() + retry_s
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)  # the protocol blocks on recv by design
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise ConfigError(
                    f"no campaign server at {host}:{port} after {retry_s:.0f}s"
                ) from None
            time.sleep(0.1)
