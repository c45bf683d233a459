"""HTTP load generator for ``repro serve``: one process, at most
``nproc`` client threads, each with one persistent HTTP/1.1 connection.

Jobs come from a seeded op stream.  A ``pair`` op is one identical
submission sent on two connections at once (both client threads meet
at a barrier first), which is how the stream exercises dedup.  Every
job is polled to a terminal state through ``GET /jobs/<id>/result``,
which also fetches the answer the benchmark checks afterwards.

A closed loop sends a client's next job when its previous one is
terminal.  An open loop sends each job at its due time; its submit
latency is timed from that due time, so a stalled client's backlog
counts, and how late each send was is recorded.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Poll back-off for jobs still queued or running (seconds).
POLL_FIRST_S = 0.0005
POLL_MAX_S = 0.005


class TransportError(RuntimeError):
    pass


class Client:
    """One persistent connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str,
                payload: Any = None) -> Tuple[int, Any]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            raw = resp.read()
            return resp.status, json.loads(raw) if raw else None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=30)
            raise TransportError(f"{method} {path}: {exc!r}") from None

    def close(self) -> None:
        self.conn.close()


@dataclass
class Op:
    """One scheduled job submission."""

    payload: Dict[str, Any]
    #: ``warm``, ``fresh`` or ``pair``.
    kind: str
    #: Seconds after the phase start (open loop only).
    due: float = 0.0
    barrier: Optional[threading.Barrier] = None


@dataclass
class PhaseStats:
    """Client-side counts and samples of one phase (or one thread of
    it; :meth:`absorb` merges)."""

    submit_ms: List[float] = field(default_factory=list)
    job_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    jobs: int = 0
    completed: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    posts: int = 0
    gets: int = 0
    post_rtt_s: float = 0.0
    elapsed_s: float = 0.0
    #: Canonical payload -> distinct result payloads seen for it.
    answers: Dict[str, List[Any]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, cause: str) -> None:
        self.failures[cause] = self.failures.get(cause, 0) + 1

    def absorb(self, other: "PhaseStats") -> None:
        self.submit_ms += other.submit_ms
        self.job_ms += other.job_ms
        self.late_ms += other.late_ms
        self.jobs += other.jobs
        self.completed += other.completed
        for cause, n in other.failures.items():
            self.failures[cause] = self.failures.get(cause, 0) + n
        self.posts += other.posts
        self.gets += other.gets
        self.post_rtt_s += other.post_rtt_s
        for key, results in other.answers.items():
            mine = self.answers.setdefault(key, [])
            mine.extend(r for r in results if r not in mine)


def payload_key(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)


class _Feed:
    """Hands ops to client threads in stream order.  The partner of a
    pair op is handed to the next thread asking, before anything else,
    even past the deadline, so no barrier is left waiting."""

    def __init__(self, ops: Iterator[Op], deadline: Optional[float]):
        self._ops = ops
        self._deadline = deadline
        self._partner: Optional[Op] = None
        self._lock = threading.Lock()

    def next(self) -> Optional[Op]:
        with self._lock:
            if self._partner is not None:
                op, self._partner = self._partner, None
                return op
            if self._deadline is not None and \
                    time.perf_counter() >= self._deadline:
                return None
            op = next(self._ops, None)
            if op is not None and op.kind == "pair":
                op.barrier = threading.Barrier(2)
                self._partner = op
            return op


def _do_job(client: Client, op: Op, due_at: Optional[float],
            st: PhaseStats) -> None:
    st.jobs += 1
    t_send = time.perf_counter()
    if due_at is not None:
        st.late_ms.append(max(0.0, t_send - due_at) * 1e3)
    try:
        status, body = client.request("POST", "/jobs", op.payload)
    except TransportError:
        st.fail("transport")
        return
    t_ack = time.perf_counter()
    st.posts += 1
    st.post_rtt_s += t_ack - t_send
    job_id = body.get("id") if isinstance(body, dict) else None
    if status != 202 or job_id is None:
        st.fail(f"http {status}")
        return
    st.submit_ms.append((t_ack - (t_send if due_at is None else due_at)) * 1e3)
    path = f"/jobs/{job_id}/result"
    delay = POLL_FIRST_S
    while True:
        try:
            status, body = client.request("GET", path)
        except TransportError:
            st.fail("transport")
            return
        st.gets += 1
        if status == 200:
            break
        if status != 409:
            st.fail(f"http {status}")
            return
        time.sleep(delay)
        delay = min(2 * delay, POLL_MAX_S)
    st.job_ms.append((time.perf_counter() - t_send) * 1e3)
    if body.get("state") != "done":
        st.fail(f"job {body.get('state')}")
        return
    st.completed += 1
    seen = st.answers.setdefault(payload_key(op.payload), [])
    if body["result"] not in seen:
        seen.append(body["result"])


def run_phase(clients: List[Client], ops: Iterator[Op], *,
              open_loop: bool, seconds: Optional[float]) -> PhaseStats:
    """Drive ``ops`` through ``clients`` (one thread each).  A closed
    loop stops taking ops after ``seconds``; an open loop (and a closed
    loop with ``seconds=None``) runs the stream to its end."""
    start = time.perf_counter()
    feed = _Feed(ops, None if open_loop or seconds is None
                 else start + seconds)
    per_thread = [PhaseStats() for _ in clients]

    def worker(client: Client, st: PhaseStats) -> None:
        while True:
            op = feed.next()
            if op is None:
                return
            due_at = start + op.due if open_loop else None
            if due_at is not None:
                wait = due_at - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            if op.barrier is not None:
                try:
                    op.barrier.wait(timeout=30)
                except threading.BrokenBarrierError:
                    st.jobs += 1
                    st.fail("barrier")
                    continue
            try:
                _do_job(client, op, due_at, st)
            except Exception as exc:  # a malformed reply fails the job
                st.fail(f"client {type(exc).__name__}")

    threads = [threading.Thread(target=worker, args=(c, s), daemon=True)
               for c, s in zip(clients, per_thread)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = PhaseStats()
    for st in per_thread:
        total.absorb(st)
    total.elapsed_s = time.perf_counter() - start
    return total
