"""The serve HTTP layer and the ``repro serve`` CLI daemon.

In-process tests drive the real :class:`ThreadingHTTPServer` through
the ``serve_client`` fixture (ephemeral port, auto-shutdown); the
subprocess tests exercise the full CLI contract — startup banner,
SIGTERM drain with exit 0 (clean) / 4 (jobs force-cancelled), and
journal recovery across a server restart.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import supervise
from repro.serve import store as jobstore
from repro.supervise.journal import JournalError


class BlockingRunner:
    """Runs forever until released (or cancelled cooperatively)."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, spec):
        self.started.set()
        while not self.release.wait(0.002):
            supervise.check("blocking runner")
        return {"ok": True}


RUN_CG = {
    "kind": "run", "workload": "cg", "config": "serial",
    "problem_class": "S",
}


# ----------------------------------------------------------------------
# HTTP layer (in-process)


def test_http_job_lifecycle(serve_client):
    client = serve_client()
    status, health = client.get("/healthz")
    assert status == 200 and health["status"] == "ok"

    status, job = client.post("/jobs", dict(RUN_CG))
    assert status == 202
    assert job["state"] in ("queued", "running", "done")
    assert set(job) >= {"id", "key", "state", "source", "spec"}
    assert job["spec"]["workload"] == "CG"

    final = client.wait(job["id"])
    assert final["state"] == "done"
    assert final["latency_s"] >= 0

    status, result = client.get(f"/jobs/{job['id']}/result")
    assert status == 200
    assert result["state"] == "done"
    assert result["result"]["kind"] == "run"
    assert result["result"]["runtime_seconds"] > 0


def test_http_speedup_and_experiment_jobs(serve_client):
    client = serve_client()
    status, job = client.post("/jobs", {
        "kind": "speedup", "workload": "mg", "config": "ht_off_4_2",
        "problem_class": "S",
    })
    assert status == 202
    final = client.wait(job["id"])
    assert final["state"] == "done"
    _, result = client.get(f"/jobs/{job['id']}/result")
    assert result["result"]["speedup"] > 1.0

    status, job = client.post("/jobs", {
        "kind": "experiment", "experiment": "fig3",
        "problem_class": "S", "workloads": ["cg", "mg"],
    })
    assert status == 202
    final = client.wait(job["id"], timeout_s=60.0)
    assert final["state"] == "done"
    _, result = client.get(f"/jobs/{job['id']}/result")
    payload = result["result"]
    assert payload["experiment"] == "fig3"
    assert set(payload["result"]["table"]["values"]) == {"CG", "MG"}


def test_http_validation_and_unknown_routes(serve_client):
    client = serve_client()
    status, body = client.post("/jobs", {"kind": "dance"})
    assert status == 400 and "unknown job kind" in body["error"]
    status, body = client.post("/jobs", {"kind": "run", "workload": "zz"})
    assert status == 400 and "workload" in body["error"]
    status, body = client.get("/jobs/j999999")
    assert status == 404
    status, body = client.get("/nope")
    assert status == 404
    status, body = client.post("/jobs/abc", dict(RUN_CG))
    assert status == 404
    status, body = client.delete("/jobs/j999999")
    assert status == 404
    # Malformed JSON body is a 400, not a 500.
    req = urllib.request.Request(
        client.base + "/jobs", data=b"{not json", method="POST"
    )
    try:
        urllib.request.urlopen(req, timeout=10)
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as exc:
        assert exc.code == 400


def test_http_result_before_terminal_is_409(serve_client):
    runner = BlockingRunner()
    client = serve_client(runner=runner)
    _, job = client.post("/jobs", dict(RUN_CG))
    assert runner.started.wait(5.0)
    status, body = client.get(f"/jobs/{job['id']}/result")
    assert status == 409
    assert body["state"] in ("queued", "running")
    runner.release.set()
    client.wait(job["id"])
    status, _ = client.get(f"/jobs/{job['id']}/result")
    assert status == 200


def test_http_cancel(serve_client):
    runner = BlockingRunner()
    client = serve_client(runner=runner)
    _, job = client.post("/jobs", dict(RUN_CG))
    assert runner.started.wait(5.0)
    status, cancelled = client.delete(f"/jobs/{job['id']}")
    assert status == 200
    assert cancelled["state"] == "cancelled"
    assert cancelled["reason"] == "client-cancel"
    # Cancelling again: already terminal -> 409.
    status, body = client.delete(f"/jobs/{job['id']}")
    assert status == 409
    status, result = client.get(f"/jobs/{job['id']}/result")
    assert status == 200
    assert result["state"] == "cancelled"


def test_http_failed_job_surfaces_error_payload(serve_client):
    class Exploding:
        def __call__(self, spec):
            raise ValueError("no such simulation")

    client = serve_client(runner=Exploding())
    _, job = client.post("/jobs", dict(RUN_CG))
    final = client.wait(job["id"])
    assert final["state"] == "failed"
    assert final["error"]["error_type"] == "ValueError"
    status, result = client.get(f"/jobs/{job['id']}/result")
    assert status == 200
    assert result["state"] == "failed"
    assert set(result["error"]) == {"error_type", "message", "traceback"}


def test_http_dedup_and_stats_closure(serve_client):
    runner = BlockingRunner()
    client = serve_client(runner=runner, workers=1)
    _, first = client.post("/jobs", dict(RUN_CG))
    assert runner.started.wait(5.0)
    _, dup = client.post("/jobs", dict(RUN_CG))
    assert dup["source"] == "dedup"
    runner.release.set()
    client.wait(first["id"])
    client.wait(dup["id"])
    # Warm resubmission: answered from the result memo.
    _, warm = client.post("/jobs", dict(RUN_CG))
    assert warm["state"] == "done"
    assert warm["source"] == "cache"

    status, stats = client.get("/stats")
    assert status == 200
    c = stats["jobs"]
    assert c["submitted"] == (
        c["done"] + c["failed"] + c["cancelled"]
        + c["queued"] + c["running"]
    )
    assert stats["counters"]["dedup_hits"] == 1
    assert stats["counters"]["cache_hits"] == 1
    assert stats["counters"]["engine_calls"] == 1
    assert stats["latency"]["observed"] == 3


def test_http_evicted_job_answers_404_expired(serve_client, monkeypatch):
    monkeypatch.setattr(jobstore, "MAX_TERMINAL_JOBS", 2)
    runner = BlockingRunner()
    runner.release.set()
    client = serve_client(runner=runner, workers=1)
    ids = []
    for config in ("serial", "ht_on_2_1", "ht_on_4_1", "ht_off_2_2"):
        _, job = client.post("/jobs", {**RUN_CG, "config": config})
        ids.append(client.wait(job["id"])["id"])
    assert len(client.scheduler.store) == 2
    for path in (f"/jobs/{ids[0]}", f"/jobs/{ids[0]}/result"):
        status, body = client.get(path)
        assert status == 404 and "expired" in body["error"], body
    status, body = client.delete(f"/jobs/{ids[1]}")
    assert status == 404 and "expired" in body["error"], body
    status, body = client.get("/jobs/j999999")
    assert status == 404 and "expired" not in body["error"]
    status, body = client.get(f"/jobs/{ids[-1]}/result")
    assert status == 200 and body["result"] == {"ok": True}
    _, stats = client.get("/stats")
    c = stats["jobs"]
    assert c["submitted"] == c["done"] == 4


# ----------------------------------------------------------------------
# Keep-alive transport


def _keep_alive(port):
    import http.client

    return http.client.HTTPConnection("127.0.0.1", port, timeout=10)


def test_each_response_leaves_in_one_send_with_nagle_off(
    serve_client, monkeypatch
):
    import socket

    client = serve_client()
    port = client.app.port
    sends = []

    def spy(name):
        real = getattr(socket.socket, name)

        def wrapper(self, data, *args):
            if self.getsockname()[1] == port:  # the server's end
                sends.append(self.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))
            return real(self, data, *args)
        return wrapper

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name, spy(name))
    conn = _keep_alive(port)
    requests = [("GET", "/healthz", None), ("GET", "/stats", None),
                ("GET", "/jobs/j999999", None), ("GET", "/nope", None),
                ("POST", "/jobs", b"{}")]
    try:
        for method, path, body in requests:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            resp.read()
            assert not resp.will_close
    finally:
        conn.close()
    assert len(sends) == len(requests)
    assert all(sends)


def test_expect_100_continue_is_sent_before_the_body(serve_client):
    import socket

    client = serve_client()
    body = json.dumps({"kind": "bogus"}).encode()
    with socket.create_connection(("127.0.0.1", client.app.port),
                                  timeout=5) as sock:
        sock.sendall(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        )
        assert sock.recv(64).startswith(b"HTTP/1.1 100 ")
        sock.sendall(body)
        assert sock.recv(4096).startswith(b"HTTP/1.1 400 ")


def test_keep_alive_requests_do_not_stall(serve_client):
    """50 sequential requests on one connection: with a delayed-ACK
    stall per response they take >= 2 s; without, a few ms each."""
    client = serve_client()
    conn = _keep_alive(client.app.port)
    try:
        start = time.perf_counter()
        for _ in range(50):
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    assert elapsed < 1.0, f"50 keep-alive requests took {elapsed:.2f} s"


# ----------------------------------------------------------------------
# CLI daemon (subprocess)


def _env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


#: ``repro serve`` whose runner holds every job (cooperatively) until it
#: is cancelled, so a drain always finds work in flight.
_HOLDING_SERVE = """
import sys, threading
from repro import supervise
from repro.cli import main
from repro.serve.runner import JobRunner

def hold(self, spec):
    while not threading.Event().wait(0.002):
        supervise.check("held job")

JobRunner.__call__ = hold
sys.exit(main(sys.argv[1:]))
"""


def _start_server(*extra_args, entry=("-m", "repro")):
    proc = subprocess.Popen(
        [sys.executable, *entry, "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env(),
    )
    banner_lines = []
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner_lines.append(line)
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return proc, int(match.group(1)), banner_lines
    proc.kill()
    raise AssertionError(
        f"server never announced a port: {''.join(banner_lines)}"
    )


def _post_job(port, payload):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/jobs",
        data=json.dumps(payload).encode(), method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as resp:
        return json.loads(resp.read())


@pytest.mark.slow
def test_cli_sigterm_clean_drain_exits_zero(tmp_path):
    proc, port, _ = _start_server("--state-dir", str(tmp_path))
    try:
        job = _post_job(port, dict(RUN_CG))
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if _get(port, f"/jobs/{job['id']}")["state"] == "done":
                break
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0, out
    assert "draining" in out
    state = jobstore.load_jobs_journal(
        tmp_path / jobstore.JOBS_JOURNAL_NAME
    )
    assert state.clean_shutdown
    assert not state.resumable
    assert state.jobs[job["id"]].state == jobstore.DONE


@pytest.mark.slow
def test_cli_sigterm_with_inflight_jobs_exits_four(tmp_path):
    proc, port, _ = _start_server(
        "--state-dir", str(tmp_path), "--workers", "1",
        "--drain-timeout", "0.05", entry=("-c", _HOLDING_SERVE),
    )
    try:
        # One job held running by the worker, one queued behind it:
        # neither can finish inside the 50 ms grace, on any host.
        running = _post_job(port, dict(RUN_CG))
        _post_job(port, {**RUN_CG, "config": "ht_on_4_1"})
        deadline = time.monotonic() + 20.0
        while _get(port, f"/jobs/{running['id']}")["state"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 4, out
    assert "cancelled" in out
    state = jobstore.load_jobs_journal(
        tmp_path / jobstore.JOBS_JOURNAL_NAME
    )
    assert state.clean_shutdown and state.drain_cancelled == 2
    # The drain left every job terminal — nothing half-open.
    assert not state.resumable
    cancelled = [
        j for j in state.jobs.values()
        if j.state == jobstore.CANCELLED
    ]
    assert len(cancelled) == 2


@pytest.mark.slow
def test_cli_recovers_unfinished_jobs_from_previous_journal(tmp_path):
    # A previous server's journal with one job that never finished.
    spec = {
        "kind": "run", "machine": "paxville",
        "machine_fingerprint": "x", "problem_class": "S",
        "scheduler": "linux_default", "workload": "CG",
        "config": "serial",
    }
    (tmp_path / jobstore.JOBS_JOURNAL_NAME).write_text(
        json.dumps({"event": "server-started", "schema": 1}) + "\n"
        + json.dumps({
            "event": "submitted", "job": "j000001", "key": "k",
            "spec": spec, "source": "executed",
        }) + "\n"
        + json.dumps({
            "event": "state", "job": "j000001", "state": "running",
        }) + "\n"
    )
    proc, port, banner = _start_server("--state-dir", str(tmp_path))
    try:
        assert any("recovered 1 unfinished job(s)" in ln for ln in banner)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            stats = _get(port, "/stats")
            if stats["jobs"]["done"] == 1:
                break
            time.sleep(0.01)
        assert stats["jobs"]["submitted"] == 1
        assert stats["jobs"]["done"] == 1
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0, out


def test_cli_serve_rejects_bad_flags():
    for args, fragment in (
        (["serve", "--port", "99999"], "port must be"),
        (["serve", "--workers", "0"], "must be >= 1"),
        (["serve", "--job-timeout", "-1"], "must be > 0"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=_env(), timeout=60,
        )
        assert proc.returncode == 2, (args, proc.stderr)
        assert fragment in proc.stderr, (args, proc.stderr)


def test_cli_serve_bounds_the_run_cache_memory_tier(monkeypatch):
    from repro import cli
    from repro.core import runcache
    from repro.serve import app, runner

    seen = {}

    def fake_serve_forever(scheduler, **kwargs):
        seen["bound"] = runcache.get_cache().max_memory_entries
        scheduler.shutdown(0)
        return 0

    monkeypatch.setattr(app, "serve_forever", fake_serve_forever)
    runcache.configure(reset=True)
    try:
        assert cli.main(["serve", "--port", "0"]) == 0
    finally:
        runcache.configure(reset=True)
    assert seen["bound"] == runner.MEMORY_TIER_RUNS


_SUBMITTED = json.dumps({"event": "submitted", "job": "j000001", "key": "k"})


@pytest.mark.parametrize("lines, fragment", [
    (["[1, 2]"], "not a record object"),
    ([json.dumps({"event": "server-started", "schema": "2"})], "schema '2'"),
    ([json.dumps({"event": "submitted", "key": "k"})], "has no job id"),
    ([_SUBMITTED, "{torn", _SUBMITTED], "line 2 is corrupt"),
    ([json.dumps({"event": "submitted", "job": "j000001", "key": "k",
                  "spec": "oops"})], "has no spec object"),
    ([_SUBMITTED, json.dumps({"event": "state", "job": "j000001",
                              "state": "bogus"})],
     "line 2: state record has no lifecycle state"),
], ids=["non-object", "string-schema", "submitted-without-job", "corrupt-middle",
        "non-object-spec", "unknown-state"])
def test_cli_serve_rejects_malformed_journal(
    tmp_path, monkeypatch, capsys, lines, fragment
):
    from repro import cli
    from repro.core import runcache
    from repro.serve import app

    journal = tmp_path / jobstore.JOBS_JOURNAL_NAME
    journal.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(JournalError, match=fragment):
        jobstore.load_jobs_journal(journal)
    # A journal that slipped through must not start a blocking server.
    monkeypatch.setattr(app, "serve_forever", lambda scheduler, **kw: 0)
    try:
        code = cli.main(["serve", "--port", "0", "--state-dir", str(tmp_path)])
    finally:
        runcache.configure(reset=True)
    assert code == 2
    assert fragment in capsys.readouterr().err


def test_serve_journal_tolerates_a_torn_final_line(tmp_path):
    journal = tmp_path / jobstore.JOBS_JOURNAL_NAME
    journal.write_text(_SUBMITTED + "\n" + '{"event": "sta')
    state = jobstore.load_jobs_journal(journal)
    assert list(state.jobs) == ["j000001"]
    assert state.resumable
