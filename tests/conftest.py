"""Shared test configuration: Hypothesis profiles and common fixtures.

Hypothesis profiles (satellite of the correctness-harness PR):

* ``ci`` — derandomized (fixed seed) with the deadline off, so property
  tests are deterministic in CI: same examples every run, no flakes
  from machine speed.  Selected with ``HYPOTHESIS_PROFILE=ci``.
* ``dev`` — the default locally: randomized exploration (new examples
  every run) with the deadline off (simulation-backed properties are
  far slower than Hypothesis' 200 ms default budget expects).

To reproduce a ``dev``-profile failure, copy the ``@reproduce_failure``
decorator (or the seed) Hypothesis prints with the failing example —
see ``docs/TESTING.md``.

Shared fixtures live here instead of being re-declared per test module:
``study`` (the memoized class-B study), ``fail_plan``/``strip_timings``
(fault-drill helpers), and the autouse ``clean_runtime_switches`` that
keeps the environment and the process-wide supervision state from
leaking between tests.
"""

import json
import os

import pytest
from hypothesis import settings

from repro.core.study import Study
from repro.testing import faults
from repro.testing.faults import FaultPlan

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="module")
def study():
    """The shared class-B study (memoized workloads + run cache)."""
    return Study("B")


@pytest.fixture(autouse=True)
def clean_runtime_switches(monkeypatch):
    """Isolate the runtime switches' fallbacks between tests.

    The switches themselves live on the active ``RunContext`` and end
    with the ``with`` block that set them; what remains process-wide is
    the environment — an externally-set ``REPRO_FAULTS``/
    ``REPRO_VERIFY``/``REPRO_BATCH``/``REPRO_TIMEOUT`` must not leak
    in — and the process cancel token and circuit breakers, which
    ``supervise.reset()`` clears on both sides.
    """
    from repro import supervise, verify
    from repro.sim import batch

    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(verify.VERIFY_ENV, raising=False)
    monkeypatch.delenv(batch.BATCH_ENV, raising=False)
    monkeypatch.delenv(supervise.TIMEOUT_ENV, raising=False)
    monkeypatch.delenv(supervise.EXPERIMENT_TIMEOUT_ENV, raising=False)
    monkeypatch.delenv(supervise.JOURNAL_ENV, raising=False)
    for key in [k for k in os.environ if k.startswith("REPRO_SERVE_")]:
        monkeypatch.delenv(key, raising=False)
    supervise.reset()
    yield
    supervise.reset()


@pytest.fixture
def serve_client():
    """An in-process serve daemon on an ephemeral port, auto-shutdown.

    Yields a small client wrapper around the running :class:`ServeApp`
    (fast class-S jobs by default keep the HTTP tests snappy); the
    daemon is drained and its socket released at teardown even when the
    test fails.
    """
    import json as _json
    import urllib.error
    import urllib.request

    from repro.serve import Scheduler, ServeApp

    class _Client:
        def __init__(self, app):
            self.app = app
            self.scheduler = app.scheduler
            self.base = app.url

        def request(self, method, path, payload=None):
            data = (
                None if payload is None
                else _json.dumps(payload).encode()
            )
            req = urllib.request.Request(
                self.base + path, data=data, method=method,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return resp.status, _json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                return exc.code, _json.loads(exc.read())

        def get(self, path):
            return self.request("GET", path)

        def post(self, path, payload):
            return self.request("POST", path, payload)

        def delete(self, path):
            return self.request("DELETE", path)

        def wait(self, job_id, timeout_s=30.0):
            """Poll a job to a terminal state; returns its record."""
            import time as _time

            deadline = _time.monotonic() + timeout_s
            while _time.monotonic() < deadline:
                status, job = self.get(f"/jobs/{job_id}")
                assert status == 200, (status, job)
                if job["state"] in ("done", "failed", "cancelled"):
                    return job
                _time.sleep(0.005)
            raise AssertionError(f"job {job_id} did not settle")

    apps = []

    def _make(**scheduler_kwargs):
        scheduler_kwargs.setdefault("workers", 2)
        app = ServeApp(Scheduler(**scheduler_kwargs)).start()
        apps.append(app)
        return _Client(app)

    yield _make
    for app in apps:
        app.close(drain_timeout_s=1.0)


@pytest.fixture
def fail_plan():
    """Factory for a plan failing the given experiment ids."""
    def _fail(*ids):
        return FaultPlan(fail_experiments={i: "" for i in ids})
    return _fail


@pytest.fixture
def strip_timings():
    """A manifest with every timing/cache counter removed — the part
    that must be byte-identical between a clean and a resumed run."""
    def _strip(manifest):
        m = json.loads(json.dumps(manifest))
        m.pop("cache")
        m.pop("total_wall_time_s")
        for entry in m["experiments"].values():
            entry.pop("wall_time_s")
            entry.pop("cache")
        return m
    return _strip
