"""The active RunContext: per-thread, per-job runtime state.

Every runtime switch and every piece of per-task state (task deadline
and cancel token) lives on the ``RunContext`` held in one
``ContextVar``.  These tests pin the
property that made that necessary: concurrent work — two threads, two
``repro serve`` jobs — never sees or clobbers another's state.  They
are timing-dependent by nature, so CI runs this module 20 times.
"""

import sys
import threading
import time

import pytest

from repro import supervise
from repro.core import runcache
from repro.core.context import current, override
from repro.core.study import Study
from repro.serve import store as jobstore
from repro.serve.runner import JobRunner
from repro.serve.schema import parse_job
from repro.serve.scheduler import Scheduler
from tests.oracles.runs import assert_identical_runs

WAIT_S = 30.0


def _job(experiment):
    return {"kind": "experiment", "experiment": experiment,
            "problem_class": "S"}


def _run(config):
    return {"kind": "run", "workload": "cg", "config": config,
            "problem_class": "S"}


#: Per thread (more threads than CI runners have cores): (configuration,
#: workloads) runs; one workload is a single run, two a pair.  The
#: threads share one engine per configuration (so one resolver and one
#: structure cache) but run different workloads on it at once.
_PLANS = (
    [("ht_on_8_2", ("cg",)), ("ht_off_4_2", ("mg", "ft")),
     ("ht_on_4_1", ("sp",)), ("ht_on_8_2", ("is",))],
    [("ht_off_4_2", ("ft",)), ("ht_on_8_2", ("cg", "sp")),
     ("ht_on_8_2", ("mg",)), ("ht_on_4_1", ("lu", "ep"))],
    [("ht_on_4_1", ("bt",)), ("ht_on_8_2", ("ep", "lu")),
     ("ht_off_4_2", ("cg",)), ("ht_off_4_2", ("sp", "is"))],
)


def _engine_runs(study, engines, plan):
    """Run ``plan`` on ``engines`` (one per configuration, no cache)."""
    out = []
    for config, names in plan:
        engine = engines[config]
        workloads = [study.workload(n) for n in names]
        out.append(engine.run_pair(*workloads) if len(workloads) == 2
                   else engine.run_single(workloads[0]))
    return out


def test_threads_sharing_engines_match_sequential_runs():
    """Threads drive one study's shared engines with different workloads
    and configurations at once; every result equals the same run made
    sequentially on fresh engines."""
    configs = {config for plan in _PLANS for config, _ in plan}
    study = Study("S")

    def fresh_engines():
        return {config: study.engine(config) for config in configs}

    with override(verify=False):
        want = [_engine_runs(study, fresh_engines(), plan) for plan in _PLANS]
    shared = fresh_engines()
    barrier = threading.Barrier(len(_PLANS))
    got = [[] for _ in _PLANS]

    def drive(i):
        with override(verify=False):
            barrier.wait(WAIT_S)
            for _ in range(3):
                got[i].append(_engine_runs(study, shared, _PLANS[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(_PLANS))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT_S)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for i, plan in enumerate(_PLANS):
        assert len(got[i]) == 3
        for repeat in got[i]:
            for (config, names), a, b in zip(plan, repeat, want[i]):
                assert_identical_runs(a, b, f"{config}/{names}")


class _MeetingRunner:
    """The engine-backed runner.  Concurrent callers meet at a barrier
    first, so their sweeps really overlap."""

    def __init__(self, parties):
        self.runner = JobRunner()
        self.barrier = threading.Barrier(parties)

    def __call__(self, spec):
        self.barrier.wait(WAIT_S)
        return self.runner(spec)


def _through_scheduler(payloads, workers):
    scheduler = Scheduler(
        workers=workers, runner=_MeetingRunner(len(payloads))
    )
    try:
        jobs = [scheduler.submit(p) for p in payloads]
        return [_settle(scheduler, job) for job in jobs]
    finally:
        scheduler.shutdown(timeout_s=WAIT_S)


def _settle(scheduler, job):
    deadline = time.monotonic() + WAIT_S
    while time.monotonic() < deadline:
        final = scheduler.get(job.id)
        if final.terminal:
            assert final.state == jobstore.DONE, final.error
            return scheduler.result(job.id)
        time.sleep(0.005)
    raise AssertionError(f"job {job.id} never settled")


@pytest.fixture
def cache_off():
    """Each sweep must simulate its own runs, not read the other's."""
    runcache.configure(reset=True, enabled=False)
    yield
    runcache.configure(reset=True, enabled=True)


def test_concurrent_sweep_jobs_match_the_same_sweeps_alone(cache_off):
    """A sensitivity and a class-scaling job on a 2-worker scheduler
    return exactly what each returns alone."""
    payloads = [_job("sensitivity"), _job("class-scaling")]
    # The scheduler captures the context it is built in.
    with override(verify=False):
        solo = [_through_scheduler([p], workers=1)[0] for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two sweeps finely
        try:
            together = _through_scheduler(payloads, workers=2)
        finally:
            sys.setswitchinterval(interval)
    assert together == solo
    assert current() is None


class _HeldRunner:
    """Holds each job (cooperatively) until released, then runs it."""

    def __init__(self):
        self.runner = JobRunner()
        self.running = threading.Semaphore(0)
        self.release = threading.Event()

    def __call__(self, spec):
        self.running.release()
        while not self.release.wait(0.002):
            supervise.check("held job")
        return self.runner(spec)


def test_cancelling_one_running_job_leaves_the_other_intact(serve_client):
    runner = _HeldRunner()
    client = serve_client(workers=2, runner=runner)
    status, kept = client.post("/jobs", _run("ht_off_4_2"))
    assert status == 202
    status, doomed = client.post("/jobs", _run("ht_on_4_1"))
    assert status == 202
    for _ in range(2):
        assert runner.running.acquire(timeout=WAIT_S)

    status, _ = client.delete(f"/jobs/{doomed['id']}")
    assert status == 200
    assert client.wait(doomed["id"])["state"] == "cancelled"
    runner.release.set()
    assert client.wait(kept["id"])["state"] == "done"

    status, result = client.get(f"/jobs/{kept['id']}/result")
    assert status == 200
    assert result["result"] == JobRunner()(parse_job(_run("ht_off_4_2")))
