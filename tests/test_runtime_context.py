"""The active RunContext: per-thread, per-job runtime state.

Every runtime switch and every piece of per-task state (run-key
recorder, batch stats, task deadline and cancel token) lives on the
``RunContext`` held in one ``ContextVar``.  These tests pin the
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
from repro.sim import batch
from tests.test_batch_equivalence import assert_identical_runs

WAIT_S = 30.0


def _job(experiment):
    return {"kind": "experiment", "experiment": experiment,
            "problem_class": "S"}


def _run(config):
    return {"kind": "run", "workload": "cg", "config": config,
            "problem_class": "S"}


def test_interleaved_run_key_recorders_stay_per_thread():
    """A enters, B enters, A exits: B keeps recording, and no recorder
    outlives its block."""
    study = Study("S")
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        with batch.record_run_keys() as keys:
            a_in.set()
            assert b_in.wait(WAIT_S)
            study.run("cg", "serial")
        a_out.set()
        seen["a"], seen["a_after"] = keys, current()

    def thread_b():
        assert a_in.wait(WAIT_S)
        with batch.record_run_keys() as keys:
            b_in.set()
            assert a_out.wait(WAIT_S)
            study.run("cg", "ht_off_4_2")  # A has already exited
        seen["b"], seen["b_after"] = keys, current()

    threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT_S)
        assert not t.is_alive()
    study.run("cg", "ht_on_4_1")  # after both: nobody may record this

    assert seen["a"] == [("single", "CG", "serial")]
    assert seen["b"] == [("single", "CG", "ht_off_4_2")]
    assert seen["a_after"] is None and seen["b_after"] is None
    assert current() is None


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


class _StatsRunner:
    """The engine-backed runner, reporting the batch stats the job
    counted into its task context.  Concurrent callers meet at a
    barrier first, so their sweeps really overlap."""

    def __init__(self, parties):
        self.runner = JobRunner()
        self.barrier = threading.Barrier(parties)

    def __call__(self, spec):
        self.barrier.wait(WAIT_S)
        payload = self.runner(spec)
        return {"payload": payload, "batch": current().batch_stats.as_dict()}


def _through_scheduler(payloads, workers):
    scheduler = Scheduler(workers=workers, runner=_StatsRunner(len(payloads)))
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
    """Batching skips cached runs, so the stats compare only cold."""
    runcache.configure(reset=True, enabled=False)
    yield
    runcache.configure(reset=True, enabled=True)


def test_concurrent_sweep_jobs_keep_their_own_batch_stats(cache_off):
    """A sensitivity and a class-scaling job on a 2-worker scheduler
    count exactly what each counts alone."""
    payloads = [_job("sensitivity"), _job("class-scaling")]
    # The scheduler captures the context it is built in: verification
    # off, so both sweeps take the batched path.
    with override(verify=False):
        solo = [_through_scheduler([p], workers=1)[0] for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two sweeps finely
        try:
            together = _through_scheduler(payloads, workers=2)
        finally:
            sys.setswitchinterval(interval)
    for alone, concurrent in zip(solo, together):
        assert alone["batch"]["batched_machines"] > 0
        assert concurrent["batch"] == alone["batch"]
        assert concurrent["payload"] == alone["payload"]
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
