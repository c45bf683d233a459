"""The serve scheduler: dedup, cache fast path, cancel, drain, keys.

The concurrency-critical properties of the simulation service live
here, exercised against *injected* runners (counting stubs, blocking
barriers, deliberate failures) so each scenario is deterministic:

* N concurrent identical submissions execute the engine exactly once
  and every waiter receives the result (the dedup contract);
* a warm run cache answers a submission without it ever entering the
  worker pool;
* cancelling a queued job never executes it; cancelling the last live
  waiter of a running job cancels the underlying execution
  cooperatively, while earlier waiters merely detach;
* a failing job surfaces the pipeline's structured failure payload;
* ``/stats`` counters always close: submitted = done + failed +
  cancelled + queued + running;
* the dedup key is canonical: semantically identical submissions (case,
  field order, name vs fingerprint spellings) map to one key, and any
  parameter that changes the simulation changes the key (Hypothesis).
"""

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import supervise
from repro.serve import store as jobstore
from repro.serve.runner import JobRunner
from repro.serve.schema import JobSpecError, job_key, parse_job
from repro.serve.scheduler import Scheduler, SchedulerClosed


# ----------------------------------------------------------------------
# Injected runners


class CountingRunner:
    """Counts executions; optionally blocks until released."""

    def __init__(self, block=False, result=None):
        self.calls = 0
        self.block = block
        self.result = result or {"ok": True}
        self.started = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, spec):
        with self._lock:
            self.calls += 1
        self.started.set()
        if self.block:
            # Cooperative: a cancel or deadline lands at the next check.
            while not self.release.wait(0.002):
                supervise.check("counting runner")
        return dict(self.result)


class FailingRunner:
    def __call__(self, spec):
        raise RuntimeError("synthetic engine explosion")


class ProbeRunner(CountingRunner):
    """A runner whose probe() answers everything from 'cache'."""

    def __init__(self, warm):
        super().__init__()
        self.warm = warm
        self.probes = 0

    def probe(self, spec):
        self.probes += 1
        return {"cached": True} if self.warm else None


RUN_CG = {
    "kind": "run", "workload": "cg", "config": "serial",
    "problem_class": "S",
}


def _wait_terminal(scheduler, job, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if scheduler.get(job.id).terminal:
            return scheduler.get(job.id)
        time.sleep(0.002)
    raise AssertionError(f"job {job.id} never settled")


def _shutdown(scheduler):
    scheduler.shutdown(timeout_s=1.0)


# ----------------------------------------------------------------------
# Dedup


def test_concurrent_identical_submissions_execute_once():
    """The headline contract: N racing submitters, one engine call."""
    runner = CountingRunner(block=True)
    scheduler = Scheduler(workers=2, runner=runner)
    try:
        jobs, errors = [], []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            try:
                jobs.append(scheduler.submit(dict(RUN_CG)))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        # Join the submitters *before* releasing the runner: submit()
        # never blocks, and holding the execution open guarantees every
        # non-owning submission attaches as a dedup waiter rather than
        # racing the result memo.
        for t in threads:
            t.join()
        assert runner.started.wait(5.0)
        runner.release.set()
        assert not errors
        assert len(jobs) == 8
        for job in jobs:
            final = _wait_terminal(scheduler, job)
            assert final.state == jobstore.DONE
        assert runner.calls == 1
        assert scheduler.engine_calls == 1
        sources = sorted(j.source for j in jobs)
        assert sources.count("executed") == 1
        assert sources.count("dedup") == 7
        stats = scheduler.stats()
        assert stats["counters"]["dedup_hits"] == 7
        assert stats["counters"]["results_fanned_out"] == 8
        # Every waiter reads the same memoized result.
        results = {tuple(sorted(scheduler.result(j.id).items()))
                   for j in jobs}
        assert len(results) == 1
    finally:
        _shutdown(scheduler)


def test_dedup_key_separates_distinct_jobs():
    runner = CountingRunner()
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        a = scheduler.submit(dict(RUN_CG))
        b = scheduler.submit({**RUN_CG, "config": "ht_on_4_1"})
        _wait_terminal(scheduler, a)
        _wait_terminal(scheduler, b)
        assert runner.calls == 2
    finally:
        _shutdown(scheduler)


# ----------------------------------------------------------------------
# Cache fast path


def test_warm_probe_answers_without_entering_the_pool():
    runner = ProbeRunner(warm=True)
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        job = scheduler.submit(dict(RUN_CG))
        assert job.state == jobstore.DONE
        assert job.source == "cache"
        assert runner.calls == 0
        assert scheduler.engine_calls == 0
        assert scheduler.result(job.id) == {"cached": True}
        assert scheduler.stats()["counters"]["cache_hits"] == 1
    finally:
        _shutdown(scheduler)


def test_result_memo_answers_repeat_submissions():
    """Second submission of a completed job never re-probes or re-runs."""
    runner = CountingRunner()
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        first = scheduler.submit(dict(RUN_CG))
        _wait_terminal(scheduler, first)
        second = scheduler.submit(dict(RUN_CG))
        assert second.state == jobstore.DONE
        assert second.source == "cache"
        assert runner.calls == 1
        assert scheduler.result(second.id) == scheduler.result(first.id)
    finally:
        _shutdown(scheduler)


@pytest.fixture
def fresh_run_cache(monkeypatch):
    """A pristine process-wide run cache: another module's runs (the
    serve tests submit the same CG job) must not pre-warm this one."""
    from repro.core import runcache

    monkeypatch.delenv(runcache.NO_CACHE_ENV, raising=False)
    monkeypatch.delenv(runcache.CACHE_DIR_ENV, raising=False)
    runcache.configure(reset=True)
    yield
    runcache.configure(reset=True)


def test_engine_backed_warm_cache_bypasses_pool(fresh_run_cache):
    """With the real runner, a study-cached run answers resubmission."""
    runner = JobRunner()
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        first = scheduler.submit(dict(RUN_CG))
        final = _wait_terminal(scheduler, first)
        assert final.state == jobstore.DONE
        assert scheduler.engine_calls == 1
        warm = scheduler.submit(dict(RUN_CG))
        assert warm.state == jobstore.DONE
        assert warm.source == "cache"
        assert scheduler.engine_calls == 1
        result = scheduler.result(warm.id)
        assert result["kind"] == "run"
        assert result["runtime_seconds"] > 0
    finally:
        _shutdown(scheduler)


# ----------------------------------------------------------------------
# Cancellation


def test_cancel_while_queued_never_executes():
    runner = CountingRunner(block=True)
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        blocker = scheduler.submit(dict(RUN_CG))
        assert runner.started.wait(5.0)
        queued = scheduler.submit({**RUN_CG, "config": "ht_on_4_1"})
        cancelled = scheduler.cancel(queued.id)
        assert cancelled.state == jobstore.CANCELLED
        assert cancelled.reason == "client-cancel"
        runner.release.set()
        _wait_terminal(scheduler, blocker)
        _wait_terminal(scheduler, queued)
        assert runner.calls == 1  # the queued job never ran
        assert scheduler.get(queued.id).state == jobstore.CANCELLED
    finally:
        _shutdown(scheduler)


def test_cancel_last_waiter_cancels_the_running_execution():
    runner = CountingRunner(block=True)
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        job = scheduler.submit(dict(RUN_CG))
        assert runner.started.wait(5.0)
        assert scheduler.get(job.id).state == jobstore.RUNNING
        scheduler.cancel(job.id)
        # The runner's next supervise.check() raises CancelledRun
        # without the test ever setting runner.release.
        final = _wait_terminal(scheduler, job)
        assert final.state == jobstore.CANCELLED
        # The worker notices the cancel cooperatively and retires the
        # execution shortly after the job itself turns terminal.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with scheduler._lock:
                if not scheduler._executions:
                    break
            time.sleep(0.002)
        with scheduler._lock:
            assert not scheduler._executions
    finally:
        _shutdown(scheduler)


def test_cancel_one_of_several_waiters_detaches_only_it():
    runner = CountingRunner(block=True)
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        first = scheduler.submit(dict(RUN_CG))
        assert runner.started.wait(5.0)
        second = scheduler.submit(dict(RUN_CG))
        assert second.source == "dedup"
        scheduler.cancel(second.id)
        runner.release.set()
        assert _wait_terminal(scheduler, first).state == jobstore.DONE
        assert scheduler.get(second.id).state == jobstore.CANCELLED
        assert runner.calls == 1
    finally:
        _shutdown(scheduler)


def test_cancel_terminal_job_is_an_error():
    runner = CountingRunner()
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        job = scheduler.submit(dict(RUN_CG))
        _wait_terminal(scheduler, job)
        with pytest.raises(ValueError, match="already done"):
            scheduler.cancel(job.id)
        assert scheduler.cancel("j999999") is None
    finally:
        _shutdown(scheduler)


def test_job_timeout_fails_the_job_with_deadline_provenance():
    runner = CountingRunner(block=True)
    scheduler = Scheduler(workers=1, runner=runner, job_timeout_s=0.05)
    try:
        job = scheduler.submit(dict(RUN_CG))
        final = _wait_terminal(scheduler, job)
        assert final.state == jobstore.FAILED
        assert final.error["error_type"] == "DeadlineExceeded"
        assert "wall-time budget" in final.reason
    finally:
        runner.release.set()
        _shutdown(scheduler)


# ----------------------------------------------------------------------
# Failure containment


def test_failed_job_surfaces_structured_error_payload():
    scheduler = Scheduler(workers=1, runner=FailingRunner())
    try:
        job = scheduler.submit(dict(RUN_CG))
        final = _wait_terminal(scheduler, job)
        assert final.state == jobstore.FAILED
        # The pipeline's ExperimentFailure shape, exactly.
        assert set(final.error) == {"error_type", "message", "traceback"}
        assert final.error["error_type"] == "RuntimeError"
        assert "synthetic engine explosion" in final.error["message"]
        assert "RuntimeError" in final.error["traceback"]
        assert scheduler.result(job.id) is None
    finally:
        _shutdown(scheduler)


def test_failure_fans_out_to_every_waiter():
    class BlockThenFail(CountingRunner):
        def __call__(self, spec):
            super().__call__(spec)
            raise RuntimeError("late failure")

    runner = BlockThenFail(block=True)
    scheduler = Scheduler(workers=1, runner=runner)
    try:
        first = scheduler.submit(dict(RUN_CG))
        assert runner.started.wait(5.0)
        second = scheduler.submit(dict(RUN_CG))
        runner.release.set()
        for job in (first, second):
            final = _wait_terminal(scheduler, job)
            assert final.state == jobstore.FAILED
            assert final.error["error_type"] == "RuntimeError"
    finally:
        _shutdown(scheduler)


# ----------------------------------------------------------------------
# Stats closure


def test_stats_counters_close_under_concurrent_load():
    runner = CountingRunner()
    scheduler = Scheduler(workers=3, runner=runner)
    try:
        configs = ["serial", "ht_on_4_1", "ht_off_2_2", "ht_on_8_2"]
        jobs = []

        def client(i):
            for config in configs:
                jobs.append(scheduler.submit({**RUN_CG, "config": config}))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for job in jobs:
            _wait_terminal(scheduler, job)
        stats = scheduler.stats()
        c = stats["jobs"]
        assert c["submitted"] == (
            c["done"] + c["failed"] + c["cancelled"]
            + c["queued"] + c["running"]
        )
        assert c["submitted"] == 24
        counters = stats["counters"]
        assert counters["submitted"] == 24
        # Triage is exhaustive: every submission was exactly one of
        # executed / dedup / cache.
        assert (
            counters["engine_calls"] + counters["dedup_hits"]
            + counters["cache_hits"] == 24
        )
        assert counters["engine_calls"] == len(configs) == runner.calls
        hist = stats["latency"]["histogram"]
        assert sum(hist.values()) == stats["latency"]["observed"] == 24
        assert stats["latency"]["p50_s"] <= stats["latency"]["p95_s"]
        assert stats["latency"]["p95_s"] <= stats["latency"]["p99_s"]
    finally:
        _shutdown(scheduler)


# ----------------------------------------------------------------------
# Drain / shutdown


def test_drain_completes_in_flight_work_cleanly():
    runner = CountingRunner()
    scheduler = Scheduler(workers=2, runner=runner)
    jobs = [scheduler.submit({**RUN_CG, "config": c})
            for c in ("serial", "ht_on_4_1", "ht_off_2_1")]
    report = scheduler.shutdown(timeout_s=10.0)
    assert report.clean
    assert report.cancelled == 0
    for job in jobs:
        assert scheduler.get(job.id).state == jobstore.DONE
    with pytest.raises(SchedulerClosed):
        scheduler.submit(dict(RUN_CG))
    assert scheduler.stats()["counters"]["rejected"] == 1


def test_drain_past_grace_cancels_stragglers():
    runner = CountingRunner(block=True)
    scheduler = Scheduler(workers=1, runner=runner)
    job = scheduler.submit(dict(RUN_CG))
    assert runner.started.wait(5.0)
    report = scheduler.shutdown(timeout_s=0.05)
    assert not report.clean
    assert report.cancelled == 1
    final = scheduler.get(job.id)
    assert final.state == jobstore.CANCELLED
    assert "drain" in (final.reason or "")


# ----------------------------------------------------------------------
# Journal + recovery


def test_journal_records_lifecycle_and_recovery_resubmits(tmp_path):
    runner = CountingRunner(block=True)
    scheduler = Scheduler(workers=1, runner=runner, state_dir=tmp_path)
    done = scheduler.submit(dict(RUN_CG))
    assert runner.started.wait(5.0)
    runner.release.set()
    _wait_terminal(scheduler, done)
    runner.release.clear()
    stuck = scheduler.submit({**RUN_CG, "config": "ht_on_4_1"})
    assert runner.started.wait(5.0)
    # Simulate a crash: abandon the scheduler without draining (the
    # journal keeps its half-written truth; the blocked worker thread
    # is a daemon and dies with the process).
    scheduler.store.journal.close()
    state = jobstore.load_jobs_journal(
        tmp_path / jobstore.JOBS_JOURNAL_NAME
    )
    assert state is not None
    assert not state.clean_shutdown
    assert {j.id for j in state.resumable} == {stuck.id}
    assert state.jobs[done.id].state == jobstore.DONE

    fresh_runner = CountingRunner()
    fresh = Scheduler(workers=1, runner=fresh_runner)
    try:
        assert fresh.recover(state) == 1
        [job] = [j for j in fresh.store.jobs()]
        final = _wait_terminal(fresh, job)
        assert final.state == jobstore.DONE
        assert fresh_runner.calls == 1
    finally:
        _shutdown(fresh)
    runner.release.set()


def test_clean_shutdown_is_journaled(tmp_path):
    scheduler = Scheduler(
        workers=1, runner=CountingRunner(), state_dir=tmp_path
    )
    job = scheduler.submit(dict(RUN_CG))
    _wait_terminal(scheduler, job)
    report = scheduler.shutdown(timeout_s=5.0)
    assert report.clean
    state = jobstore.load_jobs_journal(
        tmp_path / jobstore.JOBS_JOURNAL_NAME
    )
    assert state.clean_shutdown
    assert state.drain_cancelled == 0
    assert not state.resumable


def test_journal_file_bytes_are_pinned(tmp_path):
    scheduler = Scheduler(
        workers=1, runner=CountingRunner(), state_dir=tmp_path
    )
    job = _wait_terminal(scheduler, scheduler.submit(dict(RUN_CG)))
    scheduler.shutdown(timeout_s=5.0)
    fingerprint = job.spec["machine_fingerprint"]
    path = tmp_path / jobstore.JOBS_JOURNAL_NAME
    assert path.read_text().splitlines() == [
        f'{{"event": "server-started", "pid": {os.getpid()}, "schema": 1}}',
        f'{{"event": "submitted", "job": "j000001", "key": "{job.key}", '
        f'"source": "executed", "spec": {{"config": "serial", '
        f'"kind": "run", "machine": "paxville", "machine_fingerprint": '
        f'"{fingerprint}", "problem_class": "S", '
        f'"scheduler": "linux_default", "workload": "CG"}}}}',
        '{"event": "state", "job": "j000001", "source": "executed", '
        '"state": "running"}',
        '{"event": "state", "job": "j000001", "source": "executed", '
        '"state": "done"}',
        '{"cancelled": 0, "clean": true, "event": "shutdown"}',
    ]


def test_newer_journal_schema_is_refused(tmp_path):
    path = tmp_path / jobstore.JOBS_JOURNAL_NAME
    path.write_text('{"event": "server-started", "schema": 99}\n')
    with pytest.raises(ValueError, match="schema 99"):
        jobstore.load_jobs_journal(path)


def test_torn_final_journal_line_is_tolerated(tmp_path):
    path = tmp_path / jobstore.JOBS_JOURNAL_NAME
    path.write_text(
        '{"event": "server-started", "schema": 1}\n'
        '{"event": "submitted", "job": "j000001", "key": "k", "spec": {}}\n'
        '{"event": "state", "job": "j0'  # torn mid-write
    )
    state = jobstore.load_jobs_journal(path)
    assert state.jobs["j000001"].state == jobstore.QUEUED
    assert [j.id for j in state.resumable] == ["j000001"]


# ----------------------------------------------------------------------
# Bounded state


class ColdCGRunner(CountingRunner):
    """Answers every job from 'cache' except CG ones, which it runs
    (blocking until released)."""

    def __init__(self):
        super().__init__(block=True)

    def probe(self, spec):
        return None if spec.workload == "CG" else {"cached": spec.workload}


def test_terminal_jobs_are_evicted_past_the_bound(tmp_path, monkeypatch):
    bound = 4
    monkeypatch.setattr(jobstore, "MAX_TERMINAL_JOBS", bound)
    runner = ColdCGRunner()
    scheduler = Scheduler(workers=1, runner=runner, state_dir=tmp_path)
    held = scheduler.submit(dict(RUN_CG))
    assert runner.started.wait(5.0)
    warm = []
    for w in ("mg", "ft", "ep", "is", "lu"):
        for c in ("serial", "ht_on_4_1"):
            job = scheduler.submit({**RUN_CG, "workload": w, "config": c})
            assert job.state == jobstore.DONE
            warm.append(job.id)
    # The running job plus the newest `bound` terminal ones; results
    # are memoized only while a retained job holds them.
    assert len(scheduler.store) == bound + 1
    assert [j.id for j in scheduler.store.jobs()] == \
        [held.id] + warm[-bound:]
    assert len(scheduler._done) == bound
    assert scheduler.get(warm[0]) is None
    assert scheduler.store.expired(warm[0])
    assert not scheduler.store.expired(warm[-1])
    assert not scheduler.store.expired("j999999")
    assert scheduler.result(warm[-1]) == {"cached": "LU"}
    # /stats still closes over every job ever submitted.
    stats = scheduler.stats()
    jobs = stats["jobs"]
    assert jobs["submitted"] == stats["counters"]["submitted"] == 11
    assert jobs["done"] == 10 and jobs["running"] == 1
    assert jobs["submitted"] == sum(
        jobs[s] for s in ("done", "failed", "cancelled", "queued",
                          "running"))

    # The journal still holds every job; recovery resumes the held one.
    scheduler.store.journal.close()
    state = jobstore.load_jobs_journal(
        tmp_path / jobstore.JOBS_JOURNAL_NAME
    )
    assert len(state.jobs) == 11
    assert [j.id for j in state.resumable] == [held.id]
    fresh = Scheduler(workers=1, runner=CountingRunner())
    try:
        assert fresh.recover(state) == 1
        [job] = fresh.store.jobs()
        assert _wait_terminal(fresh, job).state == jobstore.DONE
    finally:
        _shutdown(fresh)
    runner.release.set()


def test_bounded_store_stays_consistent_under_concurrent_load(
    monkeypatch,
):
    import sys

    bound = 8
    monkeypatch.setattr(jobstore, "MAX_TERMINAL_JOBS", bound)
    runner = CountingRunner()
    scheduler = Scheduler(workers=3, runner=runner)
    configs = ["serial", "ht_on_4_1", "ht_off_2_2", "ht_on_8_2"]
    workloads = ["cg", "mg", "ft"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def client():
            for i in range(50):
                scheduler.submit({**RUN_CG, "workload": workloads[i % 3],
                                  "config": configs[i % 4]})

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        deadline = time.monotonic() + 10
        while True:
            jobs = scheduler.stats()["jobs"]
            if jobs["queued"] + jobs["running"] == 0:
                break
            assert time.monotonic() < deadline, jobs
            time.sleep(0.005)
        assert jobs["submitted"] == jobs["done"] == 400
        assert len(scheduler.store) == bound
        assert len(scheduler._done) <= bound
        assert all(j.terminal for j in scheduler.store.jobs())
        counters = scheduler.stats()["counters"]
        assert counters["engine_calls"] + counters["dedup_hits"] + \
            counters["cache_hits"] == 400
        assert runner.calls == counters["engine_calls"]
    finally:
        sys.setswitchinterval(interval)
        _shutdown(scheduler)


# ----------------------------------------------------------------------
# Canonical dedup keys


def test_job_key_ignores_spelling_of_workload_and_machine():
    """cg / CG / the CG spec fingerprint; machine name vs fingerprint
    vs omitted default — all one key."""
    from repro.machine.registry import DEFAULT_MACHINE, list_machines
    from repro.workload.registry import list_workloads

    base = parse_job(dict(RUN_CG))
    cg_fp = list_workloads("S")["CG"].fingerprint
    machine = list_machines()[DEFAULT_MACHINE]
    spellings = [
        {**RUN_CG, "workload": "CG"},
        {**RUN_CG, "workload": "Cg"},
        {**RUN_CG, "workload": cg_fp},
        {**RUN_CG, "machine": DEFAULT_MACHINE},
        {**RUN_CG, "machine": machine.fingerprint},
        {**RUN_CG, "machine": machine.short_fingerprint},
    ]
    for payload in spellings:
        assert job_key(parse_job(payload)) == job_key(base), payload


def test_job_key_changes_with_every_simulation_parameter():
    base = job_key(parse_job(dict(RUN_CG)))
    for delta in (
        {"workload": "mg"},
        {"config": "ht_on_4_1"},
        {"problem_class": "W"},
        {"scheduler": "gang"},
        {"machine": "nextgen-shared-l2"},
        {"kind": "speedup"},
    ):
        assert job_key(parse_job({**RUN_CG, **delta})) != base, delta


def test_experiment_job_key_canonicalizes_selection_order():
    a = parse_job({"kind": "experiment", "experiment": "fig3",
                   "workloads": ["cg", "MG"]})
    b = parse_job({"kind": "experiment", "experiment": "fig3",
                   "workloads": ["mg", "CG"]})
    assert job_key(a) == job_key(b)
    c = parse_job({"kind": "experiment", "experiment": "fig3",
                   "workloads": ["cg"]})
    assert job_key(c) != job_key(a)


_NAS = ("CG", "MG", "FT", "LU", "EP", "SP")
_CONFIGS = ("serial", "ht_on_4_1", "ht_off_2_2")


@st.composite
def _job_payloads(draw):
    """A run/speedup payload plus a random respelling of the same job."""
    kind = draw(st.sampled_from(("run", "speedup")))
    workload = draw(st.sampled_from(_NAS))
    config = draw(st.sampled_from(_CONFIGS))
    problem_class = draw(st.sampled_from(("S", "W")))
    canonical = {
        "kind": kind, "workload": workload, "config": config,
        "problem_class": problem_class,
    }
    respelled = {
        "kind": kind,
        "workload": draw(st.sampled_from(
            (workload.lower(), workload.upper(), workload.capitalize())
        )),
        "config": config,
        "problem_class": problem_class.lower()
        if draw(st.booleans()) else problem_class,
    }
    return canonical, respelled


@settings(max_examples=30)
@given(pair=_job_payloads(), other=_job_payloads())
def test_job_key_property(pair, other):
    """Respellings collide; semantically distinct jobs never do."""
    canonical, respelled = pair
    key = job_key(parse_job(canonical))
    assert job_key(parse_job(respelled)) == key
    other_canonical, _ = other
    if other_canonical == canonical:
        assert job_key(parse_job(other_canonical)) == key
    else:
        assert job_key(parse_job(other_canonical)) != key


def test_parse_job_rejects_malformed_payloads():
    for payload, fragment in (
        ("nope", "expected an object"),
        ({"kind": "dance"}, "unknown job kind"),
        ({"kind": "run"}, "workload: required"),
        ({"kind": "run", "workload": "zz"}, "workload:"),
        ({"kind": "run", "workload": "cg", "config": "warp9"}, "config:"),
        ({"kind": "speedup", "workload": "cg"}, "config: required"),
        ({"kind": "run", "workload": "cg", "experiment": "fig3"},
         "unknown field"),
        ({"kind": "experiment"}, "experiment: required"),
        ({"kind": "experiment", "experiment": "figX"},
         "unknown experiment"),
        ({"kind": "run", "workload": "cg", "problem_class": "Z"},
         "problem_class:"),
        ({"kind": "run", "workload": "cg", "machine": "atlantis"},
         "machine:"),
    ):
        with pytest.raises(JobSpecError, match=fragment):
            parse_job(payload)
