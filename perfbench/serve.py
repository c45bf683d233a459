"""The ``serve`` workload: a ``repro serve --workers 2`` daemon in its own
process, driven over two persistent keep-alive connections.

Set-up boots the daemon with a fresh state directory and warms a seeded
key space; it is repeated :data:`SETUP_REPEATS` times (the last daemon
is the one measured).  The op stream is ~90% warm ``run``/``speedup``
submissions, ~8% fresh keys (engine runs and journal writes) and ~2%
identical fresh submissions sent on both connections at once (dedup).
A closed loop gives saturation throughput; an open loop at
:data:`OPEN_RATE` jobs/s gives latency timed from each job's due time.

On a keep-alive connection the daemon's responses stall on the TCP
delayed-ACK timer (its handler writes headers and body in two sends with
Nagle's algorithm on), ~44 ms per request on Linux; that caps two
clients at ~22 jobs/s, and :data:`OPEN_RATE` is about half of that.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import signal
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench import layers, trace
from perfbench.common import (
    Outcome, child_env, finish, fresh_dir, median, python_cmd, remove_dir,
    run_timed, spawn_until, summarize, tail_of, vm_hwm_mib,
)
from perfbench.loadgen import Client, Op, PhaseStats, run_phase

SETUP_REPEATS = 3
CLIENTS = min(2, os.cpu_count() or 1)
#: Open-loop arrival rate, jobs/s, evenly spaced.
OPEN_RATE = 11.0
#: Share of measured time spent in the closed loop (the rest is open).
CLOSED_SHARE = 0.35
WARM_KEYS = 32
FRESH_SHARE = 0.08
PAIR_SHARE = 0.02
#: Ops per round; every round holds exactly the shares above.
ROUND = 50

WARM_MACHINES = ("paxville", "broadwell-shared-l3", "cascadelake-2s-numa",
                 "biglittle-demo")
MACHINES = WARM_MACHINES + ("paxville-fast-bus", "paxville-no-prefetch",
                            "nextgen-shared-l2", "nextgen-shared-l2-4mb")
WORKLOADS = ("BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP", "minigmg",
             "triad")
CONFIGS = ("ht_on_2_1", "ht_off_2_1", "ht_on_4_1", "ht_off_2_2",
           "ht_on_4_2", "ht_off_4_2", "ht_on_8_2")
SCHEDULERS = ("linux_default", "gang", "packed", "symbiosis")


def _job(kind: str, machine: str, cls: str, scheduler: str, workload: str,
         config: str) -> Dict[str, Any]:
    return {"kind": kind, "machine": machine, "problem_class": cls,
            "scheduler": scheduler, "workload": workload, "config": config}


class KeySpace:
    """The warm keys and a stream of never-submitted fresh keys."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()
        self.warm = [self._new(WARM_MACHINES, "WB", SCHEDULERS[:1])
                     for _ in range(WARM_KEYS)]

    def _new(self, machines, classes, schedulers) -> Dict[str, Any]:
        while True:
            kind = self.rng.choice(("run", "speedup"))
            job = _job(kind, self.rng.choice(machines),
                       self.rng.choice(classes), self.rng.choice(schedulers),
                       self.rng.choice(WORKLOADS),
                       self.rng.choice(("serial",) + CONFIGS
                                       if kind == "run" else CONFIGS))
            key = json.dumps(job, sort_keys=True)
            if key not in self.used:
                self.used.add(key)
                return job

    def fresh(self) -> Dict[str, Any]:
        return self._new(MACHINES, "SWABC", SCHEDULERS)

    def ops(self, rate: Optional[float] = None,
            horizon: Optional[float] = None) -> Iterator[Op]:
        """The seeded op stream, in rounds of :data:`ROUND` ops with a
        fixed count of each kind in shuffled order; with ``rate``, one op
        every ``1/rate`` seconds up to ``horizon``."""
        counts = {"pair": ROUND * PAIR_SHARE, "fresh": ROUND * FRESH_SHARE}
        counts["warm"] = ROUND - sum(counts.values())
        kinds = [k for k, n in counts.items() for _ in range(round(n))]
        for i in itertools.count():
            due = 0.0 if rate is None else i / rate
            if horizon is not None and due >= horizon:
                return
            if i % ROUND == 0:
                self.rng.shuffle(kinds)
            kind = kinds[i % ROUND]
            payload = (self.rng.choice(self.warm) if kind == "warm"
                       else self.fresh())
            yield Op(payload, kind, due)


class Daemon:
    """One ``repro serve`` process and the clients connected to it."""

    def __init__(self, tmp: Path, tag: str, traced: bool):
        self.state = tmp / f"state-{tag}"
        self.trace_out = tmp / f"spans-{tag}.json.gz" if traced else None
        args = ["serve", "--port", "0", "--workers", "2", "--jobs", "1",
                "--state-dir", str(self.state), "--drain-timeout", "5"]
        if traced:
            cmd = python_cmd("-m", "perfbench.child", "cli", "--trace-out",
                             str(self.trace_out), "--", *args)
        else:
            cmd = python_cmd("-m", "repro", *args)
        self.proc, self.boot_s, line = spawn_until(
            cmd, child_env(tmp), "serving on")
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"cannot parse the serve banner {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.clients = [Client(self.host, self.port) for _ in range(CLIENTS)]

    def stats(self) -> Dict[str, Any]:
        status, body = self.clients[0].request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return body

    def stop(self) -> Tuple[int, Optional[float]]:
        """SIGTERM and wait (once); returns the exit code and peak RSS
        (MiB)."""
        for client in getattr(self, "clients", []):
            client.close()
        if self.proc.poll() is not None:
            return self.proc.returncode, None
        peak = vm_hwm_mib(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        return finish(self.proc, timeout=30), peak


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    tmp = fresh_dir("serve-")
    try:
        return _run(seed, seconds, traced, tmp)
    finally:
        remove_dir(tmp)


class _Session:
    """Measures one daemon: warm-up, closed loop, open loop, checks."""

    def __init__(self, tmp: Path, seed: int, traced: bool, tag: str,
                 setups: List[float]):
        self.keys = KeySpace(random.Random(seed))
        self.total = PhaseStats()
        t0 = time.perf_counter()
        self.daemon = Daemon(tmp, tag, traced)
        try:
            self.total.absorb(self._phase(
                iter([Op(p, "warm") for p in self.keys.warm]), False, None))
        except BaseException:
            self.daemon.stop()
            raise
        setups.append(time.perf_counter() - t0)

    def _phase(self, ops: Iterator[Op], open_loop: bool,
               seconds: Optional[float]) -> PhaseStats:
        return run_phase(self.daemon.clients, ops, open_loop=open_loop,
                         seconds=seconds)

    def measure(self, seconds: float) -> Tuple[PhaseStats, PhaseStats]:
        try:
            return self._measure(seconds)
        except BaseException:
            self.daemon.stop()
            raise

    def _measure(self, seconds: float) -> Tuple[PhaseStats, PhaseStats]:
        self.t_closed = time.perf_counter_ns()
        closed = self._phase(self.keys.ops(), False, seconds * CLOSED_SHARE)
        self.t_open = time.perf_counter_ns()
        opened = self._phase(
            self.keys.ops(OPEN_RATE, seconds * (1 - CLOSED_SHARE)), True, None)
        self.t_end = time.perf_counter_ns()
        self.total.absorb(closed)
        self.total.absorb(opened)
        return closed, opened

    def close(self) -> Tuple[Dict[str, Any], int, Optional[float]]:
        try:
            stats = self.daemon.stats()
        finally:
            rc, peak = self.daemon.stop()
        return stats, rc, peak


def _run(seed: int, seconds: float, traced: bool, tmp: Path) -> Outcome:
    oc = Outcome()
    setups: List[float] = []
    for i in range(0 if traced else SETUP_REPEATS - 1):
        _Session(tmp, seed, False, f"setup{i}", setups).close()
    session = _Session(tmp, seed, False, "measured", setups)
    closed, opened = session.measure(seconds if not traced else seconds / 2)
    stats, rc, peak = session.close()
    answers = _check(oc, session.total, stats, rc, tmp)

    jobs_per_s = closed.completed / closed.elapsed_s
    sub, job = summarize(opened.submit_ms), summarize(opened.job_ms)
    late = summarize(opened.late_ms)
    # The bounded tail is the closed loop's: the open loop's upper
    # percentiles fall among its ~10% fresh submissions, whose latency
    # depends on which engine run holds the interpreter lock, too few
    # (~23 a run) to read steadily.
    closed_tail = tail_of(summarize(closed.submit_ms), "closed_submit_ms")
    oc.named = [
        ("jobs_per_s", jobs_per_s, "1/s", closed.completed, "closed loop"),
        (*closed_tail, "ms", len(closed.submit_ms), "closed loop"),
        ("submit_ms_p50", sub["p50"], "ms", sub["n"], "open loop"),
        (*tail_of(sub, "submit_ms"), "ms", sub["n"], "open loop"),
        (*tail_of(job, "job_ms"), "ms", job["n"], "submit to terminal"),
        (*tail_of(late, "gen_late_ms"), "ms", late["n"], "generator health"),
    ]
    oc.metrics = {
        "typical_ms": sub["p50"],
        "tail_ms": closed_tail[1],
        "throughput_per_s": jobs_per_s,
        "peak_rss_mib": peak or 0.0,
    }
    if setups and not traced:
        oc.metrics["setup_s"] = median(setups)
    oc.facts = {
        "open_rate": OPEN_RATE, "clients": CLIENTS,
        "closed_jobs": closed.jobs, "open_jobs": opened.jobs,
        "failures": session.total.failures,
        "counters": stats["counters"], "answers_checked": answers,
        "setup_samples": len(setups),
    }
    if traced:
        _traced(oc, tmp, seed, seconds / 2, jobs_per_s)
    return oc


def _check(oc: Outcome, total: PhaseStats, stats: Dict[str, Any], rc: int,
           tmp: Path) -> int:
    """Every job terminal, ``/stats`` closing, each answer equal to a
    fresh ``Study``'s (computed in a child, off the clock)."""
    jobs = stats["jobs"]
    oc.checks["/stats closes"] = stats["counters"]["submitted"] == sum(
        jobs[s] for s in ("done", "failed", "cancelled", "queued", "running"))
    oc.checks["every job terminal"] = jobs["queued"] + jobs["running"] == 0
    oc.checks["daemon drained cleanly"] = rc == 0
    keys = sorted(total.answers)
    (tmp / "jobs.json").write_text(json.dumps([json.loads(k) for k in keys]))
    rc_ref, _, err = run_timed(
        python_cmd("-m", "perfbench.child", "reference",
                   str(tmp / "jobs.json"), str(tmp / "answers.json")),
        child_env(tmp))
    mismatched = len(keys)
    if rc_ref == 0:
        refs = json.loads((tmp / "answers.json").read_text())
        mismatched = sum(
            1 for key, ref in zip(keys, refs)
            if any(_differs(got, ref) for got in total.answers[key])
            or len(total.answers[key]) != 1
        )
    else:
        print(f"serve: reference answers failed:\n{err}")
    oc.checks["answers equal Study answers"] = (
        oc.checks.get("answers equal Study answers", True) and mismatched == 0
    )
    oc.attempted += total.jobs
    oc.failed += total.failed + mismatched
    return len(keys)


def _differs(got: Dict[str, Any], ref: Dict[str, Any]) -> bool:
    return any(got.get(k) != v for k, v in ref.items())


def _traced(oc: Outcome, tmp: Path, seed: int, seconds: float,
            untraced_jobs_per_s: float) -> None:
    setups: List[float] = []
    session = _Session(tmp, seed, True, "traced", setups)
    closed, opened = session.measure(seconds)
    stats, rc, _ = session.close()
    _check(oc, session.total, stats, rc, tmp)
    doc = trace.load(session.daemon.trace_out)
    spans = doc["spans"]
    phases = {
        "closed loop": [s for s in spans
                        if session.t_closed <= s[3] < session.t_open],
        "open loop": [s for s in spans
                      if session.t_open <= s[3] < session.t_end],
    }
    for (name, sp), st in zip(phases.items(), (closed, opened)):
        agg = trace.aggregate(sp)
        oc.lines += layers.table(agg, st.elapsed_s * 1e3, f"traced {name}")
        server_post = sum(s[4] - s[3] for s in sp if s[2] == "serve.app.post")
        oc.lines.append(
            f"    client-observed POST time {st.post_rtt_s * 1e3:.1f} ms, "
            f"server do_POST time {server_post / 1e6:.1f} ms "
            f"(server share {server_post / 1e9 / st.post_rtt_s:.1%}); "
            f"submit p50 {summarize(st.submit_ms)['p50']:.2f} ms"
        )
    total = session.total
    server_post = sum(s[4] - s[3] for s in spans if s[2] == "serve.app.post")
    counters = stats["counters"]
    traced_jobs_per_s = closed.completed / closed.elapsed_s
    cache = doc["cache"]
    facts = {
        f"core.runcache.{k}": cache.get(k, 0)
        for k in ("memory_hits", "disk_hits", "misses", "quarantined")
    }
    facts["core.runcache.hit_ratio"] = cache.get("hit_rate", 0.0)
    facts.update({
        "serve.app.polls_per_job": total.gets / max(total.completed, 1),
        "serve.app.server_share": server_post / 1e9 / total.post_rtt_s,
        "serve.scheduler.coalesced_ratio":
            (counters["cache_hits"] + counters["dedup_hits"])
            / max(counters["submitted"], 1),
        "serve.scheduler.engine_calls": counters["engine_calls"],
        "serve.store.appends_per_job":
            sum(1 for s in spans if s[2] == "serve.store.journal_append")
            / max(counters["submitted"], 1),
        "bench.gen.late_ms_p99": tail_of(summarize(opened.late_ms), "late")[1],
        "bench.trace.overhead": untraced_jobs_per_s / traced_jobs_per_s,
    })
    oc.layers = layers.compute(trace.aggregate(spans), facts)
    oc.lines.append(
        f"  tracing overhead: time per closed-loop job traced/untraced = "
        f"{facts['bench.trace.overhead']:.3f}"
    )
