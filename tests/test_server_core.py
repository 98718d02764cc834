"""ServerCore tests: admission flow, degradation, crash/hang supervision.

These drive the sans-io core directly — no sockets — with module-level
fake task functions (they must cross the process pool, so they live at
module scope and communicate through the filesystem/env).
"""

import contextlib
import json
import os
import time

import pytest

from repro.evalharness.journal import JOURNAL_NAME
from repro.server.core import AdmissionError, ServerConfig, ServerCore
from repro.server.model import SpecError


def _outcome(task, ok=True, sampler_latency=0.01, error=None):
    return {
        "task": task.task_id,
        "kind": task.kind,
        "benchmark": task.benchmark,
        "mode": task.mode,
        "method": task.method,
        "seed": task.seed,
        "ok": ok,
        "outcome": "ok" if ok else "error",
        "error": error,
        "failure": None
        if ok
        else {"stage": "sampler", "error_class": "SamplerError", "attempts": 1, "elapsed": 0.0},
        "result": {"bound": [1.0, 2.0]} if ok else None,
        "verdict": None,
        "metrics": {
            "wall_seconds": 0.01,
            "max_rss_kb": 0,
            "pid": os.getpid(),
            "started_ts": time.time(),
            "stages": {"sampler": sampler_latency},
        },
    }


def fast_task(task):
    return _outcome(task)


def slow_sampler_task(task):
    # completes fine but reports a sampler stage way over any budget
    return _outcome(task, sampler_latency=99.0)


def crash_once_task(task):
    flag = os.path.join(os.environ["REPRO_TEST_CRASH_DIR"], f"crashed-{task.task_id.replace('/', '_')}")
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)  # simulate a worker death, not a Python exception
    return _outcome(task)


def sleep_by_benchmark_task(task):
    # MapAppend hangs; everything else is fast
    if task.benchmark == "MapAppend":
        time.sleep(30.0)
    elif task.benchmark == "Concat":
        time.sleep(2.0)
    return _outcome(task)


@contextlib.contextmanager
def running_core(tmp_path, task_fn, **overrides):
    overrides.setdefault("jobs", 1)
    overrides.setdefault("rate", 0.0)  # rate limiting off unless a test wants it
    overrides.setdefault("backoff_seconds", 0.0)
    overrides.setdefault("runs_dir", str(tmp_path / "server-runs"))
    overrides.setdefault("cache_dir", str(tmp_path / "server-cache"))
    config = ServerConfig(**overrides)
    core = ServerCore(config)
    core.supervisor.task_fn = task_fn
    core.start()
    try:
        yield core
    finally:
        core.stop(grace=0.2)


def wait_terminal(record, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not record.terminal():
        if time.monotonic() > deadline:
            raise AssertionError(f"request {record.id} never terminal: {record.state}")
        time.sleep(0.01)
    return record


BODY = {"benchmark": "MapAppend", "method": "opt", "samples": 5, "seed": 0}


def test_submit_runs_to_done(tmp_path):
    with running_core(tmp_path, fast_task) as core:
        record = core.submit(dict(BODY), client="t")
        wait_terminal(record)
        assert record.state == "done"
        assert [e["ev"] for e in record.events] == ["admitted", "queued", "started", "finished"]
        assert record.outcome["ok"]
        assert core.counters["done"] == 1
        health = core.healthz()
        assert health["status"] == "ok"
        assert health["breaker"]["state"] == "closed"


def test_second_submit_is_cache_hit_with_identical_outcome(tmp_path):
    with running_core(tmp_path, fast_task) as core:
        first = wait_terminal(core.submit(dict(BODY), client="t"))
        second = core.submit(dict(BODY), client="t")
        assert second.terminal()  # cache hits resolve synchronously
        assert second.cache_hit and not first.cache_hit
        # byte-identical result payload (same content-addressed entry)
        assert json.dumps(second.outcome["result"], sort_keys=True) == json.dumps(
            first.outcome["result"], sort_keys=True
        )


def test_malformed_specs_are_400s(tmp_path):
    with running_core(tmp_path, fast_task) as core:
        for bad in (
            {},
            {"benchmark": "NoSuchBenchmark"},
            {"benchmark": "MapAppend", "method": "quantum"},
            {"benchmark": "MapAppend", "samples": 0},
            {"benchmark": "MapAppend", "deadline_seconds": -1},
        ):
            with pytest.raises(SpecError):
                core.submit(bad, client="t")


def test_rate_limit_sheds_with_retry_after(tmp_path):
    with running_core(tmp_path, fast_task, rate=1.0, burst=1.0) as core:
        wait_terminal(core.submit(dict(BODY, seed=1), client="greedy"))
        with pytest.raises(AdmissionError) as info:
            core.submit(dict(BODY, seed=2), client="greedy")
        assert info.value.status == 429
        assert info.value.retry_after > 0
        assert core.counters["rate_limited"] == 1
        # a different client is not punished
        other = core.submit(dict(BODY, seed=3), client="polite")
        wait_terminal(other)


def test_rate_limited_client_still_gets_cache_hits(tmp_path):
    with running_core(tmp_path, fast_task, rate=1.0, burst=1.0) as core:
        wait_terminal(core.submit(dict(BODY), client="c"))
        # bucket is empty now, but the same request is cached — served anyway
        record = core.submit(dict(BODY), client="c")
        assert record.cache_hit
        assert record.state == "done"


def test_queue_full_sheds(tmp_path):
    with running_core(
        tmp_path, sleep_by_benchmark_task, jobs=1, queue_capacity=1
    ) as core:
        # one hanging request occupies the worker, one fills the queue
        core.submit({"benchmark": "MapAppend", "method": "opt", "seed": 1}, client="t")
        time.sleep(0.3)  # let the supervisor pull it into the pool
        core.submit({"benchmark": "MapAppend", "method": "opt", "seed": 2}, client="t")
        with pytest.raises(AdmissionError) as info:
            core.submit({"benchmark": "MapAppend", "method": "opt", "seed": 3}, client="t")
        assert info.value.status == 429
        assert info.value.retry_after >= 1.0
        assert core.counters["shed"] == 1


def test_breaker_degrades_bayespc_and_marks_response(tmp_path):
    with running_core(
        tmp_path,
        slow_sampler_task,
        latency_budget=1.0,
        breaker_threshold=2,
        breaker_window=4,
    ) as core:
        for seed in (1, 2):
            wait_terminal(
                core.submit(dict(BODY, method="bayespc", seed=seed), client="t")
            )
        assert core.breaker.level() == 1
        degraded = core.submit(dict(BODY, method="bayespc", seed=3), client="t")
        wait_terminal(degraded)
        assert degraded.degraded is not None
        assert degraded.degraded["requested"] == "bayespc"
        assert degraded.degraded["served"] == "bayeswc"
        assert "breaker-open" in degraded.degraded["reason"]
        assert degraded.served_method == "bayeswc"
        doc = degraded.to_json()
        assert doc["degraded"]["served"] == "bayeswc"
        assert core.healthz()["breaker"]["state"] == "open"
        # opt requests pass through untouched even while open
        plain = wait_terminal(core.submit(dict(BODY, method="opt", seed=4), client="t"))
        assert plain.degraded is None


def test_worker_crash_is_retried_transparently(tmp_path, monkeypatch):
    crash_dir = tmp_path / "crash-flags"
    crash_dir.mkdir()
    monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(crash_dir))
    with running_core(tmp_path, crash_once_task) as core:
        record = wait_terminal(core.submit(dict(BODY), client="t"))
        assert record.state == "done"
        assert record.attempts == 2  # first attempt died with the worker
        assert core.supervisor.pool_replacements >= 1


def test_hung_worker_times_out_and_daemon_survives(tmp_path):
    with running_core(tmp_path, sleep_by_benchmark_task, jobs=1) as core:
        hung = core.submit(
            {"benchmark": "MapAppend", "method": "opt", "deadline_seconds": 1.0},
            client="t",
        )
        wait_terminal(hung, timeout=15.0)
        assert hung.state == "timeout"
        assert "deadline" in hung.error
        assert core.counters["timeout"] == 1
        # the pool was replaced; a new request still completes
        after = core.submit({"benchmark": "QuickSort", "method": "opt"}, client="t")
        wait_terminal(after)
        assert after.state == "done"


def test_innocent_inflight_request_survives_pool_kill(tmp_path):
    with running_core(tmp_path, sleep_by_benchmark_task, jobs=2) as core:
        innocent = core.submit(
            {"benchmark": "Concat", "method": "opt", "deadline_seconds": 60.0},
            client="t",
        )
        hung = core.submit(
            {"benchmark": "MapAppend", "method": "opt", "deadline_seconds": 1.0},
            client="t",
        )
        wait_terminal(hung, timeout=15.0)
        assert hung.state == "timeout"
        wait_terminal(innocent, timeout=30.0)
        assert innocent.state == "done"
        # the resubmission did not burn one of the innocent's attempts
        assert innocent.attempts == 1


def test_drain_cancels_queued_requests_as_resumable(tmp_path):
    config_runs = tmp_path / "server-runs"
    with running_core(tmp_path, sleep_by_benchmark_task, jobs=1) as core:
        run_id = core.run_id
        inflight = core.submit({"benchmark": "MapAppend", "method": "opt"}, client="t")
        time.sleep(0.3)
        queued = core.submit({"benchmark": "MapAppend", "method": "opt", "seed": 9}, client="t")
        stats = core.stop(grace=0.2)
        assert stats["cancelled"] == 2
        assert inflight.state == "cancelled"
        assert queued.state == "cancelled"
        with pytest.raises(AdmissionError) as info:
            core.submit(dict(BODY), client="t")
        assert info.value.status == 503
    journal_path = config_runs / run_id / JOURNAL_NAME
    events = [json.loads(line) for line in journal_path.read_text().splitlines()]
    cancelled = [e for e in events if e["ev"] == "request-cancelled"]
    assert {e["id"] for e in cancelled} == {inflight.id, queued.id}
    assert all(e["resumable"] for e in cancelled)


def test_failed_admission_step_leaves_no_live_record(tmp_path, monkeypatch):
    """A cache load or a journal write-ahead that raises ends the record as
    an ``internal-error`` and gives back the tenant's quota slot; the
    exception still reaches the caller."""
    with running_core(tmp_path, fast_task, quota_concurrency=1) as core:

        def broken_load(_task):
            raise OSError("cache directory vanished")

        monkeypatch.setattr(core.cache, "load", broken_load)
        with pytest.raises(OSError):
            core.submit(dict(BODY, seed=1), client="t")
        monkeypatch.undo()
        assert core.healthz()["live_requests"] == 0

        real_record = core.journal.record

        def broken_admit(event):
            if event.get("ev") == "request-admitted":
                raise OSError("journal disk full")
            real_record(event)

        monkeypatch.setattr(core.journal, "record", broken_admit)
        with pytest.raises(OSError):
            core.submit(dict(BODY, seed=2), client="t")
        monkeypatch.undo()
        health = core.healthz()
        assert health["live_requests"] == 0
        finished = [r for r in core._records.values() if r.spec.seed in (1, 2)]
        assert [(r.state, r.events[-1].get("reason")) for r in finished] == [
            ("error", "internal-error"),
            ("error", "internal-error"),
        ]
        # the slot the journal failure held is free: a new request runs
        record = wait_terminal(core.submit(dict(BODY, seed=3), client="t"))
        assert record.state == "done"
