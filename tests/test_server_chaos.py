"""Chaos tests: fault injection and signal handling through the daemon.

The batch harness's ``REPRO_FAULTS`` sites fire unchanged inside the
daemon's pool workers (same ``execute_task``, same cache ``store``), so
these tests drive the daemon with the same fault plans the chaos CI job
uses — and assert the soak invariant: every admitted request reaches a
terminal state, and the daemon itself never dies.
"""

import http.client
import json
import signal
import subprocess
import time

import pytest

from repro.evalharness.journal import JOURNAL_NAME

pytestmark = pytest.mark.slow


def request(port, method, path, body=None, timeout=120.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json", "X-Client": "chaos"},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}
    finally:
        conn.close()


def journal_events(tmp_path):
    """All request journal events from the daemon's run directory."""
    events = []
    for path in (tmp_path / "server-runs").glob(f"server-*/{JOURNAL_NAME}"):
        for line in path.read_text().splitlines():
            events.append(json.loads(line))
    return events


def assert_no_request_dropped(tmp_path):
    """The soak invariant, from the write-ahead journal: every admitted
    (non-cached) request has a terminal journal record."""
    events = journal_events(tmp_path)
    admitted = {
        e["id"] for e in events if e["ev"] == "request-admitted" and not e["cached"]
    }
    resolved = {
        e["id"] for e in events if e["ev"] in ("request-finish", "request-cancelled")
    }
    dropped = admitted - resolved
    assert not dropped, f"requests vanished without a terminal record: {dropped}"


def test_worker_crash_is_survived_and_retried(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon(
        "--jobs", "1",
        env={
            "REPRO_FAULTS": "worker-crash:match=MapAppend/*:count=1:action=exit",
            "REPRO_FAULTS_STATE": str(tmp_path / "fault-state"),
        },
    )
    body = {"benchmark": "MapAppend", "method": "opt", "samples": 5, "seed": 0}
    status, doc = request(port, "POST", "/analyze?wait=1&timeout=90", body)
    assert status == 200
    assert doc["state"] == "done"
    assert doc["attempts"] == 2  # first attempt died with the injected exit
    health = request(port, "GET", "/healthz")[1]
    assert health["status"] == "ok"
    assert health["pool"]["replacements"] >= 1
    assert_no_request_dropped(tmp_path)


def test_hung_worker_is_killed_without_daemon_restart(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon(
        "--jobs", "1",
        env={
            "REPRO_FAULTS": "worker-hang:match=MapAppend/*:count=1:delay=600",
            "REPRO_FAULTS_STATE": str(tmp_path / "fault-state"),
        },
    )
    body = {
        "benchmark": "MapAppend", "method": "opt", "samples": 5,
        "deadline_seconds": 2.0,
    }
    status, doc = request(port, "POST", "/analyze?wait=1&timeout=60", body)
    assert status == 200
    assert doc["state"] == "timeout"
    assert "deadline" in doc["error"]
    # the daemon replaced the pool and keeps serving
    status, after = request(
        port, "POST", "/analyze?wait=1&timeout=90",
        {"benchmark": "Concat", "method": "opt", "samples": 5},
    )
    assert status == 200 and after["state"] == "done"
    assert_no_request_dropped(tmp_path)


def test_nan_logdensity_yields_terminal_response(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon(
        "--jobs", "1",
        env={
            "REPRO_FAULTS": "nan-logdensity:count=2",
            "REPRO_FAULTS_STATE": str(tmp_path / "fault-state"),
        },
    )
    body = {"benchmark": "MapAppend", "method": "bayeswc", "samples": 5, "seed": 0}
    status, doc = request(port, "POST", "/analyze?wait=1&timeout=120", body)
    assert status == 200
    # self-healing may absorb the NaN (done) or the cell records a sampler
    # error — either way the request resolves and the daemon survives
    assert doc["state"] in ("done", "error")
    assert request(port, "GET", "/healthz")[0] == 200
    assert_no_request_dropped(tmp_path)


def test_torn_cache_write_recovers_transparently(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon(
        "--jobs", "1",
        env={
            "REPRO_FAULTS": "cache-torn:match=MapAppend/*:count=1",
            "REPRO_FAULTS_STATE": str(tmp_path / "fault-state"),
        },
    )
    body = {"benchmark": "MapAppend", "method": "opt", "samples": 5, "seed": 0}
    first = request(port, "POST", "/analyze?wait=1&timeout=90", body)
    assert first[1]["state"] == "done"  # the torn write hit the cache, not the client
    # the repeat cannot be served from the torn entry: it quarantines and
    # recomputes — still terminal, never corrupt
    second = request(port, "POST", "/analyze?wait=1&timeout=90", body)
    assert second[1]["state"] == "done"
    assert second[1]["cache_hit"] is False
    third = request(port, "POST", "/analyze?wait=1&timeout=90", body)
    assert third[1]["state"] == "done"
    assert third[1]["cache_hit"] is True  # the rewrite was clean
    assert_no_request_dropped(tmp_path)


def test_sigkilled_daemon_takes_its_workers_along(spawn_daemon, surviving_pids):
    proc, port = spawn_daemon("--jobs", "2")
    body = {"benchmark": "Round", "method": "conventional"}
    status, doc = request(port, "POST", "/analyze?wait=1&timeout=90", body)
    assert status == 200 and doc["state"] == "done", doc
    listed = subprocess.run(
        ["pgrep", "-P", str(proc.pid)], capture_output=True, text=True, check=True
    )
    workers = [int(pid) for pid in listed.stdout.split()]
    assert workers
    proc.send_signal(signal.SIGKILL)  # no drain, no pool shutdown
    proc.wait(timeout=10)
    assert surviving_pids(workers, timeout=10.0) == []


def test_sigterm_drains_inflight_and_exits_75(tmp_path, spawn_daemon):
    proc, port = spawn_daemon("--jobs", "1", "--grace", "60")
    body = {"benchmark": "MapAppend", "method": "bayespc", "samples": 25, "seed": 7}
    status, doc = request(port, "POST", "/analyze", body)  # async: 202
    assert status in (200, 202)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=120) == 75
    # the in-flight request was resolved (or journalled cancelled) — never dropped
    assert_no_request_dropped(tmp_path)
    events = journal_events(tmp_path)
    finished = [e for e in events if e["ev"] == "request-finish" and e["id"] == doc["id"]]
    cancelled = [e for e in events if e["ev"] == "request-cancelled" and e["id"] == doc["id"]]
    assert finished or (cancelled and cancelled[0]["resumable"])


def test_second_sigterm_abandons_grace_window(tmp_path, spawn_daemon):
    proc, port = spawn_daemon(
        "--jobs", "1", "--grace", "120",
        env={
            "REPRO_FAULTS": "worker-hang:match=MapAppend/*:count=1:delay=600",
            "REPRO_FAULTS_STATE": str(tmp_path / "fault-state"),
        },
    )
    body = {"benchmark": "MapAppend", "method": "opt", "samples": 5}
    status, doc = request(port, "POST", "/analyze", body)
    assert status in (200, 202)
    time.sleep(1.0)  # let the hang start in a worker
    started = time.monotonic()
    proc.send_signal(signal.SIGTERM)  # enters the 120s grace window
    time.sleep(0.5)
    proc.send_signal(signal.SIGTERM)  # abandons it immediately
    assert proc.wait(timeout=30) == 75
    assert time.monotonic() - started < 20, "second signal did not cut the drain short"
    # the abandoned request is journalled as resumable, not dropped
    events = journal_events(tmp_path)
    cancelled = [e for e in events if e["ev"] == "request-cancelled" and e["id"] == doc["id"]]
    assert cancelled and cancelled[0]["resumable"]
    assert_no_request_dropped(tmp_path)


def test_mini_soak_with_chaos_meets_invariants(tmp_path, spawn_daemon):
    """A scaled-down version of the CI soak job: open-loop traffic with
    worker crashes injected; every request must reach a terminal class."""
    from repro.server.loadgen import LoadgenConfig, check_invariants, run_loadgen

    _proc, port = spawn_daemon(
        "--jobs", "2",
        env={
            "REPRO_FAULTS": "worker-crash:count=2:action=exit",
            "REPRO_FAULTS_STATE": str(tmp_path / "fault-state"),
        },
    )
    out = tmp_path / "BENCH_server.json"
    report = run_loadgen(
        LoadgenConfig(
            url=f"http://127.0.0.1:{port}",
            requests=16,
            rate=8.0,
            seed=1,
            samples=5,
            out=str(out),
        )
    )
    check_invariants(report)  # raises on dropped/unresolved requests
    assert sum(report["taxonomy"].values()) == 16
    assert out.exists()
    saved = json.loads(out.read_text())
    assert saved["taxonomy"] == report["taxonomy"]
    assert request(port, "GET", "/healthz")[0] == 200
    assert_no_request_dropped(tmp_path)
