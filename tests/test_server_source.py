"""Hardened POST /analyze: untrusted source, tenants, quotas, hostile mix.

The serving invariants for arbitrary submitted programs:

* a source submission that lints clean produces real bounds, under the
  untrusted execution budget, cached by content address;
* a source byte-identical to a suite benchmark re-routes onto the
  benchmark-name path — same task id, byte-identical bounds, shared
  cache entry;
* lint rejection is a structured 422 with the diagnostics in the body;
* API keys map to tenants; quota exhaustion is a structured 429 with
  provenance; and every hostile corpus program terminates in a
  classified state — never an unhandled exception or a dropped request.
"""

import importlib.util
import json
import os
import time

import pytest

from repro.server.admission import TenantQuotas
from tests.test_server_chaos import assert_no_request_dropped, request

pytestmark = pytest.mark.slow

HOSTILE_DIR = os.path.join(os.path.dirname(__file__), "hostile")

MEASURABLE = """
let rec length xs =
  match xs with
  | [] -> 0
  | hd :: tl -> let _ = Raml.tick 1.0 in 1 + length tl

let main xs = Raml.stat (length xs)
"""


def _corpus_module():
    spec = importlib.util.spec_from_file_location(
        "hostile_build_corpus", os.path.join(HOSTILE_DIR, "build_corpus.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Tenant quotas: deterministic unit tests (no daemon, fake clock)
# ---------------------------------------------------------------------------


class TestTenantQuotas:
    def test_concurrency_quota(self):
        quotas = TenantQuotas(max_concurrent=1)
        ok, _, _ = quotas.acquire("alice")
        assert ok
        ok, reason, retry = quotas.acquire("alice")
        assert not ok and "concurrency" in reason and retry > 0
        ok2, _, _ = quotas.acquire("bob")  # quotas are per-tenant
        assert ok2
        quotas.release("alice")
        assert quotas.acquire("alice")[0]

    def test_cpu_window_quota_prunes_old_charges(self):
        now = [100.0]
        quotas = TenantQuotas(cpu_seconds=1.0, window=60.0, clock=lambda: now[0])
        ok, _, _ = quotas.acquire("alice")
        assert ok
        quotas.release("alice")
        quotas.charge("alice", 2.0)
        ok, reason, retry = quotas.acquire("alice")
        assert not ok and "cpu" in reason
        assert 0 < retry <= 60.0
        now[0] += 61.0  # the charge ages out of the window
        assert quotas.acquire("alice")[0]

    def test_disabled_quotas_admit_everything(self):
        quotas = TenantQuotas()
        assert not quotas.enabled()
        for _ in range(100):
            assert quotas.acquire("anyone")[0]


# ---------------------------------------------------------------------------
# Source submissions through the live daemon
# ---------------------------------------------------------------------------


def test_source_submission_returns_bounds(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon("--jobs", "1")
    body = {"source": MEASURABLE, "entry": "main", "method": "opt", "samples": 5}
    status, doc = request(port, "POST", "/analyze?wait=1&timeout=120", body)
    assert status == 200, doc
    assert doc["state"] == "done"
    assert doc["request"]["benchmark"].startswith("user:")
    assert doc["result"]["ok"]
    health = request(port, "GET", "/healthz")[1]
    assert health["counters"]["source_requests"] >= 1
    assert health["budget"]["eval_steps"] == 2_000_000  # untrusted defaults
    assert_no_request_dropped(tmp_path)


def test_source_normalization_shares_the_cache(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon("--jobs", "1")
    body = {"source": MEASURABLE, "entry": "main", "method": "opt", "samples": 5}
    first = request(port, "POST", "/analyze?wait=1&timeout=120", body)[1]
    assert first["state"] == "done"
    # CRLF line endings + trailing whitespace: same normalized content
    mangled = MEASURABLE.replace("\n", "  \r\n") + "\n\n"
    body2 = dict(body, source=mangled)
    second = request(port, "POST", "/analyze?wait=1&timeout=120", body2)[1]
    assert second["request"]["benchmark"] == first["request"]["benchmark"]
    assert second["cache_hit"] is True
    assert second["result"] == first["result"]


def test_source_benchmark_equivalence(tmp_path, spawn_daemon):
    """A suite program submitted as raw source re-routes onto the
    benchmark-name path: same task id, byte-identical bounds."""
    from repro.suite.registry import all_benchmarks

    spec = next(b for b in all_benchmarks() if b.name == "MapAppend")
    _proc, port = spawn_daemon("--jobs", "1")
    by_name = {"benchmark": "MapAppend", "method": "opt", "samples": 5, "seed": 0}
    status, named = request(port, "POST", "/analyze?wait=1&timeout=120", by_name)
    assert status == 200 and named["state"] == "done"
    by_source = {
        "source": spec.data_driven_source,
        "method": "opt",
        "samples": 5,
        "seed": 0,
    }
    status, sourced = request(port, "POST", "/analyze?wait=1&timeout=120", by_source)
    assert status == 200, sourced
    assert sourced["request"]["benchmark"] == "MapAppend"  # rerouted, not user:<sha>
    assert sourced["result"]["task"] == named["result"]["task"]
    assert sourced["cache_hit"] is True  # shared cache entry
    assert json.dumps(sourced["result"], sort_keys=True) == json.dumps(
        named["result"], sort_keys=True
    )


def test_lint_rejection_is_422_with_diagnostics(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon("--jobs", "1")
    body = {"source": "let main xs = Raml.stat (undefined_fn xs)", "method": "opt"}
    status, doc = request(port, "POST", "/analyze?wait=1", body)
    assert status == 422
    error = doc["error"]
    assert error["code"] == "rejected-lint"
    assert error["diagnostics"], "422 must carry the lint diagnostics"
    assert all("code" in d and "message" in d for d in error["diagnostics"])
    health = request(port, "GET", "/healthz")[1]
    assert health["counters"]["rejected_lint"] >= 1


def test_bad_source_requests_are_structured_400s(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon("--jobs", "1")
    # source and benchmark together is ambiguous
    status, doc = request(
        port, "POST", "/analyze",
        {"source": MEASURABLE, "benchmark": "MapAppend", "method": "opt"},
    )
    assert status == 400 and doc["error"]["code"] == "bad-spec"
    # degree outside the supported range
    status, doc = request(
        port, "POST", "/analyze", {"source": MEASURABLE, "method": "opt", "degree": 9}
    )
    assert status == 400 and doc["error"]["code"] == "bad-spec"


def test_api_keys_gate_admission(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon("--jobs", "1", "--api-key", "sekrit=alice")
    status, doc = request(
        port, "POST", "/analyze", {"benchmark": "MapAppend", "method": "opt"}
    )
    assert status == 401
    assert doc["error"]["code"] == "auth-failed"
    # with the key: admitted and attributed to the tenant
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
    try:
        conn.request(
            "POST",
            "/analyze?wait=1&timeout=90",
            body=json.dumps({"benchmark": "MapAppend", "method": "opt", "samples": 5}),
            headers={"Content-Type": "application/json", "X-Api-Key": "sekrit"},
        )
        response = conn.getresponse()
        doc = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 200 and doc["state"] == "done"
    health = request(port, "GET", "/healthz")[1]
    assert health["auth"] == {"enabled": True, "tenants": ["alice"]}


def test_cpu_quota_sheds_with_provenance(tmp_path, spawn_daemon):
    _proc, port = spawn_daemon(
        "--jobs", "1",
        "--quota-cpu-seconds", "0.001",  # first real request exhausts it
        "--quota-window", "60",
    )
    first = request(
        port, "POST", "/analyze?wait=1&timeout=120",
        {"benchmark": "MapAppend", "method": "opt", "samples": 5, "seed": 0},
    )[1]
    assert first["state"] == "done"
    status, doc = request(
        port, "POST", "/analyze",
        {"benchmark": "Concat", "method": "opt", "samples": 5, "seed": 1},
    )
    assert status == 429
    error = doc["error"]
    assert error["code"] == "quota-exceeded"
    assert "cpu" in error["message"]  # quota provenance, not a bare 429
    assert error.get("retry_after", 0) > 0
    health = request(port, "GET", "/healthz")[1]
    assert health["counters"]["quota_shed"] >= 1
    assert health["quotas"]["tenants"]["public"]["cpu_used_seconds"] > 0
    # a cached replay of the first request is still served (no quota spend)
    replay = request(
        port, "POST", "/analyze?wait=1",
        {"benchmark": "MapAppend", "method": "opt", "samples": 5, "seed": 0},
    )[1]
    assert replay["state"] == "done" and replay["cache_hit"] is True
    assert_no_request_dropped(tmp_path)


# ---------------------------------------------------------------------------
# The hostile corpus, end to end through the daemon
# ---------------------------------------------------------------------------

#: expected terminal classification per corpus member (see tests/hostile/)
CORPUS_TERMINAL = {
    "spin.raml": ("error", "eval-budget"),
    "deep_call.raml": ("error", "eval-budget"),
    "value_bomb.raml": ("error", "eval-budget"),
    "lp_blowup.raml": ("done", None),
    "token_bomb.raml": (422, "rejected-lint"),
    "match_nest.raml": (422, "rejected-lint"),
    "chain_bomb.raml": (422, "rejected-lint"),
    "chain_nest.raml": (422, "rejected-lint"),
    "list_nest.raml": (422, "rejected-lint"),
}


def test_hostile_corpus_through_daemon(tmp_path, spawn_daemon):
    corpus = _corpus_module().corpus_programs()
    assert set(corpus) == set(CORPUS_TERMINAL)
    _proc, port = spawn_daemon("--jobs", "2")
    for name, source in sorted(corpus.items()):
        expected_state, expected_detail = CORPUS_TERMINAL[name]
        body = {"source": source, "method": "opt", "samples": 5, "client": name}
        status, doc = request(port, "POST", "/analyze?wait=1&timeout=120", body)
        if expected_state == 422:
            assert status == 422, f"{name}: {status} {doc}"
            assert doc["error"]["code"] == "rejected-lint"
            assert doc["error"]["diagnostics"]
        else:
            assert status == 200, f"{name}: {status} {doc}"
            assert doc["state"] == expected_state, f"{name}: {doc}"
            if expected_detail:
                stage = doc["result"]["failure"]["stage"]
                assert stage == expected_detail, f"{name}: stage {stage}"
    # the daemon survived the whole corpus and accounted for everything
    health = request(port, "GET", "/healthz")[1]
    assert health["status"] in ("ok", "degraded")
    assert health["counters"]["rejected_lint"] >= 2
    assert health["counters"]["budget_exceeded"] >= 3
    assert_no_request_dropped(tmp_path)


def test_hostile_mix_soak_with_chaos(tmp_path, spawn_daemon):
    """Mini version of the CI hostile-mix soak: 25%+ hostile source traffic
    while worker-crash faults fire, loadgen invariants checked."""
    from repro.server.loadgen import LoadgenConfig, check_invariants, run_loadgen

    corpus_dir = tmp_path / "hostile"
    _corpus_module().materialize(str(corpus_dir))
    _proc, port = spawn_daemon(
        "--jobs", "2",
        env={
            "REPRO_FAULTS": "worker-crash:count=2:action=exit",
            "REPRO_FAULTS_STATE": str(tmp_path / "fault-state"),
        },
    )
    report = run_loadgen(
        LoadgenConfig(
            url=f"http://127.0.0.1:{port}",
            requests=30,
            rate=15.0,
            seed=7,
            samples=5,
            wait_timeout=120.0,
            hostile_dir=str(corpus_dir),
            hostile_fraction=0.4,
            out=str(tmp_path / "BENCH_server.json"),
        )
    )
    check_invariants(report)  # every request terminal, nothing dropped
    taxonomy = report["taxonomy"]
    hostile_buckets = {"rejected-lint", "budget-exceeded", "resource-limit"}
    assert hostile_buckets & set(taxonomy), f"no hostile traffic classified: {taxonomy}"
    assert "transport_error" not in taxonomy
    assert "incomplete" not in taxonomy
    assert_no_request_dropped(tmp_path)
