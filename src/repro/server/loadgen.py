"""Open-loop load generator for the bound-inference daemon.

Replays the benchmark suite as synthetic traffic: arrivals follow a
seeded Poisson process at ``--rate`` requests/second, and every arrival
fires on schedule whether or not earlier requests have completed (open
loop — the generator never backs off, so daemon overload shows up as
429s and latency, not as a silently throttled workload).  Each request
long-polls ``POST /analyze?wait=1`` to a terminal state and is
classified into an error taxonomy::

    done | done_degraded | cached | error | timeout | cancelled
         | rate_limited | shed | rejected | draining | incomplete
         | transport_error | rejected-lint | budget-exceeded
         | resource-limit | quota-shed

Latency percentiles (p50/p95/p99, nearest-rank) plus the taxonomy and a
final ``/healthz`` snapshot are written atomically to
``BENCH_server.json``.  ``--check`` turns the soak invariants into an
exit code: every scheduled request must reach a terminal response
(nothing dropped, no transport errors), which is what the CI soak job
asserts while chaos faults are active in the daemon.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..atomic import atomic_write_text
from ..errors import ReproError

#: taxonomy classes that mean "the daemon gave this request a terminal
#: answer" — the soak invariant is that every request lands in one
TERMINAL_CLASSES = frozenset(
    {
        "done",
        "done_degraded",
        "cached",
        "error",
        "timeout",
        "cancelled",
        "rate_limited",
        "shed",
        "rejected",
        "draining",
        # hostile/source-mode taxonomy: admission gate, execution budgets,
        # guarded analysis, and tenant quotas are all terminal answers
        "rejected-lint",
        "budget-exceeded",
        "resource-limit",
        "quota-shed",
    }
)

DEFAULT_BENCHMARKS = ("MapAppend", "Concat")
DEFAULT_METHODS = ("bayespc", "bayeswc", "opt")


@dataclass
class LoadgenConfig:
    url: str = "http://127.0.0.1:8787"
    requests: int = 50
    rate: float = 10.0  # mean arrivals/second (open loop)
    seed: int = 0
    benchmarks: Tuple[str, ...] = DEFAULT_BENCHMARKS
    methods: Tuple[str, ...] = DEFAULT_METHODS
    samples: int = 10
    seeds: int = 2  # distinct request seeds (small pool ⇒ cache hits)
    wait_timeout: float = 120.0
    client: str = "loadgen"
    out: Optional[str] = "BENCH_server.json"
    check: bool = False
    #: directory of hostile/ad-hoc programs mixed in as source submissions
    hostile_dir: Optional[str] = None
    hostile_fraction: float = 0.25
    api_key: Optional[str] = None


@dataclass
class Sample:
    index: int
    offset: float
    klass: str = "incomplete"
    status: int = 0
    latency: Optional[float] = None
    request_id: Optional[str] = None
    detail: Optional[str] = None
    body: Dict[str, Any] = field(default_factory=dict)


def _classify(status: int, doc: Dict[str, Any]) -> str:
    if status in (200, 202):
        state = doc.get("state")
        if state == "done":
            # the guarded analyzer reports an LP over budget as a verdict
            # (ok=True, status "resource-limit"), not a failure
            verdict = ((doc.get("result") or {}).get("verdict") or {})
            if verdict.get("status") == "resource-limit":
                return "resource-limit"
            if doc.get("cache_hit"):
                return "cached"
            if doc.get("degraded"):
                return "done_degraded"
            return "done"
        if state == "error":
            # worker-side budget classification: an aborted hostile run is
            # its own bucket, not an undifferentiated "error"
            stage = ((doc.get("result") or {}).get("failure") or {}).get("stage")
            if stage == "eval-budget":
                return "budget-exceeded"
            if stage == "resource-limit":
                return "resource-limit"
            return "error"
        if state in ("timeout", "cancelled"):
            return str(state)
        return "incomplete"
    if status == 429:
        code = str(doc.get("error", {}).get("code", ""))
        if code == "quota-exceeded":
            return "quota-shed"
        if code == "rate-limited":
            return "rate_limited"
        message = str(doc.get("error", {}).get("message", ""))
        return "rate_limited" if "rate" in message else "shed"
    if status == 422:
        return "rejected-lint"
    if status == 400:
        return "rejected"
    if status == 503:
        return "draining"
    return f"http_{status}"


def _fire(
    base: str,
    sample: Sample,
    wait_timeout: float,
    client: str,
    api_key: Optional[str] = None,
) -> None:
    split = urlsplit(base)
    started = time.monotonic()
    try:
        conn = http.client.HTTPConnection(
            split.hostname, split.port or 80, timeout=wait_timeout + 30.0
        )
        try:
            headers = {"Content-Type": "application/json", "X-Client": client}
            if api_key:
                headers["X-Api-Key"] = api_key
            conn.request(
                "POST",
                f"/analyze?wait=1&timeout={wait_timeout:g}",
                body=json.dumps(sample.body),
                headers=headers,
            )
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        sample.latency = time.monotonic() - started
        sample.status = response.status
        try:
            doc = json.loads(raw) if raw else {}
        except ValueError:
            doc = {}
        sample.request_id = doc.get("id")
        sample.klass = _classify(response.status, doc)
        if sample.klass in ("error", "timeout"):
            sample.detail = doc.get("error")
    except Exception as exc:
        sample.latency = time.monotonic() - started
        sample.klass = "transport_error"
        sample.detail = f"{type(exc).__name__}: {exc}"


def load_hostile_corpus(directory: str) -> List[Tuple[str, str]]:
    """``(name, source)`` for every program file in a hostile corpus dir."""
    corpus: List[Tuple[str, str]] = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path) or not name.endswith((".raml", ".ml")):
            continue
        with open(path, "r") as handle:
            corpus.append((name, handle.read()))
    if not corpus:
        raise ReproError(f"no .raml/.ml programs found in {directory}")
    return corpus


def build_plan(config: LoadgenConfig) -> List[Sample]:
    """The deterministic arrival schedule: (offset, request body) pairs.

    With ``hostile_dir`` set, roughly ``hostile_fraction`` of arrivals
    submit a corpus program as raw ``source`` instead of a registry
    benchmark name — the same admission gate, budgets, and quota path a
    hostile tenant would exercise.
    """
    rng = random.Random(config.seed)
    corpus = load_hostile_corpus(config.hostile_dir) if config.hostile_dir else []
    plan: List[Sample] = []
    offset = 0.0
    for index in range(config.requests):
        if config.rate > 0:
            offset += rng.expovariate(config.rate)
        if corpus and rng.random() < config.hostile_fraction:
            name, source = rng.choice(corpus)
            body = {
                "source": source,
                "method": rng.choice(list(config.methods)),
                "mode": "data-driven",
                "samples": config.samples,
                "seed": rng.randrange(max(1, config.seeds)),
                "client": config.client,
            }
        else:
            body = {
                "benchmark": rng.choice(list(config.benchmarks)),
                "method": rng.choice(list(config.methods)),
                "mode": "data-driven",
                "samples": config.samples,
                "seed": rng.randrange(max(1, config.seeds)),
                "client": config.client,
            }
        plan.append(Sample(index=index, offset=offset, body=body))
    return plan


def percentile(latencies: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile (no interpolation, no numpy needed)."""
    if not latencies:
        return None
    ordered = sorted(latencies)
    rank = max(1, min(len(ordered), int(round(fraction * len(ordered) + 0.5))))
    return ordered[rank - 1]


def _healthz(base: str) -> Optional[Dict[str, Any]]:
    split = urlsplit(base)
    try:
        conn = http.client.HTTPConnection(split.hostname, split.port or 80, timeout=10.0)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()
    except Exception:
        return None


def run_loadgen(config: LoadgenConfig) -> Dict[str, Any]:
    """Run the open-loop replay; returns (and optionally writes) the report."""
    plan = build_plan(config)
    start = time.monotonic()
    threads: List[threading.Thread] = []

    def _scheduled(sample: Sample) -> None:
        delay = sample.offset - (time.monotonic() - start)
        if delay > 0:
            time.sleep(delay)
        _fire(config.url, sample, config.wait_timeout, config.client, config.api_key)

    for sample in plan:
        thread = threading.Thread(target=_scheduled, args=(sample,), daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start

    taxonomy: Dict[str, int] = {}
    for sample in plan:
        taxonomy[sample.klass] = taxonomy.get(sample.klass, 0) + 1
    latencies = [s.latency for s in plan if s.latency is not None]
    report = {
        "version": 1,
        "config": {
            "url": config.url,
            "requests": config.requests,
            "rate": config.rate,
            "seed": config.seed,
            "benchmarks": list(config.benchmarks),
            "methods": list(config.methods),
            "samples": config.samples,
            "seeds": config.seeds,
            "hostile_dir": config.hostile_dir,
            "hostile_fraction": config.hostile_fraction if config.hostile_dir else 0.0,
        },
        "wall_seconds": round(wall, 3),
        "achieved_rps": round(config.requests / wall, 3) if wall > 0 else None,
        "taxonomy": dict(sorted(taxonomy.items())),
        "latency_seconds": {
            "count": len(latencies),
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "mean": sum(latencies) / len(latencies) if latencies else None,
            "max": max(latencies) if latencies else None,
        },
        "healthz": _healthz(config.url),
        "failures": [
            {"index": s.index, "class": s.klass, "detail": s.detail}
            for s in plan
            if s.klass in ("transport_error", "incomplete")
        ],
    }
    if config.out:
        atomic_write_text(config.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if config.check:
        check_invariants(report)
    return report


def check_invariants(report: Dict[str, Any]) -> None:
    """The soak invariants: raise :class:`ReproError` when violated."""
    taxonomy = report["taxonomy"]
    total = sum(taxonomy.values())
    expected = report["config"]["requests"]
    problems = []
    if total != expected:
        problems.append(f"{expected - total} request(s) unaccounted for")
    non_terminal = {
        klass: count for klass, count in taxonomy.items() if klass not in TERMINAL_CLASSES
    }
    if non_terminal:
        problems.append(f"non-terminal responses: {non_terminal}")
    if problems:
        raise ReproError("soak invariants violated: " + "; ".join(problems))

