"""``serve``: the daemon as its clients see it.

``hybrid-aara serve --jobs 1`` runs as a subprocess with a fresh cache and
runs directory.  One closed-loop client long-polls ``POST
/analyze?wait=1`` with a seeded, interleaved mix, and classes each request
by the response:

* ``hit`` — answered from the result cache (a cell answered earlier);
* ``incr`` — edited suite source with ``method: conventional``, answered
  by the incremental fast path from artifacts an editor session wrote
  during set-up;
* ``miss`` — a data-driven Opt, BayesWC or BayesPC cell with a fresh
  request seed, computed by the pool worker;
* ``reject`` — a hostile submission refused at the lint gate.

Hits and incr requests never leave the daemon process; misses cross the
journal write-ahead, the queue, the pool and the worker.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from . import common

#: worker-computed cells: every data-driven method on these benchmarks
MISS_BENCHMARKS = ("MapAppend", "Concat", "QuickSort")
METHODS = ("opt", "bayeswc", "bayespc")
#: request seeds per cell and pass: 18 misses of about 1 s each, so the
#: host's swings inside single misses average out in their total
MISS_SEEDS = 2
SAMPLES = 15
#: files whose edited variants the editor session warms for ``incr``.  Their
#: fast-path latencies fall in four groups by program size: six sources at
#: 6-7 ms (Concat, MapAppend), four at 8-9 ms (QuickSort), two at 10 ms and
#: two at 14 ms (QuickSelect), so the median falls inside the QuickSort
#: group and the p95 inside the last one, not on a boundary between groups
INCR_FILES = (
    "Concat/data-driven", "MapAppend/data-driven", "MapAppend/hybrid",
    "QuickSelect/data-driven", "QuickSelect/hybrid", "QuickSort/data-driven", "QuickSort/hybrid",
)
#: per pass: 300 hits and 14 x 20 incr requests, which leave 15 and 14
#: samples beyond their p95s
HITS = 300
INCR_REPEATS = 20
#: hostile submissions per pass and the lint code each must be refused with
REJECTS = (("token_bomb", "R001"), ("match_nest", "R004")) * 4
NOMINAL_PASS_S = 10.0
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def token_bomb(terms: int = 60_000) -> str:
    """One expression of about ``2 * terms`` tokens: over the lexer budget."""
    return "let main n = Raml.stat (n" + " + 1" * terms + ")\n"


def match_nest(depth: int = 300) -> str:
    """Matches nested ``depth`` deep: three times the parser depth budget."""
    body, indent = [], "  "
    for level in range(depth):
        body.append(f"{indent}match xs with | [] -> {level} | hd :: tl ->\n")
        indent += " "
    return "let rec grind xs =\n" + "".join(body) + f"{indent}0\n" + (
        "let main xs = Raml.stat (grind xs)\n"
    )


HOSTILE = {"token_bomb": token_bomb, "match_nest": match_nest}


# ---------------------------------------------------------------------------
# Daemon lifecycle
# ---------------------------------------------------------------------------


class Daemon:
    """One ``hybrid-aara serve`` subprocess with its own fresh directories."""

    def __init__(self, ctx, traced: bool) -> None:
        self.cache_dir = ctx.work.fresh("cache")
        runs_dir = ctx.work.fresh("runs")
        log_dir = ctx.work.fresh("daemon")
        self.spool = os.path.join(log_dir, "spans.jsonl") if traced else None
        argv = ["serve", "--jobs", "1", "--port", "0",
                "--cache-dir", self.cache_dir, "--runs-dir", runs_dir]
        if traced:
            command = [sys.executable, os.path.join(common.HERE, "daemon.py"), self.spool, *argv]
        else:
            command = [sys.executable, "-m", "repro.cli", *argv]
        env = dict(os.environ, PYTHONPATH=common.SRC)
        self.out_path = os.path.join(log_dir, "stdout")
        with open(self.out_path, "w") as out, open(os.path.join(log_dir, "stderr"), "w") as err:
            self.proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=common.ROOT)
        self.port: Optional[int] = None
        self.peak_rss_mb = 0.0
        self.exit_code: Optional[int] = None

    def wait_ready(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode} during start-up")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not start listening in time")
            with open(self.out_path) as handle:
                for line in handle:
                    if line.startswith("{"):
                        event = json.loads(line)
                        if event.get("event") == "listening":
                            self.port = int(event["port"])
            time.sleep(0.01)
        status, _doc = self.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def request(self, method: str, path: str, body: Optional[Dict[str, Any]] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120.0)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits 75), then make sure the
        daemon and every process it started have ended."""
        if self.proc.poll() is None:
            self.peak_rss_mb = common.tree_peak_rss_mb(self.proc.pid)
        children = common.descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.exit_code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.exit_code = self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in children:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


# ---------------------------------------------------------------------------
# Set-up: daemon plus the editor session that warms the fast path
# ---------------------------------------------------------------------------


def incr_sources() -> List[Tuple[str, str, str]]:
    """``(label, source, root)``: each INCR_FILES variant with a tick
    inserted into its entry function, and into its first function."""
    from repro.evalharness.adhoc import normalize_source
    from repro.lang.parser import parse_program_ex

    from .edit import corpus, tick_edit

    sources = []
    for index, (path, source, _entry) in enumerate(corpus()):
        if path not in INCR_FILES:
            continue
        functions = parse_program_ex(source).functions
        for fdef in (functions[-1], functions[0]):
            edited = normalize_source(tick_edit(source, fdef, f"{2 + index / 16:g}"))
            sources.append((f"{path}+{fdef.name}", edited, functions[-1].name))
    return sources


def setup(ctx) -> Dict[str, Any]:
    from repro.analysis.incremental import ArtifactStore, IncrementalEngine
    from repro.config import ExecutionBudget

    daemon = Daemon(ctx, traced=ctx.trace)
    try:
        engine = IncrementalEngine(
            ArtifactStore(daemon.cache_dir), max_degree=3, budget=ExecutionBudget.untrusted()
        )
        warm = []
        for label, source, root in incr_sources():
            result = engine.analyze(source, path=label)
            warm.append((label, source, result.bounds[root]))
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return {"daemon": daemon, "incr": warm}


def teardown(state) -> None:
    state["daemon"].stop()


# ---------------------------------------------------------------------------
# The measured mix
# ---------------------------------------------------------------------------


def plan(seed: int, pass_index: int, n_incr: int) -> List[Tuple[str, Any]]:
    """One pass's requests in seeded order.

    The multiset is the same for every workload seed, misses included: a
    miss's request seed depends only on the pass, so every run computes the
    same cells (sampler work varies several-fold between request seeds).
    """
    ops: List[Tuple[str, Any]] = []
    for bench in MISS_BENCHMARKS:
        for method in METHODS:
            for k in range(MISS_SEEDS):
                ops.append(("miss", (bench, method, 1000 + MISS_SEEDS * pass_index + k)))
    rng = random.Random(f"{seed}/{pass_index}")
    ops += [("hit", None)] * HITS
    ops += [("incr", i) for i in range(n_incr)] * INCR_REPEATS
    ops += [("reject", pair) for pair in REJECTS]
    rng.shuffle(ops)
    return ops


def classify(status: int, doc: Any) -> str:
    """A request's class, read from the response alone."""
    error = doc.get("error") if isinstance(doc, dict) else None
    if status == 422 and isinstance(error, dict) and error.get("code") == "rejected-lint":
        return "reject"
    if status != 200 or not isinstance(doc, dict) or doc.get("state") != "done":
        return "other"
    if not doc.get("cache_hit"):
        return "miss"
    result = doc.get("result") or {}
    verdict = result.get("verdict") or {}
    if (
        result.get("kind") == "conventional"
        and str(result.get("task", "")).startswith("user:")
        and verdict.get("runtime_seconds") == 0.0
    ):
        return "incr"
    return "hit"


def _body(kind: str, arg: Any, answered: List[Tuple[str, str, int]], rng, state) -> Dict[str, Any]:
    if kind == "miss":
        bench, method, seed = arg
        return {"benchmark": bench, "method": method, "mode": "data-driven",
                "samples": SAMPLES, "seed": seed}
    if kind == "hit":
        bench, method, seed = rng.choice(answered)
        return {"benchmark": bench, "method": method, "mode": "data-driven",
                "samples": SAMPLES, "seed": seed}
    if kind == "incr":
        return {"source": state["incr"][arg][1], "method": "conventional"}
    return {"source": HOSTILE[arg[0]](), "method": "conventional"}


def _verdict_matches(doc, warm_verdict) -> bool:
    verdict = doc["result"]["verdict"]
    return all(
        verdict.get(key) == warm_verdict.get(key)
        for key in ("status", "degree", "detail", "feasible_degrees", "bound")
    )


def _check_bounds(benchmark: str, result_doc) -> bool:
    import numpy as np

    from repro.inference.serialize import result_from_json
    from repro.suite import get_benchmark

    from .grid import CHECK_SIZES

    curves = result_from_json(result_doc).curves(CHECK_SIZES, get_benchmark(benchmark).shape_fn)
    return bool(np.all(np.isfinite(curves)) and np.all(curves >= -1e-9))


def _one_pass(ctx, state, pass_index, ops, samples, outputs, filled, miss_log) -> None:
    """Run one pass of the plan, recording each request's (start, end)
    under its class in ``samples``."""
    from .grid import untimed

    daemon = state["daemon"]
    rng = random.Random(f"{ctx.seed}/{pass_index}/hits")
    answered = sorted(filled)
    queue = plan(ctx.seed, pass_index, len(state["incr"]))
    deferred = 0
    i = 0
    while i < len(queue):
        kind, arg = queue[i]
        i += 1
        if kind == "hit" and not answered:
            deferred += 1  # nothing answered yet: ask right after the next miss
            continue
        body = _body(kind, arg, answered, rng, state)
        ctx.probe.sample()
        t0 = time.perf_counter()
        status, doc = daemon.request("POST", "/analyze?wait=1", body)
        t1 = time.perf_counter()
        klass = classify(status, doc)
        samples.setdefault(klass, []).append((t0, t1))
        if klass != kind:
            ops.fail(f"{kind} {json.dumps(body)[:80]}: answered as {klass} ({status})")
            continue
        if kind == "reject":
            codes = sorted({d.get("code") for d in doc["error"].get("diagnostics") or ()})
            if arg[1] not in codes:
                ops.fail(f"{arg[0]}: rejected with {codes}, expected {arg[1]}")
                continue
            ops.ok()
            outputs.append(["reject", arg[0], codes])
            continue
        if kind == "incr":
            label, _source, warm_verdict = state["incr"][arg]
            if not _verdict_matches(doc, warm_verdict):
                ops.fail(f"incr {label}: verdict differs from the editor session's")
                continue
            ops.ok()
            outputs.append(["incr", label, untimed(doc["result"]["verdict"])])
            continue
        key = (body["benchmark"], body["method"], body["seed"])
        answer = json.dumps(untimed(doc["result"]["result"]), sort_keys=True)
        if kind == "hit":
            if answer != filled.get(key):
                ops.fail(f"hit {key}: answer differs from the miss that filled the cache")
                continue
            ops.ok()
            outputs.append(["hit", list(key), answer])
            continue
        miss_log.append((f"{doc['result']['task']}#{body['seed']}", t1 - t0))
        if not _check_bounds(body["benchmark"], doc["result"]["result"]):
            ops.fail(f"miss {key}: a bound is negative or not finite")
            continue
        ops.ok()
        outputs.append(["miss", list(key), answer])
        filled[key] = answer
        answered = sorted(filled)
        queue[i:i] = [("hit", None)] * deferred
        deferred = 0


def run(ctx, state, tracer) -> Dict[str, Any]:
    daemon = state["daemon"]
    ops = common.Ops()
    outputs: List[Any] = []
    filled: Dict[Tuple[str, str, int], str] = {}
    miss_log: List[Tuple[str, float]] = []
    samples: List[Dict[str, List[Tuple[float, float]]]] = []  # per pass, by class
    for p in range(ctx.passes(NOMINAL_PASS_S)):
        samples.append({})
        _one_pass(ctx, state, p, ops, samples[-1], outputs, filled, miss_log)
    _status, health = daemon.request("GET", "/healthz")
    counters = health["counters"]
    for name in ("degraded", "shed", "rate_limited", "error"):
        ops.check(counters.get(name) == 0, f"/healthz {name} = {counters.get(name)}, expected 0")
    daemon.stop()
    ops.check(daemon.exit_code == 75, f"daemon exited {daemon.exit_code}, expected 75")

    hits = [common.millis(s.get("hit", ())) for s in samples]
    incr = [common.millis(s.get("incr", ())) for s in samples]
    misses = [t1 - t0 for s in samples for t0, t1 in s.get("miss", ())]
    counts = {klass: sum(len(s.get(klass, ())) for s in samples)
              for klass in sorted({k for s in samples for k in s})}
    return {
        "ops": ops,
        "compute_ops": [s.get("miss", []) for s in samples],
        "stored_ops": [s.get("incr", []) for s in samples],
        "peak_rss_mb": daemon.peak_rss_mb,
        "named": {
            "hit_ms.p50": (common.pooled(hits, 0.5), "ms"),
            "hit_ms.p95": (common.pooled(hits, 0.95), "ms"),
            "incr_ms.p50": (common.pooled(incr, 0.5), "ms"),
            "incr_ms.p95": (common.pooled(incr, 0.95), "ms"),
            "miss_s.p50": (common.median(misses), "s"),
        },
        "table": [],
        "notes": [
            f"requests by class: {json.dumps(counts)}",
            f"daemon and worker peak RSS: {daemon.peak_rss_mb:.1f} MB",
        ],
        "outputs": outputs,
        "ops_order": [],
        "passes": len(samples),
        "daemon_counters": counters,
        "daemon_spool": daemon.spool,
        "miss_latencies": miss_log,
    }
