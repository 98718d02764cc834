"""Run one workload of the benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload {grid,edit,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The lines before it are the human-readable report.  See
README.md in this directory.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid", "edit", "serve")
#: set-ups per run; ``setup_s`` is their median
SETUP_TRIALS = 3
SETUP_TRIAL_TIMEOUT_S = 120.0


class Context:
    """What a workload gets: its seed, run length, tracing flag, work dir,
    and the host probe it calls between ops in the measured phase."""

    def __init__(self, args, work) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.probe = None

    def passes(self, nominal_pass_s: float) -> int:
        """Whole passes of the workload's script that fill ``--seconds``;
        a function of the arguments only, so counts repeat run to run."""
        return max(1, round(self.seconds / nominal_pass_s))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_trial(args) -> float:
    """One more set-up in a fresh process; returns its ``setup_s``."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TRIAL_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up trial failed ({done.returncode}): {done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under src/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import common, layers
    from perfbench.tracer import Tracer

    workload = importlib.import_module(f"perfbench.{args.workload}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    with common.WorkDir(args.workload) as work:
        ctx = Context(args, work)
        state = workload.setup(ctx)
        setup_s = time.perf_counter() - _STARTED
        teardown = getattr(workload, "teardown", lambda _state: None)
        if args.setup_only:
            teardown(state)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            tracer.drain_json()  # set-up's own calls are not the workload's
        probe = ctx.probe = common.HostProbe()
        try:
            probe.sample()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = workload.run(ctx, state, tracer)
            finally:
                teardown(state)  # also when the run fails: stop what set-up started
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            probe.sample()
        finally:
            probe.stop()
        if tracer is not None:
            tracer.restore()
        docs = [tracer.drain_json()] if tracer is not None else []
        docs.extend(result.get("trace_docs", ()))
        if result.get("daemon_spool"):
            with open(result["daemon_spool"]) as handle:
                docs.extend(json.loads(line) for line in handle if line.strip())
        facts = common.run_facts(args.seed)

    ops = result["ops"]
    notes = list(result.get("notes", ()))
    notes.append(f"outputs sha256: {common.digest(result['outputs'])}")
    notes.append(f"passes: {result['passes']}; measured phase: wall {wall:.3f} s, "
                 f"cpu of this process {cpu:.3f} s")
    notes.append(f"host probe: {len(probe.took)} probes, median "
                 f"{common.median(probe.took) * 1e3:.3f} ms (reference "
                 f"{common.REFERENCE_PROBE_S * 1e3:g} ms); the named lines are unscaled")
    compute, stored = host_scaled(probe, result)
    named = result["named"]
    for name, (value, unit) in named.items():
        notes.append(f"{name:28s} {value:14.6f} {unit}")
    if tracer is None:
        trials = [setup_s] + [setup_trial(args) for _ in range(SETUP_TRIALS - 1)]
        metrics = {
            "setup_s": common.median(trials),
            "peak_rss_mb": max(common.self_peak_rss_mb(), result.get("peak_rss_mb", 0.0)),
            "ok_frac": (ops.attempted - ops.failed) / ops.attempted,
            "compute_s": common.median(compute),
            "stored_ms.p50": common.pooled(stored, 0.5),
            "stored_ms.p95": common.pooled(stored, 0.95),
        }
        units = dict(common.END_TO_END)
        notes.append("setup trials: " + ", ".join(f"{t:.3f}" for t in trials))
        raw_stored = [common.millis(ops_) for ops_ in result["stored_ops"]]
        notes.append(
            "unscaled: compute_s "
            f"{common.median([common.total(ops_) for ops_ in result['compute_ops']]):.6f}, "
            f"stored_ms.p50 {common.pooled(raw_stored, 0.5):.6f}, "
            f"stored_ms.p95 {common.pooled(raw_stored, 0.95):.6f}"
        )
        table = result["table"]
    else:
        metrics, table, merged = traced_metrics(result, docs)
        metrics["trace.compute_s"] = common.median(compute)
        units = dict(layers.PER_LAYER)
        path = os.path.join(common.WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                       "rows": table, "spans": merged["spans"],
                       "counts": dict(merged["counts"])}, handle)
        notes.append(f"spans and counts: {os.path.relpath(path, ROOT)}")
    common.emit(args.workload, ops, metrics, units, facts, table=table, notes=notes)
    return 0


def host_scaled(probe, result):
    """Per-pass compute totals (s) and per-pass stored-answer latencies (ms),
    each op's time taken at the reference host speed."""
    compute = [
        sum(probe.at_reference(start, end) for start, end in ops)
        for ops in result["compute_ops"]
    ]
    stored = [
        [probe.at_reference(start, end) * 1e3 for start, end in ops]
        for ops in result["stored_ops"]
    ]
    return compute, stored


def traced_metrics(result, docs):
    """Per-layer metrics (per pass) and the per-op rows of the traced run."""
    from perfbench import layers

    merged = layers.merge(docs)
    totals = layers.layer_totals(merged)
    counters = result.get("daemon_counters") or {}
    for name in ("cache_hits", "incremental_hits", "admitted", "rejected_lint",
                 "degraded", "shed", "rate_limited"):
        totals[f"server.{name}"] = float(counters.get(name, 0))
    worker = {
        span["op"]: span["end"] - span["start"]
        for span in merged["spans"]
        if span["name"] == "server.worker"
    }
    totals["server.wait_ms"] = 1e3 * sum(
        latency - worker.get(op, 0.0) for op, latency in result.get("miss_latencies", ())
    )
    passes = result["passes"]
    metrics = {name: totals[name] / passes for name, _unit in layers.PER_LAYER}
    metrics["lp.dense_mb"] = totals["lp.dense_mb"]
    rows = layers.rows_by_op(merged, result["ops_order"])
    table = []
    for op, by_span in rows:
        top = sorted(by_span.items(), key=lambda item: -item[1])[:6]
        table.append((op, " ".join(f"{name}={seconds:.3f}s" for name, seconds in top)))
    return metrics, table, merged


if __name__ == "__main__":
    sys.exit(main())
