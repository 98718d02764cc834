"""The layer table: which program callables the traced run wraps, and how
the recorded spans and counts become the per-layer metrics.

Each callable is wrapped at the module (or class) attribute through which
the program calls it, so a function imported by name into two modules is
wrapped in both.  ``linprog`` is wrapped separately in ``repro.lp.solver``
(the AARA LPs) and ``repro.stats.polytope`` (facial reduction), so the
facial-reduction LPs get their own span instead of hiding in the caller's.
"""

from __future__ import annotations

import collections
import importlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .tracer import Tracer, self_times

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("lang.compile_s", "s"),
    ("lang.parse_ms", "ms"),
    ("inference.data_s", "s"),
    ("aara.build_s", "s"),
    ("lp.solve_s", "s"),
    ("lp.highs_s", "s"),
    ("lp.highs_calls", "count"),
    ("lp.iterations", "count"),
    ("lp.fallbacks", "count"),
    ("lp.solves", "count"),
    ("lp.dense_mb", "MB"),
    ("stats.facial_s", "s"),
    ("stats.facial_lps", "count"),
    ("stats.polytope_s", "s"),
    ("stats.warmstart_s", "s"),
    ("stats.reflective_s", "s"),
    ("stats.reflections", "count"),
    ("stats.survival_s", "s"),
    ("evalharness.runner_s", "s"),
    ("evalharness.cache_load_ms", "ms"),
    ("analysis.fingerprint_ms", "ms"),
    ("analysis.store_load_ms", "ms"),
    ("analysis.store_write_ms", "ms"),
    ("analysis.store_loads", "count"),
    ("analysis.store_writes", "count"),
    ("analysis.reused", "count"),
    ("analysis.recomputed", "count"),
    ("analysis.lint_ms", "ms"),
    ("analysis.peek_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.worker_s", "s"),
    ("server.wait_ms", "ms"),
    ("server.cache_hits", "count"),
    ("server.incremental_hits", "count"),
    ("server.admitted", "count"),
    ("server.rejected_lint", "count"),
    ("server.degraded", "count"),
    ("server.shed", "count"),
    ("server.rate_limited", "count"),
    ("trace.compute_s", "s"),
)

#: span name -> (metric, scale): a layer's *self* time, summed
SELF_TIME = {
    "lang.compile": ("lang.compile_s", 1.0),
    "lang.parse": ("lang.parse_ms", 1e3),
    "inference.data": ("inference.data_s", 1.0),
    "aara.build": ("aara.build_s", 1.0),
    "lp.solve": ("lp.solve_s", 1.0),
    "lp.highs": ("lp.highs_s", 1.0),
    "stats.facial": ("stats.facial_s", 1.0),
    "stats.polytope": ("stats.polytope_s", 1.0),
    "stats.warmstart": ("stats.warmstart_s", 1.0),
    "stats.reflective": ("stats.reflective_s", 1.0),
    "stats.survival": ("stats.survival_s", 1.0),
    "bench.cell": ("evalharness.runner_s", 1.0),
    "evalharness.cache_load": ("evalharness.cache_load_ms", 1e3),
    "analysis.fingerprint": ("analysis.fingerprint_ms", 1e3),
    "analysis.store_load": ("analysis.store_load_ms", 1e3),
    "analysis.store_write": ("analysis.store_write_ms", 1e3),
    "analysis.lint": ("analysis.lint_ms", 1e3),
    "analysis.peek": ("analysis.peek_ms", 1e3),
    "server.submit": ("server.submit_ms", 1e3),
}

#: span name -> metric: the layer's whole duration (children included)
WALL_TIME = {"server.worker": ("server.worker_s", 1.0)}

#: tracer counter names that are metrics as they stand
COUNTS = (
    "lp.highs_calls",
    "lp.iterations",
    "lp.fallbacks",
    "lp.solves",
    "stats.facial_lps",
    "stats.reflections",
    "analysis.store_loads",
    "analysis.store_writes",
    "analysis.reused",
    "analysis.recomputed",
)


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------


def _count_solve(tracer: Tracer, _args, _kwargs) -> None:
    tracer.count("lp.solves")


def _solve_done(tracer: Tracer, _args, _kwargs, solution) -> None:
    tracer.count("lp.fallbacks", int(getattr(solution, "fallbacks", 0) or 0))


def _highs_done(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("lp.highs_calls")
    tracer.count("lp.iterations", int(getattr(result, "nit", 0) or 0))


def _facial_done(tracer: Tracer, _args, _kwargs, _result) -> None:
    tracer.count("stats.facial_lps")


def _outside_warmstart(tracer: Tracer) -> bool:
    # low_norm_interior_point solves its own LP through the polytope
    # module's linprog; that one is warm-start work, not facial reduction
    current = tracer.current()
    return current is None or current.name != "stats.warmstart"


def _dense_request(tracer: Tracer, args, kwargs) -> None:
    problem = args[0]
    extra = args[1] if len(args) > 1 else kwargs.get("extra_vars", ())
    columns = problem.column_index()
    cols = len(columns) + len({name for name in extra or () if name not in columns})
    tracer.note_max("lp.dense_mb", len(problem.constraints) * cols * 8 / float(1 << 20))


def _reflections(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("stats.reflections", int(getattr(result, "n_reflections", 0) or 0))


def _store_load(tracer: Tracer, _args, _kwargs, _result) -> None:
    tracer.count("analysis.store_loads")


def _store_write(tracer: Tracer, _args, _kwargs, _result) -> None:
    tracer.count("analysis.store_writes")


def install(tracer: Tracer, worker_spool: Optional[str] = None) -> None:
    """Wrap every layer callable; ``worker_spool`` is where a forked pool
    worker appends its spans after each task (daemon runs only)."""
    mod = importlib.import_module
    lang = mod("repro.lang")
    incremental = mod("repro.analysis.incremental")
    engine = mod("repro.analysis.engine")
    inference = mod("repro.inference")
    hybrid = mod("repro.inference.hybrid")
    analyze = mod("repro.aara.analyze")
    solver = mod("repro.lp.solver")
    problem = mod("repro.lp.problem")
    polytope = mod("repro.stats.polytope")
    runner = mod("repro.evalharness.runner")
    core = mod("repro.server.core")
    work = mod("repro.server.work")

    wrap = tracer.wrap
    wrap(lang, "compile_program", "lang.compile")
    wrap(incremental, "parse_program_ex", "lang.parse")
    wrap(inference, "collect_dataset", "inference.data")
    for owner in (analyze, hybrid):
        wrap(owner, "build_analysis", "aara.build")
    for owner in (analyze, hybrid, solver):
        wrap(owner, "solve_lexicographic", "lp.solve", before=_count_solve, after=_solve_done)
    wrap(solver, "linprog", "lp.highs", after=_highs_done)
    wrap(problem.LPProblem, "to_matrices", None, before=_dense_request)
    wrap(polytope, "linprog", "stats.facial", after=_facial_done, when=_outside_warmstart)
    wrap(hybrid, "polytope_from_lp", "stats.polytope")
    for attr in ("low_norm_interior_point", "map_estimate", "diagonal_preconditioner"):
        wrap(hybrid, attr, "stats.warmstart")
    wrap(hybrid, "reflective_hmc_chains", "stats.reflective", after=_reflections)
    wrap(hybrid, "infer_worst_case_samples", "stats.survival")
    wrap(incremental, "fingerprint_functions", "analysis.fingerprint")
    wrap(incremental.ArtifactStore, "load", "analysis.store_load", after=_store_load)
    wrap(incremental.ArtifactStore, "store", "analysis.store_write", after=_store_write)
    wrap(engine, "lint_source", "analysis.lint")
    wrap(incremental, "peek_conventional_verdict", "analysis.peek")
    wrap(runner.ResultCache, "load", "evalharness.cache_load")
    wrap(core.ServerCore, "submit", "server.submit")

    def _worker_start(tracer_: Tracer, args, kwargs) -> None:
        tracer_.adopt_fork()
        task = args[0] if args else kwargs["task"]
        # several misses share a cell id; the request seed tells them apart
        tracer_.op = f"{task.task_id}#{task.root_seed}"

    def _worker_done(tracer_: Tracer, _args, _kwargs, _outcome) -> None:
        if worker_spool is not None:
            tracer_.append_to(worker_spool)

    wrap(work, "execute_task", "server.worker", before=_worker_start, after=_worker_done)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def merge(docs: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine drained tracer states from several processes."""
    spans: List[Dict[str, Any]] = []
    counts: collections.Counter = collections.Counter()
    maxima: Dict[str, float] = {}
    for doc in docs:
        spans.extend(doc["spans"])
        counts.update(doc["counts"])
        for name, value in doc["maxima"].items():
            maxima[name] = max(value, maxima.get(name, value))
    return {"spans": spans, "counts": counts, "maxima": maxima}


def layer_totals(merged: Dict[str, Any]) -> Dict[str, float]:
    """Whole-run per-layer values (before per-pass scaling)."""
    values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    own = self_times(merged["spans"])
    for span in merged["spans"]:
        name = span["name"]
        if name in SELF_TIME:
            metric, scale = SELF_TIME[name]
            values[metric] += own[span["sid"]] * scale
        if name in WALL_TIME:
            metric, scale = WALL_TIME[name]
            values[metric] += (span["end"] - span["start"]) * scale
    for name in COUNTS:
        values[name] += merged["counts"].get(name, 0)
    values["lp.dense_mb"] = merged["maxima"].get("lp.dense_mb", 0.0)
    return values


def rows_by_op(merged: Dict[str, Any], ops: Sequence[Any]) -> List[Tuple[Any, Dict[str, float]]]:
    """Per-op self-time breakdown (seconds by span name) for the report."""
    own = self_times(merged["spans"])
    by_sid = {span["sid"]: span for span in merged["spans"]}
    table: Dict[Any, Dict[str, float]] = collections.defaultdict(lambda: collections.defaultdict(float))
    for span in merged["spans"]:
        root = span
        while root["parent"] is not None and root["parent"] in by_sid:
            root = by_sid[root["parent"]]
        op = span["op"] if span["op"] is not None else root["op"]
        table[op][span["name"]] += own[span["sid"]]
    return [(op, dict(table.get(op, {}))) for op in ops]
