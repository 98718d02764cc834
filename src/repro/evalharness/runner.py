"""Task-graph executor for the Section 7 evaluation grid.

The paper's evaluation is a benchmark × method × mode grid (Table 1:
10 programs × {Opt, BayesWC, BayesPC} × {data-driven, hybrid}).  Every
cell is an independent :class:`EvalTask`; this module expands the grid,
derives a deterministic per-task seed from ``(root_seed, benchmark,
method, mode)``, executes the tasks — in-process for ``jobs=1``, on the
supervised worker pool of :mod:`repro.evalharness.pool` otherwise —
memoizes completed tasks in a content-addressed on-disk cache, and records per-task timing/RSS/retry
metadata in a structured metrics report.

Layering: this module knows nothing about :class:`BenchmarkRun`
assembly or rendering; ``table1.py`` builds runs from the JSON-safe
task outcomes returned here, and ``curves.py`` / ``gaps.py`` consume
the canonical grid constants (:data:`METHODS`, :data:`MODES`) below.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import os
import resource
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import backoff, checkpoint, faultinject, telemetry
from ..atomic import atomic_write_text
from ..config import AnalysisConfig, DEFAULT_CONFIG
from ..errors import LintError, ReproError, TaskTimeoutError, failure_stage
from ..store import Store
from .journal import RunJournal

#: the canonical Table 1 grid axes — the single source of truth for the
#: whole evalharness (table1/curves/gaps import these)
METHODS = ("opt", "bayeswc", "bayespc")
MODES = ("data-driven", "hybrid")

#: bump whenever an analysis-affecting code change should invalidate the
#: on-disk result cache (v4: entries carry a payload checksum)
CACHE_VERSION = 4


def max_rss_kb(raw: Optional[int] = None, platform: Optional[str] = None) -> int:
    """Peak RSS of this process in KiB, portably.

    ``getrusage().ru_maxrss`` is KiB on Linux but *bytes* on macOS
    (and KiB on the BSDs) — normalize so metrics JSON is comparable
    across platforms.  ``raw``/``platform`` exist for unit tests.
    """
    if raw is None:
        raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if (platform or sys.platform) == "darwin":
        return int(raw) // 1024
    return int(raw)


class _WatchdogExpired(BaseException):
    """Raised by the serial watchdog's SIGALRM handler.

    Derives from :class:`BaseException` on purpose: the worker body
    (``execute_task``) converts any ``Exception`` into a recorded error
    outcome, which would swallow the timeout — a watchdog expiry must
    always reach the runner's retry loop.
    """


# ---------------------------------------------------------------------------
# Deterministic seed derivation
# ---------------------------------------------------------------------------


def derive_seed(root_seed: int, *parts: object) -> int:
    """A stable 63-bit seed from ``(root_seed, *parts)``.

    Uses SHA-256 rather than Python's ``hash()`` so the derivation is
    identical across interpreter sessions and worker processes
    (``hash()`` of strings is salted per-process by PYTHONHASHSEED).
    Delegates to :func:`repro.backoff.derive_u63` so the runner and the
    server share one derivation.
    """
    return backoff.derive_u63(root_seed, *parts)


def input_seed(root_seed: int, benchmark: str) -> int:
    """Seed for a benchmark's runtime-data inputs (shared by all modes)."""
    return derive_seed(root_seed, benchmark, "inputs")


def method_seed(root_seed: int, benchmark: str, mode: str, method: str) -> int:
    """Seed for one (benchmark, mode, method) sampler."""
    return derive_seed(root_seed, benchmark, mode, method)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalTask:
    """One independent unit of the evaluation grid.

    Tasks reference benchmarks by registry name (the specs themselves
    hold lambdas and cannot cross a process boundary) and carry the
    *base* config; the per-mode config (degree, theta0) is derived in
    the worker via ``spec.config``.
    """

    kind: str  # 'conventional' | 'analysis'
    benchmark: str
    root_seed: int
    config: AnalysisConfig = DEFAULT_CONFIG
    mode: Optional[str] = None  # analysis tasks only
    method: Optional[str] = None  # analysis tasks only
    conventional_max_degree: int = 3
    #: ad-hoc source tasks (untrusted-source path): when ``source`` is
    #: set, ``benchmark`` is the synthetic content address ``user:<sha12>``
    #: and the worker builds a spec from the source itself (see
    #: :mod:`repro.evalharness.adhoc`) instead of the suite registry
    source: Optional[str] = None
    entry: Optional[str] = None
    degree: Optional[int] = None

    @property
    def task_id(self) -> str:
        if self.kind == "conventional":
            return f"{self.benchmark}/static/aara"
        return f"{self.benchmark}/{self.mode}/{self.method}"

    @property
    def seed(self) -> int:
        if self.kind == "conventional":
            return 0  # static analysis consumes no randomness
        return method_seed(self.root_seed, self.benchmark, self.mode, self.method)


def expand_grid(
    specs: Sequence[object],
    config: AnalysisConfig = DEFAULT_CONFIG,
    seed: int = 0,
    methods: Sequence[str] = METHODS,
    modes: Sequence[str] = MODES,
    conventional_max_degree: int = 3,
) -> List[EvalTask]:
    """All tasks for a benchmark subset: one conventional verdict per
    spec plus one analysis task per available (mode, method) cell."""
    tasks: List[EvalTask] = []
    for spec in specs:
        tasks.append(
            EvalTask(
                kind="conventional",
                benchmark=spec.name,
                root_seed=seed,
                config=config,
                conventional_max_degree=conventional_max_degree,
            )
        )
        for mode in modes:
            if mode == "hybrid" and spec.hybrid_source is None:
                continue
            for method in methods:
                tasks.append(
                    EvalTask(
                        kind="analysis",
                        benchmark=spec.name,
                        root_seed=seed,
                        config=config,
                        mode=mode,
                        method=method,
                        conventional_max_degree=conventional_max_degree,
                    )
                )
    return tasks


# ---------------------------------------------------------------------------
# Worker-side execution (must stay module-level: it crosses the pool)
# ---------------------------------------------------------------------------

#: entries each worker-local memo keeps: a whole ``bench all`` grid
#: needs 17 (one per program variant), and a daemon worker, which lives
#: as long as the daemon, sees a new key for every distinct source
MEMO_SIZE = 64


class _Memo(collections.OrderedDict):
    """A worker-local memo of the :data:`MEMO_SIZE` most recently used keys."""

    def get_or_build(self, key, build: Callable[[], Any]) -> Any:
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = build()
        if len(self) > MEMO_SIZE:
            self.popitem(last=False)
        return value


#: worker-local memoization so the 3 methods sharing one (benchmark, mode)
#: don't recompile the program / re-interpret the runtime-data runs
_PROGRAM_CACHE = _Memo()
_DATASET_CACHE = _Memo()
#: (benchmark, mode, budget) -> lint result, so the lint guard runs once
#: per worker per program variant, not once per grid cell
_LINT_CACHE = _Memo()


def _lint_guard(spec, mode: str, budget=None) -> None:
    """Reject programs with fatal lint errors
    (:func:`repro.analysis.engine.fatal_errors`) before compiling them."""
    # the module, not the function: a wrapper installed on
    # ``engine.lint_source`` is then honoured
    from ..analysis import engine

    def build():
        source, entry = _mode_variant(spec, mode)
        return engine.lint_source(
            source, path=f"{spec.name}/{mode}", entry=entry, budget=budget
        )

    key = (spec.name, mode, budget)
    with telemetry.span(
        "lint.guard", benchmark=spec.name, mode=mode, cached=key in _LINT_CACHE
    ):
        result = _LINT_CACHE.get_or_build(key, build)
    fatal = engine.fatal_errors(result.diagnostics)
    if fatal:
        first = fatal[0]
        raise LintError(
            f"lint failed for {spec.name}/{mode}: "
            f"[{first.code}] {first.message} at {first.location()}",
            diagnostics=fatal,
        )


#: worker-local ad-hoc spec memo: (source digest, entry, degree, budget)
_ADHOC_CACHE = _Memo()


def _adhoc_spec_cached(task: "EvalTask"):
    """Build (and memoize) the synthetic spec for a source task."""
    from .adhoc import adhoc_spec, source_digest

    key = (source_digest(task.source), task.entry, task.degree, task.config.budget)
    return _ADHOC_CACHE.get_or_build(
        key,
        lambda: adhoc_spec(
            task.source, task.entry, degree=task.degree, budget=task.config.budget
        ),
    )


def _mode_variant(spec, mode: str) -> Tuple[str, str]:
    if mode == "hybrid":
        if spec.hybrid_source is None:
            raise ReproError(f"benchmark {spec.name} has no hybrid variant")
        return spec.hybrid_source, spec.hybrid_entry
    return spec.data_driven_source, spec.data_driven_entry


def _compiled_program(spec, mode: str, budget=None):
    from ..lang import compile_program

    def build():
        _lint_guard(spec, mode, budget=budget)
        return compile_program(_mode_variant(spec, mode)[0], budget=budget)

    key = (spec.name, mode, budget)
    # the span is emitted even on a memo hit (dur ≈ 0, cached=True) so
    # every cell's trace shows the full stage pipeline, not just the
    # first cell each worker happened to compile for
    with telemetry.span(
        "lang.compile", benchmark=spec.name, mode=mode, cached=key in _PROGRAM_CACHE
    ):
        return _PROGRAM_CACHE.get_or_build(key, build)


def _mode_dataset(spec, mode: str, root_seed: int, budget=None):
    from ..inference import collect_dataset

    def build():
        rng = np.random.default_rng(input_seed(root_seed, spec.name))
        inputs = spec.inputs(rng)
        program = _compiled_program(spec, mode, budget=budget)
        _source, entry = _mode_variant(spec, mode)
        return collect_dataset(program, entry, inputs, budget=budget)

    key = (spec.name, mode, root_seed, budget)
    with telemetry.span(
        "data.dataset", benchmark=spec.name, mode=mode, cached=key in _DATASET_CACHE
    ):
        return _DATASET_CACHE.get_or_build(key, build)


def verdict_from_json(data: Dict[str, Any]):
    """The :class:`~repro.aara.analyze.ConventionalVerdict` of a task
    outcome's ``verdict`` record."""
    from ..aara.analyze import ConventionalVerdict

    return ConventionalVerdict.from_json(data)


def task_outcome(task: EvalTask, **fields: Any) -> Dict[str, Any]:
    """The JSON-safe outcome record of ``task``: its identity, then
    ``fields`` over an empty, not-yet-ok result."""
    outcome: Dict[str, Any] = {
        "task": task.task_id,
        "kind": task.kind,
        "benchmark": task.benchmark,
        "mode": task.mode,
        "method": task.method,
        "seed": task.seed,
        "ok": False,
        "outcome": "ok",
        "error": None,
        "failure": None,
        "result": None,
        "verdict": None,
    }
    outcome.update(fields)
    return outcome


def execute_task(task: EvalTask) -> Dict[str, Any]:
    """Run one task and return a JSON-safe outcome (runs in a worker).

    ``ReproError`` (infeasible LPs, sampler failures, …) is an expected
    per-cell outcome and is recorded, not raised; any other exception is
    captured as an error outcome so a deterministic bug in one cell
    cannot poison the pool or trigger pointless retries.

    Outcomes carry error provenance: ``outcome`` is one of ``ok`` /
    ``error`` / ``crash`` / ``timeout``, and failed cells get a
    ``failure`` dict recording the pipeline stage, the error class, the
    attempt count (patched in by the runner) and the elapsed time.
    """
    from ..suite import get_benchmark

    telemetry.ensure_from_env()
    checkpoint.ensure_from_env()
    started = time.perf_counter()
    started_ts = time.time()
    outcome = task_outcome(task)
    accumulator = telemetry.stage_totals()
    with contextlib.ExitStack() as stack:
        if accumulator is not None:
            stack.enter_context(accumulator)
        # namespace sampler chain checkpoints under this grid cell (no-op
        # unless REPRO_CHECKPOINT is active for this run)
        stack.enter_context(checkpoint.task_scope(task.task_id))
        stack.enter_context(
            telemetry.span(
                "runner.task",
                stage="task",
                task=task.task_id,
                kind=task.kind,
                benchmark=task.benchmark,
                mode=task.mode,
                method=task.method,
                seed=task.seed,
                attempt_pid=os.getpid(),
            )
        )
        # fault-injection points sit *outside* the try block: an injected
        # crash must look like a real worker death (retried by the runner),
        # not like a recorded per-cell analysis error
        faultinject.fault_point(faultinject.WORKER_CRASH, task.task_id)
        faultinject.fault_point(faultinject.WORKER_HANG, task.task_id)
        budget = task.config.budget
        try:
            if task.source is not None:
                spec = _adhoc_spec_cached(task)
            else:
                spec = get_benchmark(task.benchmark)
            if task.kind == "conventional":
                from ..aara.analyze import run_conventional

                program = _compiled_program(spec, "data-driven", budget=budget)
                with telemetry.span(
                    "static.verdict",
                    benchmark=task.benchmark,
                    max_degree=task.conventional_max_degree,
                ):
                    verdict = run_conventional(
                        program,
                        spec.data_driven_entry,
                        max_degree=task.conventional_max_degree,
                        budget=budget,
                    )
                outcome["verdict"] = verdict.to_json()
                outcome["ok"] = True
            else:
                from ..inference import run_analysis
                from ..inference.serialize import result_to_json

                program = _compiled_program(spec, task.mode, budget=budget)
                dataset = _mode_dataset(spec, task.mode, task.root_seed, budget=budget)
                _source, entry = _mode_variant(spec, task.mode)
                mode_config = spec.config(task.config, hybrid=(task.mode == "hybrid"))
                rng = np.random.default_rng(task.seed)
                result = run_analysis(
                    program, entry, dataset, mode_config, task.method, rng=rng
                )
                outcome["result"] = result_to_json(result)
                outcome["ok"] = True
        except Exception as exc:  # ReproError or a deterministic crash: report, don't retry
            crash = not isinstance(exc, ReproError)
            outcome.update(
                outcome="crash" if crash else "error",
                error=f"{'crash ' if crash else ''}{type(exc).__name__}: {exc}",
                failure={
                    "stage": failure_stage(exc),
                    "error_class": type(exc).__name__,
                    "attempts": 1,
                    "elapsed": time.perf_counter() - started,
                },
            )
    outcome["metrics"] = {
        "wall_seconds": time.perf_counter() - started,
        "max_rss_kb": max_rss_kb(),
        "pid": os.getpid(),
        "started_ts": started_ts,
    }
    if accumulator is not None:
        outcome["metrics"]["stages"] = {
            stage: round(seconds, 6)
            for stage, seconds in sorted(accumulator.totals.items())
        }
    return outcome


# ---------------------------------------------------------------------------
# Content-addressed result cache
# ---------------------------------------------------------------------------


def _config_signature(config: AnalysisConfig) -> Dict[str, Any]:
    """Result-affecting config fields (execution knobs excluded)."""
    signature = dataclasses.asdict(config)
    signature.pop("jobs", None)
    signature.pop("cache_dir", None)
    signature.pop("task_timeout", None)
    signature.pop("keep_going", None)
    # budgets only abort an analysis, never change what a successful one
    # computes — and aborted (non-ok) outcomes are never cached — so a
    # budgeted source submission can share its entry with the batch harness
    signature.pop("budget", None)
    return signature


def run_signature(
    config: AnalysisConfig,
    seed: int,
    methods: Sequence[str],
    benchmarks: Sequence[str],
) -> Dict[str, Any]:
    """Everything that determines a run's results, JSON-normalized.

    Written into the run journal's header and re-verified by ``bench
    resume``: if the code version, config, seed, method set or benchmark
    set changed since the journal was written, resuming would silently
    mix incompatible outcomes — refuse instead.
    """
    payload = {
        "cache_version": CACHE_VERSION,
        "config": _config_signature(config),
        "seed": int(seed),
        "methods": list(methods),
        "benchmarks": list(benchmarks),
    }
    # round-trip through JSON so tuples/lists compare equal to a replayed
    # (JSON-decoded) journal header
    return json.loads(json.dumps(payload, sort_keys=True, default=str))


class ResultCache(Store):
    """Completed task outcomes: the ``task`` family of :class:`repro.store.Store`.

    The key covers everything that determines a task's output: program
    source, entry point, effective (per-mode) configuration, data-
    collection protocol, derived seeds, and a code-version constant.
    Editing one benchmark's source therefore invalidates exactly that
    benchmark's rows.  The store verifies every entry on load and
    quarantines a corrupt one, so a torn write, bit rot or an injected
    ``cache-bitflip`` only makes that cell recompute.
    """

    def __init__(self, root: os.PathLike) -> None:
        super().__init__(root, "task", CACHE_VERSION)

    def key(self, task: EvalTask) -> str:
        """Content hash of what determines ``task``'s outcome.

        A source task hashes its normalized source and the ad-hoc
        data-collection protocol in place of a registry spec, so changing
        that protocol invalidates exactly the ad-hoc entries.
        """
        if task.source is not None:
            from . import adhoc

            spec, source, entry = None, adhoc.normalize_source(task.source), task.entry
            degree = adhoc.ADHOC_DEFAULT_DEGREE if task.degree is None else task.degree
            data_sizes, repetitions = adhoc.ADHOC_DATA_SIZES, adhoc.ADHOC_REPETITIONS
        else:
            from ..suite import get_benchmark

            spec = get_benchmark(task.benchmark)
            source, entry = _mode_variant(spec, task.mode or "data-driven")
            degree, data_sizes, repetitions = spec.degree, spec.data_sizes, spec.repetitions
        payload: Dict[str, Any] = {
            "cache_version": CACHE_VERSION,
            "kind": task.kind,
            "benchmark": task.benchmark,
            "source": source,
            "entry": entry,
        }
        if task.kind == "conventional":
            payload.update(max_degree=task.conventional_max_degree)
        else:
            config = task.config
            if spec is not None:
                config = spec.config(config, hybrid=(task.mode == "hybrid"))
            payload.update(
                mode=task.mode,
                method=task.method,
                degree=degree,
                config=_config_signature(config),
                data_sizes=list(data_sizes),
                repetitions=repetitions,
                input_seed=input_seed(task.root_seed, task.benchmark),
                method_seed=task.seed,
            )
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()

    def load(self, task: EvalTask, key: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """``task``'s stored outcome; ``key`` saves deriving it again."""
        return super().load(self.key(task) if key is None else key)

    def store(self, task: EvalTask, outcome: Dict[str, Any], key: Optional[str] = None) -> None:
        super().store(self.key(task) if key is None else key, outcome, fault_key=task.task_id)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class RunnerReport:
    """Ordered task outcomes plus the structured metrics report.

    ``interrupted`` marks a partial report from a gracefully shut down
    run: ``outcomes`` then covers only the cells that finished before
    the shutdown (tasks never reach it half-done).
    """

    tasks: List[EvalTask]
    outcomes: List[Dict[str, Any]]
    jobs: int
    wall_seconds: float
    interrupted: bool = False
    shutdown_reason: Optional[str] = None

    def outcome_by_id(self) -> Dict[str, Dict[str, Any]]:
        return {o["task"]: o for o in self.outcomes}

    def metrics_json(self) -> Dict[str, Any]:
        entries = []
        for outcome in self.outcomes:
            metrics = dict(outcome.get("metrics", {}))
            metrics.update(
                task=outcome["task"],
                kind=outcome["kind"],
                benchmark=outcome["benchmark"],
                mode=outcome["mode"],
                method=outcome["method"],
                seed=outcome["seed"],
                ok=outcome["ok"],
                outcome=outcome.get("outcome", "ok" if outcome["ok"] else "error"),
                error=outcome["error"],
                failure=outcome.get("failure"),
            )
            entries.append(metrics)
        hits = sum(1 for e in entries if e.get("cache_hit"))
        # per-stage wall-clock aggregates across all tasks (telemetry span
        # self-times recorded by the worker) — makes BENCH_*.json
        # trajectories stage-attributable, not just per-task blobs
        stage_totals: Dict[str, float] = {}
        for entry in entries:
            for stage, seconds in (entry.get("stages") or {}).items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + float(seconds)
        return {
            "version": 2,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "interrupted": self.interrupted,
            "tasks": entries,
            "summary": {
                "total_tasks": len(entries),
                "errors": sum(1 for e in entries if not e["ok"]),
                "timeouts": sum(1 for e in entries if e.get("outcome") == "timeout"),
                "cache_hits": hits,
                "cache_misses": len(entries) - hits,
                # cache hits have attempts == 0: they ran nothing, so they
                # contribute no retries
                "retries": sum(max(0, e.get("attempts", 1) - 1) for e in entries),
                "task_wall_seconds": sum(e.get("wall_seconds", 0.0) for e in entries),
                "queue_wait_seconds": sum(
                    e.get("queue_wait_seconds", 0.0) for e in entries
                ),
                "stage_wall_seconds": {
                    stage: round(seconds, 6)
                    for stage, seconds in sorted(stage_totals.items())
                },
            },
        }

    def write_metrics(self, path: os.PathLike) -> None:
        """Atomically publish the metrics JSON.

        The runner's watchdog can kill the process at any moment; a plain
        ``write_text`` interrupted mid-write would leave a torn, unparsable
        report.
        """
        atomic_write_text(path, json.dumps(self.metrics_json(), indent=2))


class EvalRunner:
    """Executes :class:`EvalTask` grids with caching, retries and metrics.

    ``jobs=1`` (the default) runs every task in the calling process —
    no pickling, plain tracebacks — so tests stay debuggable; ``jobs>1``
    fans tasks out on the supervised pool shared with the daemon
    (:mod:`repro.evalharness.pool`), pulling cells only into free worker
    slots.  Transient worker failures (a killed worker, a poisoned pool)
    are retried with exponential backoff up to ``max_retries`` times;
    deterministic analysis failures are captured inside the worker and
    never retried.

    ``task_timeout`` arms a per-attempt wall-clock watchdog, retried like
    a crash: in serial mode a ``SIGALRM`` timer interrupts the task; in
    pool mode an overdue cell's worker is killed with the pool, and
    unrelated in-flight cells are resubmitted without burning one of
    their attempts.  A task that times out on every attempt is recorded
    with a ``timeout`` outcome.  ``fail_fast`` aborts the whole run with a
    :class:`ReproError` on the first failed cell instead of recording it.

    Durability: with a ``journal`` attached, every dispatch and every
    finished outcome is written ahead to the run journal, and outcomes
    preloaded via :meth:`preload` (from a journal replay) are returned
    without re-executing.  :meth:`install_signal_handlers` turns SIGINT/
    SIGTERM into a *graceful shutdown*: dispatching stops, in-flight
    tasks get ``shutdown_grace`` seconds to drain, and :meth:`run_tasks`
    returns a partial report marked ``interrupted`` (a second signal
    abandons in-flight work immediately).  Pool workers ignore SIGINT.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        task_fn: Callable[[EvalTask], Dict[str, Any]] = execute_task,
        task_timeout: Optional[float] = None,
        fail_fast: bool = False,
        journal: Optional[RunJournal] = None,
        shutdown_grace: float = 5.0,
    ) -> None:
        self.jobs = max(1, int(jobs or 1))
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.max_retries = max(0, int(max_retries))
        self.backoff_seconds = backoff_seconds
        self.task_fn = task_fn
        self.task_timeout = float(task_timeout) if task_timeout else None
        self.fail_fast = bool(fail_fast)
        self.journal = journal
        self.shutdown_grace = float(shutdown_grace)
        self.checkpoint_dir: Optional[str] = None
        self.preloaded: Dict[str, Dict[str, Any]] = {}
        self.shutdown_reason: Optional[str] = None
        self._shutdown = threading.Event()
        self._prev_handlers: Dict[int, Any] = {}
        self.history: List[Dict[str, Any]] = []  # all outcomes ever run

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "EvalRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        self.restore_signal_handlers()

    # -- durability / shutdown ----------------------------------------------

    def preload(self, outcomes: Dict[str, Dict[str, Any]]) -> None:
        """Outcomes (by task id) to reuse instead of executing — the heart
        of ``bench resume``.  Only trust completed, ok outcomes here;
        failed cells should re-execute."""
        self.preloaded.update(outcomes)

    def interrupted(self) -> bool:
        return self._shutdown.is_set()

    def request_shutdown(self, reason: str = "signal") -> None:
        """Stop dispatching new tasks; in-flight tasks drain within
        ``shutdown_grace`` seconds.  Idempotent and signal-safe."""
        if self._shutdown.is_set():
            return
        self.shutdown_reason = reason
        self._shutdown.set()
        telemetry.counter("runner.shutdown_requested", 1, reason=reason)
        if self.journal is not None:
            self.journal.shutdown(reason)

    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM into a graceful shutdown (main thread only).

        The first signal requests the shutdown and lets the current task
        finish; a second one raises :class:`KeyboardInterrupt` into the
        main thread so even a long-running serial cell is abandoned.
        """
        if threading.current_thread() is not threading.main_thread():
            return

        def _handle(signum, _frame):
            name = signal.Signals(signum).name
            if self._shutdown.is_set():
                raise KeyboardInterrupt(f"second {name}: abandoning in-flight work")
            self.request_shutdown(f"signal:{name}")

        for signum in (signal.SIGINT, signal.SIGTERM):
            self._prev_handlers[signum] = signal.signal(signum, _handle)

    def restore_signal_handlers(self) -> None:
        while self._prev_handlers:
            signum, previous = self._prev_handlers.popitem()
            with contextlib.suppress(ValueError):  # not the main thread
                signal.signal(signum, previous)

    # -- execution ----------------------------------------------------------

    def run_tasks(self, tasks: Sequence[EvalTask]) -> RunnerReport:
        telemetry.ensure_from_env()
        started = time.perf_counter()
        outcomes: Dict[EvalTask, Dict[str, Any]] = {}
        pending: List[EvalTask] = []
        #: each task's cache key, derived once for its load and its store
        keys: Dict[EvalTask, str] = {}
        env_checkpoint = os.environ.get(checkpoint.ENV_CHECKPOINT)
        if self.checkpoint_dir:
            # propagate to forked pool workers (and the in-process serial
            # path) so sampler chains checkpoint under the run directory
            os.environ[checkpoint.ENV_CHECKPOINT] = str(self.checkpoint_dir)
        try:
            with telemetry.span("runner.run_tasks", tasks=len(tasks), jobs=self.jobs):
                for task in tasks:
                    replayed = self.preloaded.get(task.task_id)
                    if replayed is not None:
                        outcome = copy.deepcopy(replayed)
                        outcome.setdefault("metrics", {})
                        outcome["metrics"]["resumed"] = True
                        outcome["metrics"].setdefault("attempts", 0)
                        outcomes[task] = outcome
                        telemetry.counter("resume.cells_skipped", 1, task=task.task_id)
                        continue
                    cached = None
                    if self.cache:
                        keys[task] = self.cache.key(task)
                        cached = self.cache.load(task, keys[task])
                    if cached is not None:
                        cached.setdefault("metrics", {})
                        cached["metrics"]["cache_hit"] = True
                        cached["metrics"]["attempts"] = 0
                        outcomes[task] = cached
                        telemetry.counter("runner.cache_hits", 1, task=task.task_id)
                        if self.journal is not None:
                            self.journal.task_finish(task.task_id, cached)
                    else:
                        pending.append(task)

                if pending and not self._shutdown.is_set():
                    telemetry.counter("runner.cache_misses", len(pending))
                    if self.jobs == 1:
                        fresh = self._run_serial(pending)
                    else:
                        fresh = self._run_pool(pending)
                    for task, outcome in fresh.items():
                        outcome["metrics"]["cache_hit"] = False
                        if self.cache and outcome["ok"]:
                            outcome["metrics"]["cache_key"] = keys[task]
                            self.cache.store(task, outcome, keys[task])
                        outcomes[task] = outcome
        finally:
            if self.checkpoint_dir:
                if env_checkpoint is None:
                    os.environ.pop(checkpoint.ENV_CHECKPOINT, None)
                else:
                    os.environ[checkpoint.ENV_CHECKPOINT] = env_checkpoint

        # a graceful shutdown leaves later cells without outcomes: the
        # report is then partial, in grid order, and marked interrupted
        ordered = [outcomes[task] for task in tasks if task in outcomes]
        interrupted = self._shutdown.is_set() or len(ordered) < len(tasks)
        self.history.extend(ordered)
        report = RunnerReport(
            tasks=list(tasks),
            outcomes=ordered,
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
            interrupted=interrupted,
            shutdown_reason=self.shutdown_reason,
        )
        return report

    def _failure_outcome(self, task: EvalTask, exc: BaseException, attempts: int) -> Dict[str, Any]:
        return task_outcome(
            task,
            outcome="timeout" if isinstance(exc, TaskTimeoutError) else "crash",
            error=f"task failed after {attempts} attempt(s): {type(exc).__name__}: {exc}",
            failure={
                "stage": failure_stage(exc),
                "error_class": type(exc).__name__,
                "attempts": attempts,
                "elapsed": 0.0,
            },
            metrics={"wall_seconds": 0.0, "max_rss_kb": 0, "pid": os.getpid()},
        )

    def _record(self, results, task: EvalTask, outcome: Dict[str, Any], attempts: int) -> None:
        """File one finished outcome (patches attempt counts, honors fail-fast).

        Write-ahead discipline: the outcome hits the journal *here*, the
        moment the runner learns it — not at end-of-run — so a SIGKILL
        later can never lose a finished cell.
        """
        outcome.setdefault("metrics", {})["attempts"] = attempts
        if outcome.get("failure"):
            outcome["failure"]["attempts"] = attempts
        if attempts > 1:
            telemetry.counter("runner.retries", attempts - 1, task=task.task_id)
        results[task] = outcome
        if self.journal is not None:
            self.journal.task_finish(task.task_id, outcome)
        if self.fail_fast and not outcome["ok"]:
            raise ReproError(
                f"aborting (--fail-fast): task {task.task_id} failed: {outcome['error']}"
            )

    def _backoff(self, attempt: int, seed: int = 0) -> None:
        # deterministic jitter in [0.5, 1.5), derived from the task seed:
        # tasks that failed together retry fanned out, not in lockstep,
        # without touching any global rng state (shared with the server's
        # pool supervisor — see repro.backoff)
        backoff.sleep_backoff(self.backoff_seconds, attempt, seed)

    def _timeout_error(self, task: EvalTask) -> TaskTimeoutError:
        return TaskTimeoutError(
            f"task {task.task_id} exceeded the {self.task_timeout:g}s watchdog"
        )

    def _call_with_watchdog(self, task: EvalTask) -> Dict[str, Any]:
        """Run the task under a SIGALRM wall-clock watchdog (serial mode)."""

        def _expire(_signum, _frame):
            raise _WatchdogExpired()

        previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, self.task_timeout)
        try:
            return self.task_fn(task)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _run_serial(self, tasks: Sequence[EvalTask]) -> Dict[EvalTask, Dict[str, Any]]:
        results: Dict[EvalTask, Dict[str, Any]] = {}
        # SIGALRM only works on the main thread; elsewhere (tests driving
        # the runner from a worker thread) the serial watchdog is inert
        use_watchdog = (
            self.task_timeout is not None
            and threading.current_thread() is threading.main_thread()
        )
        for task in tasks:
            if self._shutdown.is_set():
                break
            if self.journal is not None:
                self.journal.task_start(task.task_id)
            # parent-side chaos: the dispatching process signals itself
            # (SIGTERM → graceful shutdown below; SIGKILL → journal replay)
            faultinject.fault_point(faultinject.PARENT_SIGNAL, task.task_id)
            if self._shutdown.is_set():
                break
            attempts = 0
            outcome: Optional[Dict[str, Any]] = None
            while True:
                attempts += 1
                try:
                    outcome = self._call_with_watchdog(task) if use_watchdog else self.task_fn(task)
                    break
                except KeyboardInterrupt:
                    # a second signal (or a bare Ctrl-C without handlers):
                    # abandon this cell — its journal entry stays unfinished
                    self.request_shutdown("keyboard-interrupt")
                    break
                except _WatchdogExpired:
                    if attempts > self.max_retries:
                        outcome = self._failure_outcome(task, self._timeout_error(task), attempts)
                        break
                    self._backoff(attempts, task.seed)
                except Exception as exc:
                    if attempts > self.max_retries:
                        outcome = self._failure_outcome(task, exc, attempts)
                        break
                    self._backoff(attempts, task.seed)
                if self._shutdown.is_set():
                    break
            if outcome is None:
                break
            self._record(results, task, outcome, attempts)
        return results

    def _run_pool(self, tasks: Sequence[EvalTask]) -> Dict[EvalTask, Dict[str, Any]]:
        """The callbacks run on the supervisor thread; fail-fast is re-raised
        in this one."""
        from .pool import PoolSupervisor  # the pool module imports this one

        results: Dict[EvalTask, Dict[str, Any]] = {}
        unresolved = len(tasks)
        aborted: List[ReproError] = []
        finished = threading.Event()

        def on_start(cell: _Cell) -> bool:
            if self._shutdown.is_set() or aborted:
                return False  # dispatching stopped: the cell stays unjournalled
            if self.journal is not None:
                self.journal.task_start(cell.task.task_id, attempt=cell.attempts)
            # parent-side chaos: the dispatcher signals itself mid-grid; our
            # handler (if installed) runs on the main thread, so await it
            fired = faultinject.fault_point(faultinject.PARENT_SIGNAL, cell.task.task_id)
            if fired and self._prev_handlers:
                self._shutdown.wait()
            if self._shutdown.is_set():
                return False
            cell.submitted_at = time.time()
            if self.task_timeout is not None:
                cell.deadline = time.monotonic() + self.task_timeout
            return True

        def record(cell: _Cell, outcome: Dict[str, Any]) -> None:
            nonlocal unresolved
            unresolved -= 1
            try:
                self._record(results, cell.task, outcome, cell.attempts)
            except ReproError as exc:  # fail-fast
                aborted.append(exc)
            if aborted or not unresolved:
                finished.set()

        def on_done(cell: _Cell, outcome: Dict[str, Any]) -> None:
            # queue-wait: submission -> the worker actually starting
            metrics = outcome.get("metrics") or {}
            if "started_ts" in metrics:
                queue_wait = max(0.0, metrics["started_ts"] - cell.submitted_at)
                metrics["queue_wait_seconds"] = round(queue_wait, 6)
                telemetry.gauge("runner.queue_wait_seconds", queue_wait, task=cell.task.task_id)
            record(cell, outcome)

        def on_fail(cell: _Cell, exc: BaseException) -> None:
            if isinstance(exc, TaskTimeoutError):
                if cell.attempts <= self.max_retries:
                    supervisor.schedule_retry(cell)
                    return
                exc = self._timeout_error(cell.task)
            record(cell, self._failure_outcome(cell.task, exc, cell.attempts))

        supervisor = PoolSupervisor(
            jobs=self.jobs,
            queue=_CellQueue(_Cell(task) for task in tasks),
            on_start=on_start,
            on_done=on_done,
            on_fail=on_fail,
            max_retries=self.max_retries,
            backoff_seconds=self.backoff_seconds,
            task_fn=self.task_fn,
        )
        supervisor.start()
        try:
            self._await_pool(supervisor, finished)
        except KeyboardInterrupt:
            # second signal (or bare Ctrl-C): abandon in-flight work but
            # still return what finished — it is already journalled
            self.request_shutdown("keyboard-interrupt")
        finally:
            supervisor.abandon()
        if aborted:
            raise aborted[0]
        return results

    def _await_pool(self, supervisor, finished: threading.Event) -> None:
        """Wait for every cell; on a shutdown, drain in-flight cells for
        ``shutdown_grace`` seconds (abandoned ones rerun on ``resume``)."""
        while not finished.wait(0.1):  # signal handlers run in between
            if self._shutdown.is_set():
                leftovers = supervisor.drain(self.shutdown_grace)
                if leftovers:
                    telemetry.counter("runner.shutdown_abandoned", len(leftovers))
                return


@dataclass
class _Cell:
    """One grid cell as the pool supervisor sees it."""

    task: EvalTask
    attempts: int = 0
    deadline: float = math.inf  # per-attempt watchdog, armed in on_start
    submitted_at: float = 0.0


class _CellQueue:
    """Pending cells in grid order; nothing is added once the run starts."""

    def __init__(self, cells) -> None:
        self._cells = collections.deque(cells)

    def pop(self, timeout: Optional[float] = None) -> Optional[_Cell]:
        if self._cells:
            return self._cells.popleft()
        if timeout:
            time.sleep(timeout)
        return None


# ---------------------------------------------------------------------------
# One-call convenience: expand + run
# ---------------------------------------------------------------------------


def run_grid(
    specs: Sequence[object],
    config: AnalysisConfig = DEFAULT_CONFIG,
    seed: int = 0,
    methods: Sequence[str] = METHODS,
    modes: Sequence[str] = MODES,
    conventional_max_degree: int = 3,
    jobs: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    runner: Optional[EvalRunner] = None,
) -> RunnerReport:
    """Expand the grid for ``specs`` and execute it.

    ``jobs``/``cache_dir`` default to the config's execution knobs; an
    explicit ``runner`` (e.g. a session-scoped one with a warm pool)
    overrides both.
    """
    tasks = expand_grid(
        specs,
        config=config,
        seed=seed,
        methods=methods,
        modes=modes,
        conventional_max_degree=conventional_max_degree,
    )
    if runner is not None:
        return runner.run_tasks(tasks)
    with EvalRunner(
        jobs=jobs if jobs is not None else config.jobs,
        cache_dir=cache_dir if cache_dir is not None else config.cache_dir,
        task_timeout=config.task_timeout,
        fail_fast=not config.keep_going,
    ) as owned:
        return owned.run_tasks(tasks)
