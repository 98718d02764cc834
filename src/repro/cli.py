"""Command-line driver, mirroring the paper artifact's entry point.

Each analysis run requires (Section 7, "Implementation"):
(i) a program annotated with ``Raml.tick`` and ``Raml.stat``,
(ii) inputs for runtime-cost data generation, and
(iii) a configuration (degree, technique, sampler settings).

Examples::

    hybrid-aara analyze prog.ml --entry quicksort --method bayeswc \
        --degree 2 --sizes 5:100:5 --samples 100
    hybrid-aara static prog.ml --entry quicksort --degree 2
    hybrid-aara bench QuickSort --method opt --samples 20
    hybrid-aara bench all --jobs 4 --trace /tmp/trace
    hybrid-aara trace summary /tmp/trace

Output goes through :mod:`repro.telemetry.console`: ``-q`` hides status
lines, ``-v`` adds detail, and ``REPRO_LOG=json`` turns every line into
one JSON object for CI log scraping.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import telemetry
from .aara import run_conventional
from .config import AnalysisConfig, ExecutionBudget
from .errors import ReproError
from .inference import collect_dataset, run_analysis
from .lang import ast as A
from .lang import compile_program, from_python
from .suite import get_benchmark
from .telemetry.console import configure as configure_console, get_console


def _parse_sizes(spec: str):
    parts = [int(p) for p in spec.split(":")]
    if len(parts) == 1:
        return [parts[0]]
    if len(parts) == 2:
        return list(range(parts[0], parts[1] + 1))
    return list(range(parts[0], parts[1] + 1, parts[2]))


def _random_value(rng, typ, n):
    """Draw one random argument of type ``typ`` at size parameter ``n``."""
    if isinstance(typ, A.TList):
        if isinstance(typ.elem, (A.TInt, A.TBool, A.TUnit)):
            return from_python([_random_value(rng, typ.elem, n) for _ in range(n)])
        # structured elements (nested lists, tuples): keep totals near n
        inner = max(1, n // 2)
        return from_python([_random_value(rng, typ.elem, inner) for _ in range(n)])
    if isinstance(typ, A.TProd):
        return from_python(tuple(_random_value(rng, item, n) for item in typ.items))
    if isinstance(typ, A.TInt):
        return int(rng.integers(0, 1000))
    if isinstance(typ, A.TBool):
        return bool(rng.integers(0, 2))
    if isinstance(typ, A.TUnit):
        return from_python(None)
    raise ReproError(f"cannot generate random inputs for parameter type {typ}")


def _random_inputs(program, entry, sizes, reps, seed):
    rng = np.random.default_rng(seed)
    fun = program[entry]
    if fun.fun_type is None:
        raise ReproError(f"function {entry!r} has no inferred type")
    inputs = []
    for _ in range(reps):
        for n in sizes:
            inputs.append([_random_value(rng, typ, n) for typ in fun.fun_type.params])
    return inputs


def _load_program(path: str):
    """Read + compile a source file, caret-rendering front-end failures."""
    from .analysis import render_source_error
    from .errors import SourceError

    with open(path) as handle:
        source = handle.read()
    try:
        return source, compile_program(source)
    except SourceError as exc:
        raise ReproError(render_source_error(exc, source, path)) from exc


def cmd_collect(args) -> int:
    from .inference.serialize import save_dataset

    con = get_console()
    _source, program = _load_program(args.program)
    sizes = _parse_sizes(args.sizes)
    inputs = _random_inputs(program, args.entry, sizes, args.reps, args.seed)
    dataset = collect_dataset(program, args.entry, inputs)
    save_dataset(dataset, args.out)
    con.info(
        f"collected {dataset.total_observations()} observations at "
        f"{len(dataset.labels())} stat site(s) from {dataset.num_runs} runs "
        f"-> {args.out}",
        observations=dataset.total_observations(),
        labels=len(dataset.labels()),
        runs=dataset.num_runs,
        out=args.out,
    )
    return 0


def cmd_analyze(args) -> int:
    _source, program = _load_program(args.program)
    config = AnalysisConfig(
        degree=args.degree,
        num_posterior_samples=args.samples,
        seed=args.seed,
        objective=args.objective,
    )
    if args.data:
        from .inference.serialize import load_dataset

        dataset = load_dataset(args.data)
    else:
        sizes = _parse_sizes(args.sizes)
        inputs = _random_inputs(program, args.entry, sizes, args.reps, args.seed)
        dataset = collect_dataset(program, args.entry, inputs)
    result = run_analysis(program, args.entry, dataset, config, args.method)
    if args.save_result:
        from .inference.serialize import save_result

        save_result(result, args.save_result)
    con = get_console()
    con.result(f"method      : {result.method} ({result.mode})")
    con.result(f"bounds      : {len(result.bounds)} posterior sample(s)")
    con.result(f"runtime     : {result.runtime_seconds:.2f}s")
    if result.failures:
        con.result(f"failures    : {result.failures}")
    for key, value in result.diagnostics.items():
        con.result(f"  {key}: {value:.4g}")
    show = result.bounds[: args.show]
    for i, bound in enumerate(show):
        con.result(f"bound[{i}]    : {bound.describe()}")
    if len(result.bounds) > 1:
        med = result.median_coefficients()
        con.result("median coefficients: " + json.dumps([round(v, 4) for v in med]))
    return 0


def cmd_static(args) -> int:
    _source, program = _load_program(args.program)
    verdict = run_conventional(program, args.entry, max_degree=args.degree)
    con = get_console()
    con.result(f"status : {verdict.status}")
    if verdict.bound is not None:
        con.result(f"degree : {verdict.degree}")
        con.result(f"bound  : {verdict.bound.describe()}")
    elif verdict.detail:
        con.result(f"detail : {verdict.detail}")
    con.result(f"runtime: {verdict.runtime_seconds:.2f}s")
    return 0 if verdict.succeeded else 1


def _lint_units(args):
    """Yield ``(display_path, source, entry)`` for everything to lint.

    ``.py`` files contribute their embedded resource-language constants
    (``file.py#CONST``); ``--suite`` adds every registry benchmark in all
    its mode variants with the spec's own entry function.
    """
    from .analysis import extract_embedded_sources

    for path in args.programs:
        with open(path) as handle:
            text = handle.read()
        if path.endswith(".py"):
            for name, source in extract_embedded_sources(text):
                yield f"{path}#{name}", source, args.entry
        else:
            yield path, text, args.entry
    if args.suite:
        from .suite import all_benchmarks

        for spec in all_benchmarks():
            yield (
                f"suite:{spec.name}/data_driven",
                spec.data_driven_source,
                spec.data_driven_entry,
            )
            if spec.hybrid_source is not None:
                yield f"suite:{spec.name}/hybrid", spec.hybrid_source, spec.hybrid_entry


#: default on-disk home for incremental artifacts (watch / lsp modes)
DEFAULT_INCR_CACHE = ".hybrid-aara-cache"


def _incremental_engine(args):
    """Build the incremental engine the watch/LSP front ends share."""
    from .analysis import ArtifactStore, IncrementalEngine

    budget = None if getattr(args, "trusted", False) else ExecutionBudget.untrusted()
    store = None
    if not getattr(args, "no_cache", False):
        store = ArtifactStore(getattr(args, "cache_dir", None) or DEFAULT_INCR_CACHE)
    return IncrementalEngine(store, max_degree=args.degree, budget=budget)


def _render_watch_cycle(con, result, source, elapsed) -> None:
    from .analysis import render_all_text

    if result.diagnostics:
        con.result(render_all_text(result.diagnostics, {result.path: source}))
    else:
        con.result(f"{result.path}: clean")
    for name, doc in result.bounds.items():
        label = doc.get("describe") or doc.get("status") or "?"
        con.result(f"  {name} : {label}")
    con.result(
        f"{result.reused} reused / {result.recomputed} recomputed "
        f"in {elapsed * 1000.0:.0f} ms",
        reused=result.reused,
        recomputed=result.recomputed,
        ms=round(elapsed * 1000.0, 1),
    )


def _lint_watch(args) -> int:
    """Poll-mtime edit loop: re-analyze on change, artifacts make it fast."""
    import os
    import time

    if len(args.programs) != 1 or args.suite:
        raise ReproError("--watch wants exactly one program file (and no --suite)")
    path = args.programs[0]
    con = get_console()
    engine = _incremental_engine(args)
    cycles = 0
    last_sig = None
    last_errors = 0
    while True:
        try:
            st = os.stat(path)
            sig = (st.st_mtime_ns, st.st_size)
        except OSError as exc:
            con.warn(f"cannot stat {path}: {exc}")
            time.sleep(args.interval)
            continue
        if sig == last_sig:
            time.sleep(args.interval)
            continue
        last_sig = sig
        with open(path) as handle:
            source = handle.read()
        start = time.perf_counter()
        result = engine.analyze(source, path=path, entry=args.entry)
        elapsed = time.perf_counter() - start
        _render_watch_cycle(con, result, source, elapsed)
        last_errors = sum(1 for d in result.diagnostics if d.severity == "error")
        cycles += 1
        if args.watch_cycles and cycles >= args.watch_cycles:
            return 1 if last_errors else 0


def cmd_lint(args) -> int:
    # the engine module, not lint_source itself: a wrapper installed on
    # ``engine.lint_source`` is then honoured
    from .analysis import dumps_sarif, engine, promote_warnings, render_all_text, to_json

    if args.watch:
        return _lint_watch(args)
    con = get_console()
    units = list(_lint_units(args))
    if not units:
        raise ReproError("nothing to lint: pass program files and/or --suite")
    diagnostics = []
    sources = {}
    for path, source, entry in units:
        sources[path] = source
        result = engine.lint_source(source, path=path, entry=entry)
        diagnostics.extend(result.diagnostics)
    if args.werror:
        diagnostics = promote_warnings(diagnostics)
    diagnostics.sort(key=lambda d: d.sort_key())

    if args.format == "json":
        rendered = json.dumps(to_json(diagnostics), indent=2, sort_keys=True)
    elif args.format == "sarif":
        rendered = dumps_sarif(diagnostics)
    else:
        rendered = render_all_text(diagnostics, sources)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        con.info(
            f"{len(diagnostics)} diagnostic(s) over {len(units)} program(s) "
            f"-> {args.out}",
            diagnostics=len(diagnostics),
            programs=len(units),
            out=args.out,
        )
    else:
        con.result(rendered)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    return 1 if errors else 0


def cmd_lsp(args) -> int:
    """Speak LSP on stdio.  stdout belongs to JSON-RPC — every status
    line goes to stderr, bypassing the console (which owns stdout)."""
    from .analysis.lsp import LspServer

    def log(text: str) -> None:
        print(f"hybrid-aara lsp: {text}", file=sys.stderr, flush=True)

    server = LspServer(
        sys.stdin.buffer,
        sys.stdout.buffer,
        engine=_incremental_engine(args),
        entry=args.entry,
        log=log,
    )
    return server.serve_forever()


#: env var naming the default parent directory for run journals
ENV_RUNS_DIR = "REPRO_RUNS_DIR"


def _activate_faults(spec: str) -> None:
    """Chaos-testing mode: activate the fault plan for this process and
    every worker it forks (they inherit the environment)."""
    import os
    import tempfile

    from .faultinject import ENV_SPEC, ENV_STATE

    os.environ[ENV_SPEC] = spec
    os.environ.setdefault(ENV_STATE, tempfile.mkdtemp(prefix="repro-faults-"))


def _runs_root(args) -> str:
    import os

    return args.runs_dir or os.environ.get(ENV_RUNS_DIR) or "runs"


def _bench_execute(
    args,
    specs,
    config,
    seed: int,
    methods,
    journal=None,
    preloaded=None,
) -> int:
    """Shared core of ``bench`` and ``bench resume``: run the grid under a
    (possibly journalled) runner, render tables, export metrics/trace."""
    import os
    import shutil

    from .errors import EXIT_INTERRUPTED
    from .evalharness import (
        EvalRunner,
        RunnerReport,
        assemble_available,
        expand_grid,
        render_gap_table,
        render_table1,
    )

    con = get_console()
    trace_dir = args.trace or os.environ.get(telemetry.ENV_TRACE)
    if trace_dir:
        # the env var propagates tracing to forked pool workers (and is the
        # backup channel when a replacement pool respawns them)
        os.environ[telemetry.ENV_TRACE] = trace_dir
        telemetry.enable(trace_dir)
    tasks = expand_grid(specs, config=config, seed=seed, methods=methods)
    with EvalRunner(
        jobs=config.jobs,
        cache_dir=config.cache_dir,
        task_timeout=config.task_timeout,
        fail_fast=not config.keep_going,
        journal=journal,
    ) as runner:
        if journal is not None:
            runner.checkpoint_dir = journal.checkpoints_dir
            runner.install_signal_handlers()
        if preloaded:
            runner.preload(preloaded)
        report = runner.run_tasks(tasks)
        runs = assemble_available(specs, report, seed)
        con.result(render_table1(runs))
        failed_cells = 0
        for run in runs:
            con.result()
            con.result(render_gap_table(run))
            for key, message in run.errors.items():
                con.result(f"error {key}: {message}")
            failed_cells += len(run.failures)
        if runner.history:
            metrics = {
                "tasks": len(runner.history),
                "cache_hits": sum(
                    1 for o in runner.history if o["metrics"].get("cache_hit")
                ),
                "task_wall_seconds": round(
                    sum(o["metrics"].get("wall_seconds", 0.0) for o in runner.history), 3
                ),
            }
            con.result()
            con.info(
                f"runner: {metrics['tasks']} task(s), jobs={runner.jobs}, "
                f"{metrics['cache_hits']} cache hit(s), "
                f"{metrics['task_wall_seconds']}s task time",
                **metrics,
            )
        if args.metrics:
            report_json = RunnerReport(
                tasks=[],
                outcomes=runner.history,
                jobs=runner.jobs,
                wall_seconds=0.0,
                interrupted=report.interrupted,
                shutdown_reason=report.shutdown_reason,
            )
            try:
                report_json.write_metrics(args.metrics)
            except OSError as exc:
                raise ReproError(f"cannot write metrics to {args.metrics}: {exc}")
            con.info(f"per-task metrics -> {args.metrics}", path=args.metrics)
    if trace_dir:
        from .telemetry.chrome import write_chrome_trace

        telemetry.disable()
        try:
            n_events = write_chrome_trace(trace_dir)
        except OSError as exc:
            raise ReproError(f"cannot export trace from {trace_dir}: {exc}")
        con.info(
            f"trace: {n_events} event(s) -> {os.path.join(trace_dir, 'trace.json')} "
            f"(chrome://tracing or https://ui.perfetto.dev)",
            events=n_events,
            trace_dir=trace_dir,
        )
    if journal is not None:
        if report.interrupted:
            journal.close()
        else:
            journal.run_finish("failed-cells" if failed_cells else "ok")
            journal.close()
            # the run is complete: mid-chain checkpoints have no future use
            shutil.rmtree(journal.checkpoints_dir, ignore_errors=True)
    if report.interrupted:
        done = len(report.outcomes)
        hint = (
            f"; resume with: hybrid-aara bench resume {journal.run_id}"
            if journal is not None
            else ""
        )
        con.warn(
            f"run interrupted ({report.shutdown_reason or 'shutdown'}): "
            f"{done}/{len(tasks)} cell(s) finished{hint}"
        )
        return EXIT_INTERRUPTED
    if failed_cells:
        # Under --fail-fast a mid-run abort already surfaced as ReproError
        # (exit 2); this branch covers failures that slipped through before
        # the abort fired or when every task had already been submitted.
        if not config.keep_going:
            con.error(f"error: {failed_cells} cell(s) failed")
            return 1
        con.warn(
            f"warning: {failed_cells} cell(s) failed; remaining cells are "
            "unaffected (see footnotes above)"
        )
    return 0


def _bench_resume(args) -> int:
    """Replay a run journal and execute only its unfinished cells."""
    import os

    from .evalharness import journal as journal_mod
    from .evalharness.runner import expand_grid, run_signature
    from .evalharness import METHODS
    from .suite import all_benchmarks

    con = get_console()
    run_id = args.run_id_pos or args.run_id
    if not run_id:
        raise ReproError(
            "bench resume needs a run id: hybrid-aara bench resume <run-id>"
        )
    runs_root = _runs_root(args)
    run_dir = os.path.join(runs_root, run_id)
    if not os.path.exists(os.path.join(run_dir, journal_mod.JOURNAL_NAME)):
        raise ReproError(f"no journal found for run {run_id!r} under {runs_root!r}")
    replayed = journal_mod.replay(run_dir)
    if replayed.header is None:
        raise ReproError(f"journal for run {run_id!r} has no run-start header")
    if replayed.run_finished:
        con.info(f"run {run_id} already finished; re-rendering from its journal")
    params = replayed.params
    if args.faults:
        _activate_faults(args.faults)

    benchmark = str(params.get("benchmark", "all"))
    specs = all_benchmarks() if benchmark == "all" else [get_benchmark(benchmark)]
    method = str(params.get("method", "all"))
    methods = [method] if method != "all" else list(METHODS)
    seed = int(params.get("seed", 0))
    config = AnalysisConfig(
        num_posterior_samples=int(params.get("samples", 25)),
        seed=seed,
        jobs=args.jobs or int(params.get("jobs") or 1),
        cache_dir=args.cache or params.get("cache"),
        task_timeout=args.task_timeout or params.get("task_timeout"),
        keep_going=not params.get("fail_fast"),
    )
    signature = run_signature(config, seed, methods, [s.name for s in specs])
    if signature != replayed.signature:
        raise ReproError(
            f"refusing to resume run {run_id!r}: the config signature no longer "
            "matches the journalled run (code, config or benchmark set changed)"
        )
    grid_ids = [t.task_id for t in expand_grid(specs, config=config, seed=seed, methods=methods)]
    if grid_ids != replayed.grid:
        raise ReproError(
            f"refusing to resume run {run_id!r}: the expanded task grid differs "
            "from the journalled grid"
        )
    completed = replayed.completed_ok()
    journal = journal_mod.RunJournal(run_dir, run_id)
    journal.run_resume(len(completed), len(grid_ids) - len(completed))
    con.info(
        f"resuming run {run_id}: {len(completed)}/{len(grid_ids)} cell(s) "
        "replayed from the journal",
        completed=len(completed),
        total=len(grid_ids),
    )
    return _bench_execute(
        args, specs, config, seed, methods, journal=journal, preloaded=completed
    )


def cmd_bench(args) -> int:
    import os

    from .evalharness import journal as journal_mod
    from .evalharness.runner import expand_grid, run_signature
    from .suite import all_benchmarks

    if args.benchmark == "resume":
        return _bench_resume(args)
    if args.faults:
        _activate_faults(args.faults)
    if args.benchmark == "all":
        specs = all_benchmarks()
    else:
        specs = [get_benchmark(args.benchmark)]
    config = AnalysisConfig(
        num_posterior_samples=args.samples,
        seed=args.seed,
        jobs=args.jobs or 1,
        cache_dir=args.cache,
        task_timeout=args.task_timeout,
        keep_going=not args.fail_fast,
    )
    methods = [args.method] if args.method != "all" else ("opt", "bayeswc", "bayespc")
    journal = None
    if not args.no_journal:
        run_id = args.run_id or journal_mod.new_run_id()
        journal = journal_mod.RunJournal(os.path.join(_runs_root(args), run_id), run_id)
        grid_ids = [
            t.task_id
            for t in expand_grid(specs, config=config, seed=args.seed, methods=methods)
        ]
        journal.run_start(
            params={
                "benchmark": args.benchmark,
                "method": args.method,
                "samples": args.samples,
                "seed": args.seed,
                "jobs": args.jobs or 1,
                "cache": args.cache,
                "task_timeout": args.task_timeout,
                "fail_fast": args.fail_fast,
            },
            signature=run_signature(
                config, args.seed, methods, [s.name for s in specs]
            ),
            grid=grid_ids,
        )
        get_console().info(
            f"run {run_id} -> {journal.run_dir}", run_id=run_id, run_dir=journal.run_dir
        )
    return _bench_execute(
        args, specs, config, args.seed, methods, journal=journal
    )


def cmd_cache(args) -> int:
    from .evalharness.runner import ResultCache

    con = get_console()
    cache = ResultCache(args.dir)
    if args.cache_command == "wipe":
        removed = cache.wipe()
        con.info(f"removed {removed} file(s) from {args.dir}", removed=removed)
        return 0
    # gc
    max_bytes = None if args.max_mb is None else int(args.max_mb * 1024 * 1024)
    stats = cache.gc(
        max_bytes=max_bytes,
        tmp_age_seconds=args.tmp_age,
        drop_quarantined=args.drop_quarantined,
    )
    con.info(
        f"cache gc: kept {stats['kept']} entry(ies) ({stats['bytes']} bytes), "
        f"evicted {stats['evicted']}, removed {stats['tmp_removed']} tmp + "
        f"{stats['quarantined_removed']} quarantined file(s)",
        **stats,
    )
    return 0


def cmd_runs(args) -> int:
    import os

    from .evalharness.journal import gc_runs

    con = get_console()
    root = args.dir or os.environ.get(ENV_RUNS_DIR) or "runs"
    max_age = None if args.max_age_days is None else args.max_age_days * 86400.0
    max_bytes = None if args.max_mb is None else int(args.max_mb * 1024 * 1024)
    if max_age is None and max_bytes is None and not args.dry_run:
        raise ReproError(
            "runs gc needs at least one of --max-age-days / --max-mb "
            "(or --dry-run to preview)"
        )
    stats = gc_runs(
        root, max_age_seconds=max_age, max_bytes=max_bytes, dry_run=args.dry_run
    )
    verb = "would remove" if args.dry_run else "removed"
    con.info(
        f"runs gc: kept {stats['kept']} run(s) ({stats['bytes']} bytes), "
        f"{verb} {stats['removed']} run(s) ({stats['bytes_removed']} bytes), "
        f"skipped {stats['skipped']} non-run entry(ies) under {root}",
        root=root,
        dry_run=args.dry_run,
        **stats,
    )
    return 0


def cmd_trace(args) -> int:
    import os

    from .telemetry.chrome import trace_files, write_chrome_trace
    from .telemetry.summary import render_summary, summarize_trace_dir

    con = get_console()
    # fail cleanly (one line, exit 2) before touching the directory: a
    # missing/empty trace dir is a usage error, not a traceback — and
    # `trace export` must never create trace.json inside a bad target
    if not os.path.isdir(args.dir):
        raise ReproError(
            f"trace directory {args.dir!r} does not exist (expected a "
            "directory produced by bench --trace / REPRO_TRACE)"
        )
    if not trace_files(args.dir):
        raise ReproError(
            f"no trace files (trace-<pid>.jsonl) in {args.dir!r}: "
            "is this really a bench --trace directory?"
        )
    if args.trace_command == "summary":
        summary = summarize_trace_dir(args.dir, top=args.top)
        if not summary.events:
            raise ReproError(f"no trace events found in {args.dir}")
        con.result(render_summary(summary, str(args.dir), top=args.top))
        return 0
    # export
    try:
        n_events = write_chrome_trace(args.dir, args.out)
    except OSError as exc:
        raise ReproError(f"cannot export trace from {args.dir}: {exc}")
    if not n_events:
        raise ReproError(f"no trace events found in {args.dir}")
    out = args.out or f"{args.dir}/trace.json"
    con.info(f"wrote {n_events} event(s) -> {out}", events=n_events, out=str(out))
    return 0


def cmd_serve(args) -> int:
    import os

    from .server.app import serve
    from .server.core import ServerConfig

    api_keys = []
    for pair in args.api_key or ():
        key, sep, tenant = pair.partition("=")
        if not sep or not key or not tenant:
            raise ReproError(f"--api-key wants KEY=TENANT, got {pair!r}")
        api_keys.append((key, tenant))
    overrides = {
        f.name: getattr(args, f"budget_{f.name}")
        for f in dataclasses.fields(ExecutionBudget)
        if getattr(args, f"budget_{f.name}") is not None
    }
    budget = dataclasses.replace(ExecutionBudget.untrusted(), **overrides)

    runs_dir = args.runs_dir or os.environ.get(ENV_RUNS_DIR) or "runs"
    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_capacity=args.queue_capacity,
        rate=args.rate,
        burst=args.burst,
        default_deadline=args.deadline,
        latency_budget=args.latency_budget,
        breaker_cooldown=args.breaker_cooldown,
        max_retries=args.max_retries,
        shutdown_grace=args.grace,
        cache_dir=args.cache_dir,
        runs_dir=runs_dir,
        api_keys=tuple(api_keys),
        quota_concurrency=args.quota_concurrency,
        quota_cpu_seconds=args.quota_cpu_seconds,
        quota_window=args.quota_window,
        budget=budget,
    )
    return serve(config)


def cmd_loadgen(args) -> int:
    from .server.loadgen import LoadgenConfig, run_loadgen

    con = get_console()
    config = LoadgenConfig(
        url=args.url,
        requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        benchmarks=tuple(args.benchmarks.split(",")),
        methods=tuple(args.methods.split(",")),
        samples=args.samples,
        seeds=args.seeds,
        wait_timeout=args.wait_timeout,
        out=args.out,
        check=args.check,
        hostile_dir=args.hostile,
        hostile_fraction=args.hostile_fraction,
        api_key=args.api_key,
    )
    report = run_loadgen(config)
    latency = report["latency_seconds"]
    taxonomy = ", ".join(f"{k}={v}" for k, v in report["taxonomy"].items())
    con.result(
        f"loadgen: {report['config']['requests']} request(s) in "
        f"{report['wall_seconds']:.1f}s ({taxonomy}); "
        f"p50={latency['p50'] if latency['p50'] is None else round(latency['p50'], 3)}s "
        f"p95={latency['p95'] if latency['p95'] is None else round(latency['p95'], 3)}s "
        f"p99={latency['p99'] if latency['p99'] is None else round(latency['p99'], 3)}s"
    )
    if config.out:
        con.info(f"wrote {config.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-aara",
        description="Hybrid AARA: resource bounds with static analysis and Bayesian inference",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more status output (repeatable)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="suppress status lines (results still print)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="data-driven/hybrid analysis of a program")
    analyze.add_argument("program", help="path to the annotated source file")
    analyze.add_argument("--entry", required=True, help="function to analyze")
    analyze.add_argument("--method", choices=["opt", "bayeswc", "bayespc"], default="opt")
    analyze.add_argument("--degree", type=int, default=1)
    analyze.add_argument("--sizes", default="5:50:5", help="input sizes lo:hi[:step]")
    analyze.add_argument("--reps", type=int, default=2)
    analyze.add_argument("--samples", type=int, default=50, help="posterior sample count M")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--objective", choices=["sum", "degree"], default="sum")
    analyze.add_argument("--show", type=int, default=3, help="bounds to print")
    analyze.add_argument("--data", help="load a dataset collected with 'collect'")
    analyze.add_argument("--save-result", help="archive the posterior result as JSON")
    analyze.set_defaults(func=cmd_analyze)

    collect = sub.add_parser("collect", help="collect runtime cost data to a file")
    collect.add_argument("program")
    collect.add_argument("--entry", required=True)
    collect.add_argument("--sizes", default="5:50:5")
    collect.add_argument("--reps", type=int, default=2)
    collect.add_argument("--seed", type=int, default=0)
    collect.add_argument("--out", required=True)
    collect.set_defaults(func=cmd_collect)

    lint = sub.add_parser(
        "lint",
        help="static analysis / diagnostics for resource-language programs",
    )
    lint.add_argument(
        "programs",
        nargs="*",
        help="source files to lint (.py files contribute their embedded "
        "resource-language string constants)",
    )
    lint.add_argument(
        "--suite",
        action="store_true",
        help="also lint every registry benchmark in all its mode variants",
    )
    lint.add_argument(
        "--entry",
        default=None,
        help="entry function for reachability lints (default: last definition)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (sarif is GitHub code-scanning compatible)",
    )
    lint.add_argument("--out", default=None, help="write the report here instead of stdout")
    lint.add_argument(
        "--Werror",
        dest="werror",
        action="store_true",
        help="treat warnings as errors (notes are unaffected)",
    )
    watch = lint.add_argument_group(
        "watch mode",
        "incremental edit loop: re-analyze one file whenever it changes, "
        "reusing per-function artifacts so unrelated functions cost nothing",
    )
    watch.add_argument(
        "--watch",
        action="store_true",
        help="watch one program file and re-analyze on change",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.2,
        help="mtime poll interval in seconds",
    )
    watch.add_argument(
        "--watch-cycles",
        type=int,
        default=0,
        metavar="N",
        help="exit after N analysis cycles (0 = run until interrupted)",
    )
    watch.add_argument(
        "--degree", type=int, default=3, help="max AARA degree per function"
    )
    watch.add_argument(
        "--cache-dir",
        default=None,
        help=f"incremental artifact directory (default {DEFAULT_INCR_CACHE})",
    )
    watch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable artifact persistence (every cycle recomputes)",
    )
    watch.add_argument(
        "--trusted",
        action="store_true",
        help="lift the untrusted-source execution budget (suite-style files)",
    )
    lint.set_defaults(func=cmd_lint)

    lsp = sub.add_parser(
        "lsp",
        help="LSP server on stdio: push diagnostics + resource-bound inlay "
        "hints, incrementally re-analyzing on every edit",
    )
    lsp.add_argument(
        "--entry",
        default=None,
        help="entry function for reachability lints (default: last definition)",
    )
    lsp.add_argument(
        "--degree", type=int, default=3, help="max AARA degree per function"
    )
    lsp.add_argument(
        "--cache-dir",
        default=None,
        help=f"incremental artifact directory (default {DEFAULT_INCR_CACHE})",
    )
    lsp.add_argument(
        "--no-cache",
        action="store_true",
        help="disable artifact persistence (every edit recomputes its cone)",
    )
    lsp.add_argument(
        "--trusted",
        action="store_true",
        help="lift the untrusted-source execution budget",
    )
    lsp.set_defaults(func=cmd_lsp)

    static = sub.add_parser("static", help="conventional AARA only")
    static.add_argument("program")
    static.add_argument("--entry", required=True)
    static.add_argument("--degree", type=int, default=3, help="max degree to try")
    static.set_defaults(func=cmd_static)

    bench = sub.add_parser(
        "bench",
        help="run one paper benchmark (or 'all') end to end; "
        "'bench resume <run-id>' continues an interrupted run",
    )
    bench.add_argument(
        "benchmark",
        help="benchmark name, e.g. QuickSort, 'all', or 'resume' to continue "
        "a journalled run",
    )
    bench.add_argument(
        "run_id_pos",
        nargs="?",
        default=None,
        metavar="run-id",
        help="run id to resume (only with 'bench resume')",
    )
    bench.add_argument("--method", default="all")
    bench.add_argument("--samples", type=int, default=25)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default 1; resume inherits the journalled value)",
    )
    bench.add_argument("--cache", default=None, help="on-disk result cache directory")
    bench.add_argument(
        "--run-id",
        default=None,
        help="name this run's journal directory (default: generated timestamp id)",
    )
    bench.add_argument(
        "--runs-dir",
        default=None,
        help="parent directory for run journals (default: $REPRO_RUNS_DIR or ./runs)",
    )
    bench.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the write-ahead run journal (run is not resumable)",
    )
    bench.add_argument("--metrics", default=None, help="write per-task metrics JSON here")
    bench.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record a cross-process execution trace into DIR (JSONL per "
        "process + merged Chrome trace.json; also enabled by REPRO_TRACE)",
    )
    bench.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-task wall-clock watchdog in seconds (default: none)",
    )
    failmode = bench.add_mutually_exclusive_group()
    failmode.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the whole run on the first failed cell (exit nonzero)",
    )
    failmode.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="render partial tables with footnoted failures (default)",
    )
    bench.add_argument(
        "--faults",
        default=None,
        help="fault-injection spec (see repro.faultinject), e.g. "
        "'worker-crash:match=QuickSort/*:count=1'",
    )
    bench.set_defaults(func=cmd_bench)

    cache = sub.add_parser("cache", help="manage an on-disk result cache directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = cache_sub.add_parser(
        "gc",
        help="evict least-recently-used entries over a size cap; sweep stale "
        "*.tmp files left by killed writers",
    )
    cache_gc.add_argument("dir", help="cache directory (from bench --cache)")
    cache_gc.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="LRU-evict entries until the cache is under this size (default: no cap)",
    )
    cache_gc.add_argument(
        "--tmp-age",
        type=float,
        default=60.0,
        help="remove *.tmp files older than this many seconds (default: 60)",
    )
    cache_gc.add_argument(
        "--drop-quarantined",
        action="store_true",
        help="also delete *.json.quarantined corruption evidence",
    )
    cache_gc.set_defaults(func=cmd_cache)
    cache_wipe = cache_sub.add_parser("wipe", help="remove every cache file")
    cache_wipe.add_argument("dir", help="cache directory (from bench --cache)")
    cache_wipe.set_defaults(func=cmd_cache)

    runs = sub.add_parser("runs", help="manage the run-journal directory")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_gc = runs_sub.add_parser(
        "gc",
        help="prune old runs/<run-id>/ directories by age and total-size cap "
        "(mirrors 'cache gc'; only directories holding a journal.jsonl are "
        "touched)",
    )
    runs_gc.add_argument(
        "dir",
        nargs="?",
        default=None,
        help="runs directory (default: $REPRO_RUNS_DIR or ./runs)",
    )
    runs_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="remove runs whose journal is older than this many days",
    )
    runs_gc.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="evict oldest runs until the directory is under this size",
    )
    runs_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    runs_gc.set_defaults(func=cmd_runs)

    trace = sub.add_parser("trace", help="inspect a --trace directory")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="per-stage time breakdown + slowest spans per cell"
    )
    trace_summary.add_argument("dir", help="trace directory (from bench --trace)")
    trace_summary.add_argument(
        "--top", type=int, default=3, help="slowest spans shown per cell"
    )
    trace_summary.set_defaults(func=cmd_trace)
    trace_export = trace_sub.add_parser(
        "export", help="merge per-process JSONL files into a Chrome trace JSON"
    )
    trace_export.add_argument("dir", help="trace directory (from bench --trace)")
    trace_export.add_argument(
        "--out", default=None, help="output path (default: DIR/trace.json)"
    )
    trace_export.set_defaults(func=cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the bound-inference daemon (POST /analyze, GET /status/<id>, GET /healthz)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="TCP port (0 picks a free one)"
    )
    serve.add_argument("--jobs", type=int, default=2, help="pool worker processes")
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=16,
        help="bounded admission queue depth (full => 429 + Retry-After)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=20.0,
        help="per-client sustained requests/second (<= 0 disables rate limiting)",
    )
    serve.add_argument(
        "--burst", type=float, default=40.0, help="per-client token-bucket burst"
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=120.0,
        help="default per-request deadline in seconds",
    )
    serve.add_argument(
        "--latency-budget",
        type=float,
        default=10.0,
        help="sampler-stage latency budget feeding the circuit breaker",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds before the breaker decays one degradation level",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, help="attempts per request after worker crashes"
    )
    serve.add_argument(
        "--grace",
        type=float,
        default=10.0,
        help="SIGTERM drain window for in-flight requests (exit 75)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="shared result cache; hits are served even when shedding load",
    )
    serve.add_argument(
        "--runs-dir",
        default=None,
        help=f"request journal root (default ${ENV_RUNS_DIR} or ./runs)",
    )
    serve.add_argument(
        "--api-key",
        action="append",
        metavar="KEY=TENANT",
        help="accept KEY as TENANT's credential (repeatable; unset disables auth)",
    )
    serve.add_argument(
        "--quota-concurrency",
        type=int,
        default=0,
        help="per-tenant in-flight request cap (<= 0 disables)",
    )
    serve.add_argument(
        "--quota-cpu-seconds",
        type=float,
        default=0.0,
        help="per-tenant worker cpu-seconds per quota window (<= 0 disables)",
    )
    serve.add_argument(
        "--quota-window",
        type=float,
        default=60.0,
        help="sliding window for the cpu-second quota, in seconds",
    )
    budgets = serve.add_argument_group(
        "execution budgets",
        "caps applied to ad-hoc 'source' submissions (defaults: the "
        "untrusted profile; registry benchmarks run unbudgeted)",
    )
    for field in dataclasses.fields(ExecutionBudget):
        budgets.add_argument(
            f"--budget-{field.name.replace('_', '-')}", type=int, default=None, metavar="N"
        )
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load generator replaying the benchmark suite against a daemon",
    )
    loadgen.add_argument("--url", default="http://127.0.0.1:8787")
    loadgen.add_argument("--requests", type=int, default=50)
    loadgen.add_argument(
        "--rate", type=float, default=10.0, help="mean arrival rate, requests/second"
    )
    loadgen.add_argument("--seed", type=int, default=0, help="arrival-schedule seed")
    loadgen.add_argument(
        "--benchmarks",
        default=",".join(("MapAppend", "Concat")),
        help="comma-separated registry names to draw from",
    )
    loadgen.add_argument(
        "--methods",
        default="bayespc,bayeswc,opt",
        help="comma-separated methods to draw from",
    )
    loadgen.add_argument("--samples", type=int, default=10, help="posterior samples per request")
    loadgen.add_argument(
        "--seeds",
        type=int,
        default=2,
        help="distinct request seeds (small pool => repeat requests hit the cache)",
    )
    loadgen.add_argument(
        "--wait-timeout",
        type=float,
        default=120.0,
        help="per-request long-poll bound in seconds",
    )
    loadgen.add_argument(
        "--out", default="BENCH_server.json", help="latency/taxonomy report path"
    )
    loadgen.add_argument(
        "--check",
        action="store_true",
        help="exit 2 unless every request reached a terminal response",
    )
    loadgen.add_argument(
        "--hostile",
        default=None,
        metavar="DIR",
        help="mix in programs from DIR as raw 'source' submissions",
    )
    loadgen.add_argument(
        "--hostile-fraction",
        type=float,
        default=0.25,
        help="fraction of arrivals drawn from the hostile corpus",
    )
    loadgen.add_argument(
        "--api-key", default=None, help="X-Api-Key header for every request"
    )
    loadgen.set_defaults(func=cmd_loadgen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    con = configure_console(verbosity=args.verbose - args.quiet)
    telemetry.ensure_from_env()
    try:
        return args.func(args)
    except KeyboardInterrupt:
        from .errors import EXIT_INTERRUPTED

        con.error("interrupted")
        return EXIT_INTERRUPTED
    except ReproError as exc:
        con.error(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
