"""``edit``: the editor loop behind ``lint --watch``, ``lsp`` and the
daemon fast path.

One ``IncrementalEngine`` over a fresh ``ArtifactStore`` with the untrusted
budget (the defaults of those front ends) runs a seeded script over the
suite's program variants: each file gets a cold open, then interleaved
whitespace-only saves and one-function edits, each edit followed by its
revert.  Every op is classed by what the engine reports: nothing
recomputed is a no-op (parse, fingerprint and checksummed artifact reads,
no LP); opens and edits are per-function AARA plus LP.

MedianOfMedians' two variants are left out: an editor session would end at
their cold open on the dense-LP ``MemoryError`` that ``grid`` counts.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Any, Dict, List, Tuple

from . import common

LEFT_OUT = ("MedianOfMedians",)
MAX_DEGREE = 3
#: whitespace-only saves per file and pass; with one revert per function
#: this gives about 535 no-ops a pass, so even one pass's p95 has 27
#: samples beyond it.  No-ops cost from 1.5 ms (Concat) to 6.5 ms
#: (ZAlgorithm) by file; ZAlgorithm's two variants are the top 7% of them,
#: so the p95 falls inside their group
WHITESPACE_SAVES = 30
NOMINAL_PASS_S = 10.0
#: a small program outside the corpus, analyzed during set-up so lazy
#: imports and solver start-up are not booked to the first open
WARMUP_SOURCE = """
let rec walk xs =
  match xs with
  | [] -> 0
  | _hd :: tl -> let _ = Raml.tick 1.0 in 1 + walk tl
"""


def corpus() -> List[Tuple[str, str, str]]:
    """``(path, source, entry)`` per suite variant, in registry order."""
    from repro.suite import all_benchmarks

    files = []
    for spec in all_benchmarks():
        if spec.name in LEFT_OUT:
            continue
        files.append((f"{spec.name}/data-driven", spec.data_driven_source, spec.data_driven_entry))
        if spec.hybrid_source is not None:
            files.append((f"{spec.name}/hybrid", spec.hybrid_source, spec.hybrid_entry))
    return files


def _offset(text: str, line: int, col: int) -> int:
    lines = text.split("\n")
    return sum(len(item) + 1 for item in lines[: line - 1]) + col - 1


def tick_edit(text: str, fdef, amount: str) -> str:
    """``text`` with ``let _ = Raml.tick <amount> in`` at the head of
    ``fdef``'s body (right after the ``=`` of its header)."""
    start = _offset(text, fdef.pos.line, fdef.pos.col)
    if not text.startswith("let", start):
        raise ValueError(f"no definition of {fdef.name} at {fdef.pos}")
    eq = text.index("=", start)
    return f"{text[: eq + 1]} let _ = Raml.tick {amount} in{text[eq + 1 :]}"


def whitespace_save(text: str, rng: random.Random) -> str:
    """Trailing spaces on one line and an extra final newline."""
    lines = text.split("\n")
    index = rng.randrange(len(lines))
    lines[index] = lines[index] + " " * rng.randint(1, 3)
    return "\n".join(lines) + "\n"


def script(seed: int, files) -> List[Tuple[str, int, Any]]:
    """The pass's op list: opens in corpus order, then a seeded interleaving
    of saves and edits; an edit is always followed by its revert."""
    from repro.lang.parser import parse_program_ex

    rng = random.Random(seed)
    actions: List[Tuple[str, int, Any]] = []
    for index, (_path, source, _entry) in enumerate(files):
        for fdef in parse_program_ex(source).functions:
            actions.append(("edit", index, fdef))
        for n in range(WHITESPACE_SAVES):
            actions.append(("save", index, n))
    rng.shuffle(actions)
    ops = [("open", index, None) for index in range(len(files))]
    for kind, index, arg in actions:
        ops.append((kind, index, arg))
        if kind == "edit":
            ops.append(("revert", index, arg))
    return ops


def setup(ctx) -> Dict[str, Any]:
    from repro.analysis.incremental import IncrementalEngine
    from repro.config import ExecutionBudget

    budget = ExecutionBudget.untrusted()
    IncrementalEngine(None, max_degree=MAX_DEGREE, budget=budget).analyze(WARMUP_SOURCE)
    files = corpus()
    return {"budget": budget, "files": files, "script": script(ctx.seed, files)}


#: the class each scripted op must be given by the engine's report
EXPECTED_CLASS = {"open": "open", "edit": "edit", "revert": "noop", "save": "noop"}


def _check(ops: common.Ops, kind: str, klass: str, what: str, result, baseline) -> None:
    if klass != EXPECTED_CLASS[kind]:
        ops.fail(f"{what}: classed {klass}, expected {EXPECTED_CLASS[kind]}")
    elif kind == "open" and not result.recomputed:
        ops.fail(f"{what}: a cold open computed nothing")
    elif _errors(result) != baseline:
        ops.fail(f"{what}: new errors {_errors(result)}")
    else:
        ops.ok()


def _one_pass(ctx, state, tracer, ops):
    """One pass of the script; each op is checked as it completes and only
    its digest is kept, so the benchmark's own memory stays flat."""
    from repro.analysis.incremental import ArtifactStore, IncrementalEngine

    files = state["files"]
    engine = IncrementalEngine(
        ArtifactStore(ctx.work.fresh("artifacts")), max_degree=MAX_DEGREE, budget=state["budget"]
    )
    save_rng = random.Random(ctx.seed + 1)
    # class -> (start, end) of each op
    latency: Dict[str, List[Tuple[float, float]]] = {"open": [], "edit": [], "noop": []}
    per_file = [0.0] * len(files)
    last: Dict[int, Tuple[str, Any]] = {}
    baseline: Dict[int, List[str]] = {}
    outputs = hashlib.sha256()
    for kind, index, arg in state["script"]:
        path, source, entry = files[index]
        if kind == "edit":
            text = tick_edit(source, arg, f"{1 + (index + 1) / 16:g}")
        elif kind == "save":
            text = whitespace_save(source, save_rng)
        else:
            text = source
        if tracer is not None:
            tracer.op = path
        ctx.probe.sample()
        t0 = time.perf_counter()
        result = engine.analyze(text, path=path, entry=entry)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.count("analysis.reused", result.reused)
            tracer.count("analysis.recomputed", result.recomputed)
        if kind == "open":
            klass = "open"
            baseline[index] = _errors(result)
        else:
            klass = "noop" if result.recomputed == 0 else "edit"
        latency[klass].append((t0, t1))
        per_file[index] += t1 - t0
        what = f"{path} {kind}" + (f" {arg.name}" if kind in ("edit", "revert") else "")
        _check(ops, kind, klass, what, result, baseline[index])
        outputs.update(json.dumps([kind, path, result.document()], sort_keys=True).encode())
        last[index] = (text, result)
    return latency, per_file, last, outputs.hexdigest()


def _errors(result) -> List[str]:
    return sorted(f"{d.code}@{d.span}" for d in result.diagnostics if d.severity == "error")


def run(ctx, state, tracer) -> Dict[str, Any]:
    from repro.analysis.incremental import IncrementalEngine

    files = state["files"]
    ops = common.Ops()
    passes = [_one_pass(ctx, state, tracer, ops) for _ in range(ctx.passes(NOMINAL_PASS_S))]
    ops.check(len({p[3] for p in passes}) == 1, "passes gave different answers")
    # outside the timed region: each file's final warm answer equals a
    # store-less analysis of the same text
    cold = IncrementalEngine(None, max_degree=MAX_DEGREE, budget=state["budget"])
    for index, (text, result) in sorted(passes[-1][2].items()):
        path, _source, entry = files[index]
        fresh = cold.analyze(text, path=path, entry=entry)
        ops.check(
            json.dumps(result.document(), sort_keys=True)
            == json.dumps(fresh.document(), sort_keys=True),
            f"{path}: warm result differs from a store-less analysis",
        )

    opens = [common.total(p[0]["open"]) for p in passes]
    edits = [common.total(p[0]["edit"]) for p in passes]
    noops = [common.millis(p[0]["noop"]) for p in passes]
    latency, per_file = passes[-1][0], passes[-1][1]
    table = [("file", "seconds")] + [
        (path, f"{seconds:.3f}") for (path, _s, _e), seconds in zip(files, per_file)
    ]
    counts = {klass: len(values) for klass, values in latency.items()}
    return {
        "ops": ops,
        "compute_ops": [p[0]["open"] + p[0]["edit"] for p in passes],
        "stored_ops": [p[0]["noop"] for p in passes],
        "named": {
            "open_s": (common.median(opens), "s"),
            "edit_s": (common.median(edits), "s"),
            "noop_ms.p50": (common.pooled(noops, 0.5), "ms"),
            "noop_ms.p95": (common.pooled(noops, 0.95), "ms"),
        },
        "table": table,
        "notes": [f"ops per pass: {json.dumps(counts, sort_keys=True)}"],
        "outputs": passes[-1][3],
        "ops_order": [path for path, _s, _e in files],
        "passes": len(passes),
    }
