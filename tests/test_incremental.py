"""Incremental engine: exact reuse sets, byte-identity, fingerprints."""

import json
import os

import pytest

from repro.analysis.fingerprint import (
    fingerprint_functions,
    normalize_slice,
    program_fingerprint,
)
from repro.analysis.incremental import (
    ArtifactStore,
    IncrementalEngine,
    artifact_key,
    peek_conventional_verdict,
)
from repro.config import ExecutionBudget
from repro.lang.parser import function_line_spans, parse_program_ex
from repro.suite import all_benchmarks

BASE = """let rec length xs =
  match xs with
  | [] -> 0
  | _hd :: tl -> let _ = Raml.tick 1.0 in 1 + length tl

let rec helper xs =
  match xs with
  | [] -> 0
  | _hd :: tl -> let _ = Raml.tick 1.0 in helper tl

let main xs =
  let a = length xs in
  let b = helper xs in
  a + b
"""

# a call chain main -> mid -> leaf, plus an unrelated lone function
CHAIN = """let rec leaf xs =
  match xs with
  | [] -> 0
  | _hd :: tl -> let _ = Raml.tick 1.0 in 1 + leaf tl

let mid xs = leaf xs + 1

let rec lone xs =
  match xs with
  | [] -> 0
  | _hd :: tl -> let _ = Raml.tick 1.0 in lone tl

let main xs = mid xs
"""


def _engine(tmp_path, **kw):
    return IncrementalEngine(ArtifactStore(tmp_path / "artifacts"), **kw)


def _corpus():
    for spec in all_benchmarks():
        yield f"{spec.name}/data_driven", spec.data_driven_source, spec.data_driven_entry
        if spec.hybrid_source is not None:
            yield f"{spec.name}/hybrid", spec.hybrid_source, spec.hybrid_entry


# ---------------------------------------------------------------------------
# Invalidation granularity
# ---------------------------------------------------------------------------


def test_cold_run_recomputes_everything(tmp_path):
    result = _engine(tmp_path).analyze(BASE, entry="main")
    assert result.granularity == "function"
    assert set(result.lint.recomputed) == {"length", "helper", "main", "<program>"}
    assert result.lint.reused == ()
    assert set(result.bound_stage.recomputed) == {"length", "helper", "main"}
    assert result.bound_stage.reused == ()


def test_noop_reanalysis_reuses_everything(tmp_path):
    engine = _engine(tmp_path)
    cold = engine.analyze(BASE, entry="main")
    warm = engine.analyze(BASE, entry="main")
    assert warm.recomputed == 0
    assert warm.reused == cold.reused + cold.recomputed
    assert warm.document() == cold.document()


def test_single_function_edit_recomputes_only_its_dependents(tmp_path):
    engine = _engine(tmp_path)
    engine.analyze(BASE, entry="main")
    edited = BASE.replace("1 + length tl", "2 + length tl")
    result = engine.analyze(edited, entry="main")
    # length changed; main's cone contains length; helper and the
    # program-level bucket are untouched
    assert set(result.lint.recomputed) == {"length", "main"}
    assert set(result.lint.reused) == {"helper", "<program>"}
    assert set(result.bound_stage.recomputed) == {"length", "main"}
    assert set(result.bound_stage.reused) == {"helper"}


def test_whitespace_only_edit_reuses_everything(tmp_path):
    engine = _engine(tmp_path)
    engine.analyze(BASE, entry="main")
    spaced = BASE.replace("  a + b", "  a + b   ") + "\n\n"
    result = engine.analyze(spaced, entry="main")
    assert result.recomputed == 0


def test_scc_cones_move_together(tmp_path):
    # the surface language cannot express mutual recursion, so every SCC
    # is a singleton (its function with itself in its own cone) and
    # SCC-as-a-unit invalidation reduces to: an edit inside a cone
    # invalidates every member of that cone's reverse closure, and
    # nothing else
    engine = _engine(tmp_path)
    cold = engine.analyze(CHAIN, entry="main")
    fps = cold.fingerprints
    assert all(len(scc) == 1 for scc in fps.sccs)
    assert "leaf" in fps.cone_members["leaf"]  # self-recursive cone
    assert fps.cone_members["main"] == ("leaf", "mid", "main")

    # edit at the bottom of the chain: the whole reverse closure moves
    result = engine.analyze(
        CHAIN.replace("1 + leaf tl", "2 + leaf tl"), entry="main"
    )
    assert set(result.bound_stage.recomputed) == {"leaf", "mid", "main"}
    assert set(result.bound_stage.reused) == {"lone"}
    assert set(result.lint.recomputed) == {"leaf", "mid", "main"}
    assert set(result.lint.reused) == {"lone", "<program>"}

    # edit in the middle: leaf's artifacts survive
    engine.analyze(CHAIN, entry="main")
    result = engine.analyze(CHAIN.replace("leaf xs + 1", "leaf xs + 2"), entry="main")
    assert set(result.bound_stage.recomputed) == {"mid", "main"}
    assert set(result.bound_stage.reused) == {"leaf", "lone"}


def test_interface_change_invalidates_lint_buckets_only_where_needed(tmp_path):
    engine = _engine(tmp_path)
    engine.analyze(BASE, entry="main")
    # adding a new function changes the program interface: every lint
    # bucket is invalid (resolve reads the global name set), but bounds
    # of untouched cones survive
    grown = BASE + "\nlet extra x = x + 1\n"
    result = engine.analyze(grown, entry="main")
    assert set(result.bound_stage.reused) == {"length", "helper", "main"}
    assert set(result.bound_stage.recomputed) == {"extra"}
    assert set(result.lint.reused) == set()


def test_revert_restores_full_reuse_and_identical_output(tmp_path):
    engine = _engine(tmp_path)
    cold = engine.analyze(BASE, entry="main")
    engine.analyze(BASE.replace("1 + length tl", "2 + length tl"), entry="main")
    reverted = engine.analyze(BASE, entry="main")
    assert reverted.recomputed == 0
    assert reverted.document() == cold.document()


# ---------------------------------------------------------------------------
# Byte-identity against a cold full run (whole suite corpus)
# ---------------------------------------------------------------------------


def test_incremental_byte_identical_to_cold_over_suite(tmp_path):
    for label, source, entry in _corpus():
        cold = IncrementalEngine(None, max_degree=1).analyze(
            source, path=label, entry=entry
        )
        engine = IncrementalEngine(
            ArtifactStore(tmp_path / "store"), max_degree=1
        )
        first = engine.analyze(source, path=label, entry=entry)
        warm = engine.analyze(source, path=label, entry=entry)
        assert warm.recomputed == 0, label
        cold_doc = json.dumps(cold.document(), sort_keys=True)
        assert json.dumps(first.document(), sort_keys=True) == cold_doc, label
        assert json.dumps(warm.document(), sort_keys=True) == cold_doc, label


def test_incremental_diagnostics_match_lint_source_over_suite(tmp_path):
    from repro.analysis import lint_source, to_json

    engine = IncrementalEngine(ArtifactStore(tmp_path / "store"), max_degree=1)
    for label, source, entry in _corpus():
        batch = sorted(
            to_json(lint_source(source, path=label, entry=entry).diagnostics),
            key=lambda d: json.dumps(d, sort_keys=True),
        )
        for _ in range(2):  # cold-fill, then assembled-from-artifacts
            incr = sorted(
                to_json(engine.analyze(source, path=label, entry=entry).diagnostics),
                key=lambda d: json.dumps(d, sort_keys=True),
            )
            assert incr == batch, label


# ---------------------------------------------------------------------------
# Line shifts: warm equals cold wherever the functions move
# ---------------------------------------------------------------------------

# a non-decreasing recursion: its bound detail quotes R042's position
SPIN = """let rec length xs =
  match xs with
  | [] -> 0
  | _hd :: tl -> let _ = Raml.tick 1.0 in 1 + length tl

let rec spin xs =
  match xs with
  | [] -> 0
  | _hd :: tl -> let _ = Raml.tick 1.0 in spin xs

let main xs = spin xs + length xs
"""


def _shifted(source):
    """Per function: blank lines and a comment line inserted above it, and
    the blank line above it deleted (where there is one)."""
    lines = source.split("\n")
    starts = [f.pos.line - 1 for f in parse_program_ex(source).functions]
    for start in starts:
        for inserted in (["", "", ""], ["(* moved *)"]):
            yield "\n".join(lines[:start] + inserted + lines[start:])
        if start > 0 and not lines[start - 1].strip():
            yield "\n".join(lines[: start - 1] + lines[start:])


def _assert_warm_equals_cold(engine, source, label, entry=None):
    warm = engine.analyze(source, path=label, entry=entry)
    cold = IncrementalEngine(None, max_degree=engine.max_degree).analyze(
        source, path=label, entry=entry
    )
    assert json.dumps(warm.document(), sort_keys=True) == json.dumps(
        cold.document(), sort_keys=True
    ), label
    return warm


def test_line_shifts_keep_positions_and_reuse_lp_verdicts(tmp_path):
    engine = _engine(tmp_path, max_degree=1)
    base = engine.analyze(SPIN, entry="main")
    assert "(at 9:43)" in base.bounds["main"]["detail"]
    moved = "\n\n\n" + SPIN
    warm = _assert_warm_equals_cold(engine, moved, "moved", entry="main")
    assert "(at 12:43)" in warm.bounds["main"]["detail"]
    # every function moved: fresh lint buckets; the R042 verdicts quote a
    # position and are derived again (no LP), the LP verdict is reused
    assert set(warm.lint.recomputed) == {"length", "spin", "main"}
    assert warm.bound_stage.reused == ("length",)
    assert set(warm.bound_stage.recomputed) == {"spin", "main"}
    # the fast path serves the layout the store last saw, and misses on
    # the other one rather than quote a stale position
    peeked = peek_conventional_verdict(engine.store, moved, "main", max_degree=1)
    assert peeked["detail"] == warm.bounds["main"]["detail"]
    assert peek_conventional_verdict(engine.store, SPIN, "main", max_degree=1) is None
    # and back: the first layout's lint buckets are still stored
    again = _assert_warm_equals_cold(engine, SPIN, "back", entry="main")
    assert again.lint.recomputed == ()
    assert again.bound_stage.reused == ("length",)


@pytest.mark.slow
def test_line_shifts_warm_equals_cold_over_suite(tmp_path):
    corpus = list(_corpus()) + [("spin", SPIN, "main")]
    for label, source, entry in corpus:
        engine = IncrementalEngine(ArtifactStore(tmp_path / "store"), max_degree=1)
        engine.analyze(source, path=label, entry=entry)
        for index, variant in enumerate(_shifted(source)):
            _assert_warm_equals_cold(engine, variant, f"{label}#{index}", entry)


def test_lone_carriage_return_is_not_a_line_break(tmp_path):
    """The lexer reads a lone CR as a space: a function holding one is not
    the function with a line break there, whose positions differ."""
    engine = _engine(tmp_path, max_degree=1)
    engine.analyze("let f x = x\nlet main z =\n  y\n")
    result = _assert_warm_equals_cold(engine, "let f x = x\nlet main z =\r  y\n", "cr")
    assert [(d.code, d.span.line) for d in result.diagnostics if d.code == "R010"] == [
        ("R010", 2)
    ]


def test_let_after_text_on_its_line_is_not_sliced(tmp_path):
    """The end of a body on the next definition's line would be sliced
    into that definition: editing it must not replay a stale verdict."""
    engine = _engine(tmp_path, max_degree=1)
    engine.analyze("let f x =\n  x + 1 let main y = f y\n")
    edited = "let f x =\n  x + true let main y = f y\n"
    result = _assert_warm_equals_cold(engine, edited, "edited")
    assert result.granularity == "program"
    assert result.bounds["f"]["status"] == "front-end-error"


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprints_collision_free_over_suite_corpus():
    by_fp = {}
    for label, source, entry in _corpus():
        parsed = parse_program_ex(source)
        fps = fingerprint_functions(source, parsed)
        assert fps is not None, label
        spans = function_line_spans(list(parsed.functions), source)
        lines = source.split("\n")
        for name, fp in fps.local.items():
            start, end = spans[name]
            content = (name, normalize_slice("\n".join(lines[start - 1 : end])))
            assert by_fp.setdefault(fp, content) == content, (
                f"fingerprint collision: {fp} covers both "
                f"{by_fp[fp][0]} and {name}"
            )
    # the corpus actually exercised distinct functions
    assert len(by_fp) > 40
    assert len({program_fingerprint(s) for _, s, _ in _corpus()}) == sum(
        1 for _ in _corpus()
    )


def test_fingerprint_ignores_trailing_whitespace_not_content():
    parsed = parse_program_ex(BASE)
    fps = fingerprint_functions(BASE, parsed)
    spaced = BASE.replace("a + b", "a + b  ")
    fps2 = fingerprint_functions(spaced, parse_program_ex(spaced))
    assert fps.local == fps2.local
    changed = BASE.replace("a + b", "b + a")
    fps3 = fingerprint_functions(changed, parse_program_ex(changed))
    assert fps3.local["main"] != fps.local["main"]
    assert fps3.local["length"] == fps.local["length"]


def test_duplicate_names_fall_back_to_program_granularity(tmp_path):
    dup = "let f x = x\nlet f y = y\nlet main z = f z\n"
    result = _engine(tmp_path).analyze(dup, entry="main")
    assert result.granularity == "program"
    assert any(d.code == "R014" for d in result.diagnostics)


# ---------------------------------------------------------------------------
# Artifact store robustness
# ---------------------------------------------------------------------------


def test_corrupted_artifact_is_quarantined_and_recomputed(tmp_path):
    engine = _engine(tmp_path)
    cold = engine.analyze(BASE, entry="main")
    store = engine.store
    corrupted = 0
    for entry_path in os.listdir(store.root):
        if entry_path.endswith(".json"):
            full = store.root / entry_path
            full.write_text(full.read_text()[:-10] + "corrupted!")
            corrupted += 1
            break
    assert corrupted == 1
    again = engine.analyze(BASE, entry="main")
    assert again.recomputed >= 1  # the damaged artifact was rebuilt
    assert again.document() == cold.document()
    assert any(
        name.endswith(".quarantined") for name in os.listdir(store.root)
    )
    healed = engine.analyze(BASE, entry="main")
    assert healed.recomputed == 0


def test_artifact_version_mismatch_is_a_miss_not_an_error(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = artifact_key("lint-fn", {"fn": "f", "cone": "x"})
    store.store(key, [1, 2, 3])
    payload = json.loads(store.path(key).read_text())
    payload["version"] = 999
    store.path(key).write_text(json.dumps(payload))
    assert store.load(key) is None
    assert not store.path(key).exists()  # stale format is swept, not kept


def test_store_roundtrip_and_checksum(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = artifact_key("bound", {"fn": "g", "cone": "y"})
    value = {"status": "bound", "describe": "1*n1"}
    store.store(key, value)
    assert store.load(key) == value


# ---------------------------------------------------------------------------
# Hostile input under the untrusted budget
# ---------------------------------------------------------------------------


def test_hostile_deep_nesting_degrades_to_diagnostic(tmp_path):
    budget = ExecutionBudget.untrusted()
    engine = IncrementalEngine(
        ArtifactStore(tmp_path / "store"), budget=budget
    )
    bomb = "let f x = " + "(" * (budget.max_nesting_depth + 10)
    result = engine.analyze(bomb)
    assert result.granularity == "parse-error"
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].code in ("R001", "R002", "R004")
    assert result.bounds == {}


def test_hostile_oversized_source_degrades_to_diagnostic(tmp_path):
    budget = ExecutionBudget.untrusted()
    engine = IncrementalEngine(None, budget=budget)
    huge = "let f x = x\n" * (budget.max_source_chars // 10)
    result = engine.analyze(huge)
    assert result.granularity == "parse-error"
    assert result.diagnostics[0].code == "R001"


# ---------------------------------------------------------------------------
# Server peek
# ---------------------------------------------------------------------------


def test_peek_returns_warm_verdict_and_never_computes(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    # nothing warm: miss
    assert peek_conventional_verdict(store, BASE, "main") is None
    IncrementalEngine(store).analyze(BASE, entry="main")
    verdict = peek_conventional_verdict(store, BASE, "main")
    assert verdict is not None
    assert verdict["status"] == "bound"
    assert verdict["runtime_seconds"] == 0.0
    assert verdict["bound"] is not None
    # unknown entry / unparseable source: miss, not an exception
    assert peek_conventional_verdict(store, BASE, "missing") is None
    assert peek_conventional_verdict(store, "let f = (", "f") is None


def test_server_fast_path_serves_incremental_verdict(tmp_path):
    from repro.server.core import ServerConfig, ServerCore

    cache = tmp_path / "cache"
    IncrementalEngine(
        ArtifactStore(cache), budget=ExecutionBudget.untrusted()
    ).analyze(BASE, entry="main")
    core = ServerCore(
        ServerConfig(cache_dir=str(cache), runs_dir=str(tmp_path / "runs"), jobs=1)
    )
    core.start()
    try:
        record = core.submit(
            {"source": BASE, "entry": "main", "method": "conventional"},
            client="test",
        )
        assert record.state == "done"
        assert record.cache_hit
        assert record.outcome["verdict"]["status"] == "bound"
        assert record.outcome["metrics"]["incremental"] is True
        assert core.counters["incremental_hits"] == 1
    finally:
        core.stop(0.5)


def test_cli_watch_single_cycle_renders_stats(tmp_path, capsys):
    from repro.cli import main

    prog = tmp_path / "prog.ml"
    prog.write_text(BASE)
    cache = tmp_path / "cache"
    rc = main(
        [
            "lint",
            "--watch",
            str(prog),
            "--watch-cycles",
            "1",
            "--cache-dir",
            str(cache),
            "--entry",
            "main",
            "--degree",
            "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 reused / 7 recomputed" in out
    assert "length : " in out and "main : " in out
    # second invocation: same content, artifacts all warm
    rc = main(
        [
            "lint",
            "--watch",
            str(prog),
            "--watch-cycles",
            "1",
            "--cache-dir",
            str(cache),
            "--entry",
            "main",
            "--degree",
            "1",
        ]
    )
    assert rc == 0
    assert "7 reused / 0 recomputed" in capsys.readouterr().out


def test_cli_watch_rejects_multiple_files(tmp_path):
    from repro.cli import main

    assert main(["lint", "--watch", "a.ml", "b.ml"]) == 2


def test_server_fast_path_miss_still_queues(tmp_path):
    from repro.server.core import ServerConfig, ServerCore

    core = ServerCore(
        ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            runs_dir=str(tmp_path / "runs"),
            jobs=1,
        )
    )
    core.start()
    try:
        record = core.submit(
            {"source": BASE, "entry": "main", "method": "conventional"},
            client="test",
        )
        assert not record.cache_hit
        assert core.counters["incremental_hits"] == 0
        assert core.counters["admitted"] == 1
    finally:
        core.stop(0.5)
