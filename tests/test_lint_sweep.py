"""Whole-corpus lint sweep + CLI + runner-guard integration.

The paper suite and every example program must stay lint-clean (no
errors, no warnings; notes are informational), the ``lint`` subcommand
must behave as documented, and the lint guard in the eval runner must
not change any analysis result.
"""

import copy
import glob
import json
import os
from pathlib import Path

import pytest

from repro.analysis import extract_embedded_sources, lint_source
from repro.cli import main
from repro.config import AnalysisConfig
from repro.suite import all_benchmarks

REPO = Path(__file__).parent.parent


def _suite_units():
    for spec in all_benchmarks():
        yield f"{spec.name}/data_driven", spec.data_driven_source, spec.data_driven_entry
        if spec.hybrid_source is not None:
            yield f"{spec.name}/hybrid", spec.hybrid_source, spec.hybrid_entry


@pytest.mark.parametrize(
    "label,source,entry", list(_suite_units()), ids=[u[0] for u in _suite_units()]
)
def test_suite_programs_are_lint_clean(label, source, entry):
    result = lint_source(source, path=label, entry=entry)
    offenders = [
        f"{d.severity}[{d.code}] {d.message} @ {d.location()}"
        for d in result.errors() + result.warnings()
    ]
    assert result.clean(), offenders


def test_suite_covers_all_ten_benchmarks():
    assert len(all_benchmarks()) == 10


@pytest.mark.parametrize(
    "path", sorted(glob.glob(str(REPO / "examples" / "*.py"))), ids=os.path.basename
)
def test_example_embedded_programs_are_lint_clean(path):
    programs = extract_embedded_sources(Path(path).read_text())
    for name, source in programs:
        result = lint_source(source, path=f"{path}#{name}")
        offenders = [
            f"{d.severity}[{d.code}] {d.message} @ {d.location()}"
            for d in result.errors() + result.warnings()
        ]
        assert result.clean(), offenders


def test_examples_actually_embed_programs():
    embedded = sum(
        len(extract_embedded_sources(p.read_text()))
        for p in (REPO / "examples").glob("*.py")
    )
    assert embedded >= 4


def test_parser_preserves_positions_everywhere():
    """Every node of every suite program parses with a real position."""
    from repro.lang.parser import parse_program

    for label, source, _entry in _suite_units():
        program = parse_program(source)
        for fdef in program:
            assert fdef.pos is not None and fdef.pos.line >= 1, label
            assert fdef.name_pos is not None, label
            assert fdef.param_pos is not None and len(fdef.param_pos) == len(
                fdef.params
            ), label
            for node in fdef.body.walk():
                assert node.pos is not None, (label, fdef.name, type(node).__name__)
                assert node.pos.line >= 1, (label, fdef.name, type(node).__name__)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_lint_suite_exits_clean(capsys):
    assert main(["lint", "--suite"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_cli_lint_werror_stays_clean_on_suite():
    # acceptance: the suite is clean even with warnings promoted
    assert main(["lint", "--suite", "--Werror"]) == 0


def test_cli_lint_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ml"
    bad.write_text("let f x = y\n")
    assert main(["lint", str(bad)]) == 1
    assert main(["lint", str(bad), "--format", "json"]) == 1


def test_cli_lint_json_payload(tmp_path, capsys):
    bad = tmp_path / "bad.ml"
    bad.write_text("let f x = y\n")
    main(["lint", str(bad), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert [d["code"] for d in payload["diagnostics"]] == ["R010"]
    d = payload["diagnostics"][0]
    assert (d["line"], d["col"]) == (1, 11)


def test_cli_lint_sarif_out_file(tmp_path):
    out = tmp_path / "lint.sarif"
    assert main(["lint", "--suite", "--format", "sarif", "--out", str(out)]) == 0
    sarif = json.loads(out.read_text())
    assert sarif["version"] == "2.1.0"
    assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


def test_cli_lint_werror_promotes_warning_to_failure(tmp_path):
    warn = tmp_path / "warn.ml"
    warn.write_text("let f x = let y = 1 in x\n")
    assert main(["lint", str(warn)]) == 0
    assert main(["lint", str(warn), "--Werror"]) == 1


def test_cli_lint_nothing_to_do_is_an_error(capsys):
    assert main(["lint"]) == 2


def test_cli_lint_python_file_extraction(tmp_path, capsys):
    py = tmp_path / "emb.py"
    py.write_text('PROG = """let f x = y\n"""\nOTHER = 42\n')
    assert main(["lint", str(py)]) == 1
    out = capsys.readouterr().out
    assert "emb.py#PROG" in out and "R010" in out


def test_cli_static_reports_unboundable(tmp_path, capsys):
    prog = tmp_path / "spin.ml"
    prog.write_text("let rec spin xs = let _ = Raml.tick 1.0 in spin xs\n")
    assert main(["static", str(prog), "--entry", "spin"]) == 1
    out = capsys.readouterr().out
    assert "unboundable" in out and "R042" in out


def test_cli_parse_error_is_caret_rendered(tmp_path, capsys):
    prog = tmp_path / "syn.ml"
    prog.write_text("let f x =\n  let y = in x\n")
    assert main(["static", str(prog), "--entry", "f"]) == 2
    err = capsys.readouterr().err
    assert "error[R002]" in err and "^" in err and "syn.ml:2:" in err


def test_lint_spans_land_in_lint_stage(tmp_path):
    """`trace summary` buckets lint cost under its own stage."""
    from repro import telemetry
    from repro.telemetry.chrome import load_events

    telemetry.enable(tmp_path)
    try:
        lint_source("let f x = x\n", path="traced.ml")
    finally:
        telemetry.disable()
    spans = [e for e in load_events(tmp_path) if e["ev"] == "span"]
    lint_spans = [e for e in spans if e["name"].startswith("lint.")]
    assert {e["name"] for e in lint_spans} >= {"lint.parse", "lint.resolve"}
    assert all(e["stage"] == "lint" for e in lint_spans)


# ---------------------------------------------------------------------------
# Runner guard: identical results, memoized lint
# ---------------------------------------------------------------------------


def _strip_timing(outcome):
    out = copy.deepcopy(outcome)
    out.pop("metrics", None)
    if out.get("verdict"):
        out["verdict"].pop("runtime_seconds", None)
    if out.get("result"):
        out["result"].pop("runtime_seconds", None)
    return out


def test_lint_guard_does_not_change_results(monkeypatch):
    from repro.evalharness import execute_task, expand_grid
    from repro.evalharness import runner as runner_mod
    from repro.suite import get_benchmark

    config = AnalysisConfig(num_posterior_samples=4, seed=0)
    tasks = expand_grid([get_benchmark("Round")], config, seed=0, methods=("opt",))

    runner_mod._PROGRAM_CACHE.clear()
    runner_mod._LINT_CACHE.clear()
    guarded = [_strip_timing(execute_task(t)) for t in tasks]

    runner_mod._PROGRAM_CACHE.clear()
    runner_mod._LINT_CACHE.clear()
    monkeypatch.setattr(runner_mod, "_lint_guard", lambda spec, mode, budget=None: None)
    unguarded = [_strip_timing(execute_task(t)) for t in tasks]

    assert guarded == unguarded
    assert all(o["outcome"] == "ok" for o in guarded)


def test_lint_guard_is_memoized_per_program(monkeypatch):
    from repro.evalharness import runner as runner_mod
    from repro.suite import get_benchmark

    calls = []
    # the guard looks lint_source up on the engine module at call time
    import repro.analysis.engine as engine_mod

    real = engine_mod.lint_source

    def counting(source, path="<input>", entry=None, budget=None):
        calls.append(path)
        return real(source, path=path, entry=entry, budget=budget)

    monkeypatch.setattr(engine_mod, "lint_source", counting)
    runner_mod._PROGRAM_CACHE.clear()
    runner_mod._LINT_CACHE.clear()
    spec = get_benchmark("Round")
    for _ in range(5):
        runner_mod._compiled_program(spec, "data-driven")
    assert len(calls) == 1


def test_lint_guard_failure_records_lint_stage(monkeypatch):
    from repro.errors import LintError, failure_stage
    from repro.evalharness import execute_task, expand_grid
    from repro.evalharness import runner as runner_mod
    from repro.suite import get_benchmark

    # serve a program with a lint error (unbound variable) for every mode
    monkeypatch.setattr(
        runner_mod,
        "_mode_variant",
        lambda spec, mode: ("let round_list x = unbound_var\n", "round_list"),
    )
    config = AnalysisConfig(num_posterior_samples=4, seed=0)
    tasks = expand_grid([get_benchmark("Round")], config, seed=0, methods=("opt",))
    runner_mod._PROGRAM_CACHE.clear()
    runner_mod._LINT_CACHE.clear()
    outcomes = [execute_task(t) for t in tasks]
    runner_mod._PROGRAM_CACHE.clear()
    runner_mod._LINT_CACHE.clear()
    assert outcomes
    assert all(o["outcome"] == "error" for o in outcomes)
    assert all(o["failure"]["stage"] == "lint" for o in outcomes)
    assert all("R010" in o["error"] for o in outcomes)
    assert failure_stage(LintError("x")) == "lint"
