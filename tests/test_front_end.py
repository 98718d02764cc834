"""One front end behind every source path.

``lint_source`` and the incremental engine run one pass loop in one order
(:func:`repro.analysis.engine.run_passes`); one verdict record
(:meth:`~repro.aara.analyze.ConventionalVerdict.to_json` / ``from_json``)
is the task outcome's, the incremental artifact's and the daemon fast
path's; and the batch runner's worker-local memos stay bounded.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.aara.analyze import ConventionalVerdict, run_conventional
from repro.analysis import extract_embedded_sources, lint_source
from repro.analysis.incremental import (
    ArtifactStore,
    IncrementalEngine,
    peek_conventional_verdict,
)
from repro.config import AnalysisConfig, ExecutionBudget
from repro.evalharness import runner
from repro.evalharness.adhoc import adhoc_name
from repro.lang import compile_program
from repro.suite import all_benchmarks, get_benchmark
from tests.test_lint_diagnostics import CASES
from tests.test_source_gate import _hostile

REPO = Path(__file__).parent.parent

BUDGETS = {"trusted": None, "untrusted": ExecutionBudget.untrusted()}

LENGTH = (
    "let rec length xs =\n"
    "  match xs with\n"
    "  | [] -> 0\n"
    "  | hd :: tl -> let _ = Raml.tick 1.0 in 1 + length tl\n"
)

#: recursion that re-grows its argument: no bound at degrees 1..2
SATURATE = (
    "let rec spin xs =\n"
    "  match xs with\n"
    "  | [] -> []\n"
    "  | hd :: tl -> let _ = Raml.tick 1.0 in\n"
    "    if hd > 0 then spin (hd - 1 :: tl) else tl\n"
)

#: the key order of each record, pinned: artifacts reach disk as written
OUTCOME_KEYS = ["status", "degree", "detail", "runtime_seconds", "feasible_degrees", "bound"]
ARTIFACT_KEYS = ["status", "degree", "detail", "feasible_degrees", "bound", "describe"]


# ---------------------------------------------------------------------------
# One pass loop: the engine's lint equals lint_source
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lint_inputs(tmp_path_factory):
    """``(label, source, entry)``: every suite variant, the lint CASES,
    the hostile corpus and the examples' embedded programs."""
    items = []
    for spec in all_benchmarks():
        items.append((f"{spec.name}/dd", spec.data_driven_source, spec.data_driven_entry))
        if spec.hybrid_source is not None:
            items.append((f"{spec.name}/hy", spec.hybrid_source, spec.hybrid_entry))
    for code, (source, entry) in sorted(CASES.items()):
        items.append((f"case/{code}", source, entry))
    for label, source in _hostile(tmp_path_factory.mktemp("hostile")):
        items.append((label, source, None))
    for path in sorted((REPO / "examples").glob("*.py")):
        for name, source in extract_embedded_sources(path.read_text()):
            items.append((f"{path.name}#{name}", source, None))
    return items


@pytest.mark.parametrize("budget", list(BUDGETS.values()), ids=list(BUDGETS))
def test_engine_lint_equals_lint_source(lint_inputs, budget):
    labels = {label.split("/")[0].split("#")[0] for label, _s, _e in lint_inputs}
    assert {"case", "hostile", "quickstart.py"} <= labels
    engine = IncrementalEngine(None, budget=budget)
    differ = [
        label
        for label, source, entry in lint_inputs
        if engine.lint(source, path=label, entry=entry).diagnostics
        != lint_source(source, path=label, entry=entry, budget=budget).diagnostics
    ]
    assert differ == []


# ---------------------------------------------------------------------------
# One verdict record
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def verdicts():
    bound = run_conventional(compile_program(LENGTH), "length", max_degree=2)
    infeasible = run_conventional(compile_program(SATURATE), "spin", max_degree=2)
    unboundable = run_conventional(compile_program(CASES["R042"][0]), "spin")
    source, entry = CASES["R010"]
    doc = IncrementalEngine(None).analyze(source, entry=entry).bounds["f"]
    front_end = ConventionalVerdict.from_json(doc)
    found = {
        "bound": bound,
        "infeasible": infeasible,
        "unboundable": unboundable,
        "front-end-error": front_end,
    }
    assert {name: v.status for name, v in found.items()} == {n: n for n in found}
    return found


@pytest.mark.parametrize("status", ["bound", "infeasible", "unboundable", "front-end-error"])
def test_verdict_round_trips(verdicts, status):
    verdict = verdicts[status]
    assert ConventionalVerdict.from_json(verdict.to_json()) == verdict
    # the artifact keeps everything but the timing
    untimed = dataclasses.replace(verdict, runtime_seconds=0.0)
    assert ConventionalVerdict.from_json(verdict.to_json(artifact=True)) == untimed


def test_verdict_record_key_sets(verdicts, tmp_path, empty_memos):
    bound = verdicts["bound"]
    assert list(bound.to_json()) == OUTCOME_KEYS
    artifact = bound.to_json(artifact=True)
    assert list(artifact) == ARTIFACT_KEYS
    assert artifact["describe"] == bound.bound.describe()

    # the task outcome carries the outcome record
    task = runner.EvalTask(
        kind="conventional",
        benchmark=adhoc_name(LENGTH),
        root_seed=0,
        source=LENGTH,
    )
    outcome = runner.execute_task(task)
    assert outcome["ok"], outcome
    assert list(outcome["verdict"]) == OUTCOME_KEYS

    # the engine stores artifact records; the fast path answers outcome
    # records from them, with no timing
    store = ArtifactStore(tmp_path / "a")
    warm = IncrementalEngine(store).analyze(LENGTH)
    assert list(warm.bounds["length"]) == ARTIFACT_KEYS
    answer = peek_conventional_verdict(store, LENGTH)
    assert list(answer) == OUTCOME_KEYS
    assert answer["runtime_seconds"] == 0.0
    assert ConventionalVerdict.from_json(answer) == ConventionalVerdict.from_json(
        warm.bounds["length"]
    )
    assert answer["bound"] == outcome["verdict"]["bound"]


# ---------------------------------------------------------------------------
# Bounded worker memos
# ---------------------------------------------------------------------------

MEMOS = ("_PROGRAM_CACHE", "_DATASET_CACHE", "_LINT_CACHE", "_ADHOC_CACHE")


@pytest.fixture
def empty_memos():
    for name in MEMOS:
        getattr(runner, name).clear()
    yield
    for name in MEMOS:
        getattr(runner, name).clear()


def test_worker_memos_keep_memo_size_keys(empty_memos):
    config = AnalysisConfig(num_posterior_samples=4, seed=0)
    for i in range(runner.MEMO_SIZE + 5):
        source = (
            "let rec walk xs =\n"
            "  match xs with\n"
            "  | [] -> 0\n"
            f"  | hd :: tl -> let _ = Raml.tick {i + 1}.0 in walk tl\n"
            "\n"
            "let main xs = Raml.stat (walk xs)\n"
        )
        task = runner.EvalTask(
            kind="analysis",
            benchmark=adhoc_name(source),
            root_seed=0,
            config=config,
            mode="data-driven",
            method="opt",
            source=source,
        )
        outcome = runner.execute_task(task)
        assert outcome["ok"], outcome
    assert {name: len(getattr(runner, name)) for name in MEMOS} == {
        name: runner.MEMO_SIZE for name in MEMOS
    }


def test_three_methods_of_a_cell_lint_and_compile_once(empty_memos, monkeypatch):
    import repro.analysis.engine as engine_mod
    import repro.lang as lang_mod

    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(engine_mod, "lint_source", counting("lint", engine_mod.lint_source))
    monkeypatch.setattr(
        lang_mod, "compile_program", counting("compile", lang_mod.compile_program)
    )
    config = AnalysisConfig(num_posterior_samples=4, seed=0)
    tasks = [
        task
        for task in runner.expand_grid(
            [get_benchmark("Round")], config, seed=0, modes=("data-driven",)
        )
        if task.kind == "analysis"
    ]
    assert [task.method for task in tasks] == list(runner.METHODS)
    for task in tasks:
        outcome = runner.execute_task(task)
        assert outcome["ok"], outcome
    assert sorted(calls) == ["compile", "lint"]
