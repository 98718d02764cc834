"""Execution budgets for untrusted source: front end, interpreter, LP.

Every cap in :class:`repro.config.ExecutionBudget` must fail *closed and
classified*: oversized input is an R0xx lint diagnostic, runaway
evaluation is a ``BudgetExceededError`` (failure stage ``eval-budget``),
and an LP past the size guard is an honest ``resource-limit`` verdict.
A hostile program must never surface a Python ``RecursionError``,
``MemoryError``, or unhandled exception.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os

import pytest

from repro.config import AnalysisConfig, ExecutionBudget
from repro.errors import (
    BudgetExceededError,
    LexError,
    NestingDepthError,
    ResourceLimitError,
    failure_stage,
)
from repro.lang import compile_program
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.analysis import lint_source, render_text
from repro.aara.analyze import run_conventional

HOSTILE_DIR = os.path.join(os.path.dirname(__file__), "hostile")


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "hostile_build_corpus", os.path.join(HOSTILE_DIR, "build_corpus.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nested_match(depth: int) -> str:
    head = "let rec grind xs =\n"
    lines = []
    indent = "  "
    for level in range(depth):
        lines.append(f"{indent}match xs with | [] -> {level} | hd :: tl ->\n")
        indent += " "
    lines.append(f"{indent}0\n")
    return head + "".join(lines) + "let main xs = Raml.stat (grind xs)\n"


# ---------------------------------------------------------------------------
# Front end: parser depth, lexer size caps
# ---------------------------------------------------------------------------


class TestParserDepth:
    def test_deep_nesting_is_a_diagnostic_not_a_recursion_error(self):
        # regression: pre-budget parsers died with Python RecursionError on
        # deeply nested input; the cap must turn that into NestingDepthError
        source = nested_match(5_000)
        with pytest.raises(NestingDepthError) as err:
            parse_program(source)
        assert "nesting depth exceeds" in str(err.value)

    def test_budget_cap_is_tighter_than_the_default(self):
        source = nested_match(150)  # over the untrusted cap, under default 400
        parse_program(source)  # trusted path still accepts it
        with pytest.raises(NestingDepthError):
            parse_program(source, max_depth=ExecutionBudget.untrusted().max_nesting_depth)

    def test_lint_renders_r004_with_caret(self):
        source = nested_match(150)
        result = lint_source(source, budget=ExecutionBudget.untrusted())
        codes = [d.code for d in result.errors()]
        assert "R004" in codes
        diag = next(d for d in result.errors() if d.code == "R004")
        rendered = render_text(diag, source)
        assert "R004" in rendered
        assert "^" in rendered  # caret pointing at the offending nesting

    def test_nesting_error_classifies_as_frontend(self):
        assert failure_stage(NestingDepthError("deep", 1, 1)) == "frontend"

    def test_operator_chain_is_charged_its_length(self):
        # the chain starts two levels down (the body, the bracket): a chain
        # of n operators reaches level 2 + n
        cap = ExecutionBudget.untrusted().max_nesting_depth
        parse_program(_corpus().token_bomb(cap - 2), max_depth=cap)
        with pytest.raises(NestingDepthError):
            parse_program(_corpus().token_bomb(cap - 1), max_depth=cap)

    @pytest.mark.parametrize(
        "shape",
        [
            # each chain is the first operand of the next, in brackets
            "chain_nest",
            # each literal is the last element of the next
            "list_nest",
            # *, +, && and || chains stacked by precedence, no brackets
            "stacked",
        ],
    )
    def test_nested_chains_are_charged_the_height_they_build(self, shape):
        # every chain or literal here starts shallow and is short against
        # the cap; only the tree they build together is too deep
        if shape == "stacked":
            source = "let main a b c = a" + " * a" * 30 + " + a" * 30 + " = 0"
            source += " && b" * 30 + " || c" * 30 + "\n"
        else:
            source = getattr(_corpus(), shape)(10, 40)
        cap = ExecutionBudget.untrusted().max_nesting_depth
        with pytest.raises(NestingDepthError):
            parse_program(source, max_depth=cap)
        with pytest.raises(NestingDepthError):
            compile_program(source, budget=ExecutionBudget.untrusted())


class TestLexerCaps:
    def test_source_char_cap(self):
        budget = dataclasses.replace(ExecutionBudget.untrusted(), max_source_chars=64)
        source = "let main n = Raml.stat (n + 1)  (* %s *)\n" % ("x" * 200)
        with pytest.raises(LexError) as err:
            compile_program(source, budget=budget)
        assert "source too large" in str(err.value)

    def test_token_cap_rejects_token_bomb_as_r001(self):
        bomb = _corpus().token_bomb(terms=500)
        budget = dataclasses.replace(ExecutionBudget.untrusted(), max_tokens=400)
        result = lint_source(bomb, budget=budget)
        codes = [d.code for d in result.errors()]
        assert "R001" in codes
        assert any("token budget exceeded" in d.message for d in result.errors())

    def test_trusted_lexer_stays_uncapped(self):
        from repro.lang.lexer import tokenize

        bomb = _corpus().token_bomb(terms=500)
        tokens = tokenize(bomb)  # no budget: the suite path must still lex
        assert len(tokens) > 400


# ---------------------------------------------------------------------------
# Interpreter fuel: steps, call depth, value size
# ---------------------------------------------------------------------------

COUNTDOWN = """
let rec count n = if n <= 0 then 0 else 1 + count (n - 1)
let main n = Raml.stat (count n)
"""

REPLICATE = """
let rec rep n = if n <= 0 then [] else 1 :: rep (n - 1)
let main n = Raml.stat (rep n)
"""


class TestInterpreterFuel:
    def test_step_fuel_trips_with_kind_steps(self):
        program = compile_program(COUNTDOWN)
        interp = Interpreter(program, max_steps=50)
        with pytest.raises(BudgetExceededError) as err:
            interp.run("count", [1_000])
        assert err.value.kind == "steps"

    def test_call_depth_trips_with_kind_call_depth(self):
        program = compile_program(COUNTDOWN)
        interp = Interpreter(program, max_call_depth=10)
        with pytest.raises(BudgetExceededError) as err:
            interp.run("count", [1_000])
        assert err.value.kind == "call-depth"

    def test_value_size_trips_on_oversized_list(self):
        program = compile_program(REPLICATE)
        interp = Interpreter(program, max_value_size=8)
        with pytest.raises(BudgetExceededError) as err:
            interp.run("rep", [50])
        assert err.value.kind == "value-size"

    def test_value_size_trips_on_huge_integers(self):
        source = open(os.path.join(HOSTILE_DIR, "value_bomb.raml")).read()
        program = compile_program(source)
        interp = Interpreter(program, max_value_size=1_000_000)
        with pytest.raises(BudgetExceededError) as err:
            interp.run("main", [0])
        assert err.value.kind == "value-size"
        assert "bit budget" in str(err.value)

    def test_budget_errors_classify_as_eval_budget(self):
        assert failure_stage(BudgetExceededError("out of fuel")) == "eval-budget"

    def test_fuel_resets_between_runs(self):
        program = compile_program(COUNTDOWN)
        interp = Interpreter(program, max_steps=500)
        for _ in range(3):  # each run gets fresh fuel, not a shared tank
            interp.run("count", [10])

    def test_call_depth_resets_after_a_tripped_run(self):
        program = compile_program(COUNTDOWN)
        interp = Interpreter(program, max_call_depth=10)
        for _ in range(3):  # the trip leaves no depth behind for the next run
            with pytest.raises(BudgetExceededError):
                interp.run("count", [1_000])
            assert interp.run("count", [10]).value == 10

    @pytest.mark.parametrize("name", ["program", "collect_stats", "max_call_depth", "max_value_size"])
    def test_compiled_options_are_read_only(self, name):
        interp = Interpreter(compile_program(COUNTDOWN), max_call_depth=3, max_value_size=4)
        before = getattr(interp, name)
        with pytest.raises(AttributeError):  # a late write must not look honoured
            setattr(interp, name, None)
        assert getattr(interp, name) is before

    def test_step_fuel_is_read_at_every_run(self):
        interp = Interpreter(compile_program(COUNTDOWN))
        assert interp.run("count", [10]).value == 10
        interp.max_steps = 50
        with pytest.raises(BudgetExceededError) as err:
            interp.run("count", [10])
        assert err.value.limit == 50


# ---------------------------------------------------------------------------
# Guarded LP construction
# ---------------------------------------------------------------------------


class TestLPGuard:
    def test_lp_blowup_hits_resource_limit_verdict(self):
        source = open(os.path.join(HOSTILE_DIR, "lp_blowup.raml")).read()
        budget = dataclasses.replace(
            ExecutionBudget.untrusted(), lp_variables=500, lp_constraints=500
        )
        program = compile_program(source, budget=budget)
        verdict = run_conventional(program, "main", max_degree=3, budget=budget)
        assert verdict.status == "resource-limit"
        assert "budget" in verdict.detail

    def test_unbudgeted_analysis_of_same_program_finds_a_bound(self):
        source = open(os.path.join(HOSTILE_DIR, "lp_blowup.raml")).read()
        program = compile_program(source)
        verdict = run_conventional(program, "main", max_degree=2)
        assert verdict.status == "bound"

    def test_resource_limit_error_classifies(self):
        assert failure_stage(ResourceLimitError("too big")) == "resource-limit"


# ---------------------------------------------------------------------------
# End to end: the whole hostile corpus through the eval harness
# ---------------------------------------------------------------------------

#: what each corpus member must terminate as under the untrusted budget
EXPECTED_TERMINAL = {
    # runtime budget trips (lint-clean programs)
    "spin.raml": {"eval-budget"},
    "deep_call.raml": {"eval-budget"},
    "value_bomb.raml": {"eval-budget"},
    # measurable data-driven program (LP abuse only bites conventional mode)
    "lp_blowup.raml": {"ok"},
    # rejected at the lint gate before any execution
    "token_bomb.raml": {"lint:R001"},
    "match_nest.raml": {"lint:R004"},
    "chain_bomb.raml": {"lint:R004"},
    "chain_nest.raml": {"lint:R004"},
    "list_nest.raml": {"lint:R004"},
}


class TestHostileCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return _corpus().corpus_programs(token_terms=60_000, nest_depth=300)

    def test_corpus_is_complete(self, corpus):
        assert set(corpus) == set(EXPECTED_TERMINAL)

    @pytest.mark.parametrize("name", sorted(EXPECTED_TERMINAL))
    def test_program_reaches_a_classified_terminal_state(self, name, corpus):
        from repro.evalharness.runner import EvalTask, execute_task

        source = corpus[name]
        budget = ExecutionBudget.untrusted()
        result = lint_source(source, path=name, budget=budget)
        errors = [d for d in result.errors() if d.code not in ("R042", "R043")]
        expected = EXPECTED_TERMINAL[name]
        if errors:
            # the admission gate rejects it: that IS the terminal state
            got = {f"lint:{d.code}" for d in errors}
            assert got & expected, f"{name}: lint rejected with {got}, wanted {expected}"
            return
        assert not any(e.startswith("lint:") for e in expected), (
            f"{name}: expected lint rejection but the program linted clean"
        )
        config = AnalysisConfig(num_posterior_samples=5, seed=1, budget=budget)
        task = EvalTask(
            "analysis",
            f"user:{name}",
            7,
            config=config,
            mode="data-driven",
            method="opt",
            source=source,
            entry="main",
        )
        outcome = execute_task(task)  # must never raise
        if outcome.get("ok"):
            got = "ok"
        else:
            got = outcome["failure"]["stage"]
        assert got in expected, f"{name}: terminal state {got}, wanted {expected}"
