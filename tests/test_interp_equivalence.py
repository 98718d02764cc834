"""The closure-compiled interpreter against the tree-walking oracle.

:mod:`tests.interp_oracle` keeps the tree walker that
:mod:`repro.lang.interp` replaced.  Every case runs one program on both
and requires the same outcome bit for bit: the same :class:`EvalResult`
of every run (value, cost, stat records) or the same raised error
(class, message, budget kind and limit), and the same ``eval_steps`` and
``tick_ops`` afterwards, so a budget trips at the same node.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro.config import ExecutionBudget
from repro.errors import EvalError
from repro.evalharness.runner import input_seed
from repro.lang import ast as A
from repro.lang import compile_program, from_python
from repro.lang.interp import Interpreter
from repro.suite import all_benchmarks
from tests import interp_oracle

HOSTILE_DIR = os.path.join(os.path.dirname(__file__), "hostile")

NO_BUDGET = {}
UNTRUSTED = {
    "max_steps": ExecutionBudget.untrusted().eval_steps,
    "max_call_depth": ExecutionBudget.untrusted().eval_call_depth,
    "max_value_size": ExecutionBudget.untrusted().eval_value_size,
}


def outcome(interpreter_cls, program, fname, inputs, collect_stats=True, **budget):
    """Every run's result, the error that ended the sweep (if any), and
    the counters at the end."""
    interp = interpreter_cls(program, collect_stats=collect_stats, **budget)
    results, error = [], None
    try:
        for args in inputs:
            results.append(interp.run(fname, list(args)))
    except Exception as exc:  # the error is part of the outcome
        error = (type(exc), str(exc), getattr(exc, "kind", None), getattr(exc, "limit", None))
    return results, error, interp.eval_steps, interp.tick_ops


def assert_same(program, fname, inputs, collect_stats=True, **budget):
    got = outcome(Interpreter, program, fname, inputs, collect_stats, **budget)
    want = outcome(interp_oracle.Interpreter, program, fname, inputs, collect_stats, **budget)
    assert got[1:] == want[1:]
    assert got[0] == want[0]
    # repr tells 1 from True and -0.0 from 0.0, which == does not
    assert repr(got[0]) == repr(want[0])
    return got


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def suite_variants():
    for spec in all_benchmarks():
        yield pytest.param(spec, "data-driven", id=f"{spec.name}-data-driven")
        if spec.hybrid_source is not None:
            yield pytest.param(spec, "hybrid", id=f"{spec.name}-hybrid")


def run_variant(spec, mode, budget, stride):
    source, entry = (
        (spec.hybrid_source, spec.hybrid_entry)
        if mode == "hybrid"
        else (spec.data_driven_source, spec.data_driven_entry)
    )
    program = compile_program(source)
    inputs = spec.inputs(np.random.default_rng(input_seed(0, spec.name)))[::stride]
    results, error, steps, _ticks = assert_same(program, entry, inputs, **budget)
    assert error is None and steps > 0
    assert any(result.stat_records for result in results)


@pytest.mark.parametrize("budget", [NO_BUDGET, UNTRUSTED], ids=["no-budget", "untrusted"])
@pytest.mark.parametrize("spec,mode", suite_variants())
def test_suite_program_sample(spec, mode, budget):
    """Every eighth input vector of every suite variant."""
    run_variant(spec, mode, budget, stride=8)


@pytest.mark.slow
@pytest.mark.parametrize("budget", [NO_BUDGET, UNTRUSTED], ids=["no-budget", "untrusted"])
@pytest.mark.parametrize("spec,mode", suite_variants())
def test_suite_program_all_inputs(spec, mode, budget):
    run_variant(spec, mode, budget, stride=1)


@pytest.mark.parametrize(
    "budget",
    [
        {"max_steps": 0},
        {"max_steps": 1},
        {"max_steps": 37},
        {"max_steps": 2_500},
        {"max_call_depth": 0},
        {"max_call_depth": 1},
        {"max_call_depth": 4},
        {"max_value_size": 0},
        {"max_value_size": 3},
        {"max_steps": 900, "max_call_depth": 6, "max_value_size": 5},
    ],
    ids=repr,
)
@pytest.mark.parametrize("name", ["QuickSort", "MapAppend", "ZAlgorithm"])
def test_budget_trips_at_the_same_node(name, budget):
    spec = next(spec for spec in all_benchmarks() if spec.name == name)
    program = compile_program(spec.hybrid_source)
    inputs = spec.inputs(np.random.default_rng(input_seed(0, spec.name)))[:6]
    assert_same(program, spec.hybrid_entry, inputs, **budget)


#: every operator and constructor, most of which the suite never uses
FEATURES = """
let pick s = match s with | Left a -> a | Right b -> 0 - b

let c2_tail ys = match ys with [] -> [] | y :: rest -> if y < 0 then [] else y :: []

let rec fold xs acc =
  match xs with
  | [] -> acc
  | hd :: tl ->
    let _ = Raml.tick 0.5 in
    let (a, b, c) = acc in
    let a2 = if (hd > 3 && not (hd = 5)) || hd mod 4 = 1 || hd <= -7 then a + hd / 2 else a - hd mod 3 in
    let b2 = if hd <> b && (hd >= 0 || complex_lt hd b) then pick (Left (b * 2 - hd)) else pick (Right hd) in
    let c2 = if complex_leq hd a || complex_eq hd 0 then (-hd) :: c else c2_tail c in
    fold tl (a2, b2, c2)

let main xs = Raml.stat (fold xs (0, 1, []))
"""


@pytest.mark.parametrize("budget", [NO_BUDGET, UNTRUSTED], ids=["no-budget", "untrusted"])
def test_every_operator(budget):
    program = compile_program(FEATURES)
    rng = np.random.default_rng(3)
    inputs = [[from_python([int(v) for v in rng.integers(-9, 10, size=n)])] for n in range(12)]
    results, error, _steps, _ticks = assert_same(program, "main", inputs, **budget)
    assert error is None and len(results) == len(inputs)


# ---------------------------------------------------------------------------
# The hostile corpus
# ---------------------------------------------------------------------------


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "hostile_build_corpus", os.path.join(HOSTILE_DIR, "build_corpus.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: what the static members do under the untrusted budget
HOSTILE_EXPECTED = {
    "spin.raml": "call-depth",
    "deep_call.raml": "call-depth",
    "value_bomb.raml": "value-size",
    "lp_blowup.raml": None,
}

HOSTILE_ARGS = {"lp_blowup.raml": [from_python([3, 1, 2])], "match_nest.raml": [from_python([4, 5])]}


@pytest.mark.parametrize("name", sorted(HOSTILE_EXPECTED))
def test_hostile_program_under_untrusted_budget(name):
    with open(os.path.join(HOSTILE_DIR, name)) as handle:
        source = handle.read()
    program = compile_program(source, budget=ExecutionBudget.untrusted())
    args = HOSTILE_ARGS.get(name, [0])
    _results, error, _steps, _ticks = assert_same(program, "main", [args], **UNTRUSTED)
    assert (error and error[2]) == HOSTILE_EXPECTED[name]


@pytest.mark.parametrize("name,budget", [
    ("spin.raml", {"max_steps": 5_000}),
    ("deep_call.raml", {"max_steps": 5_000}),
    ("deep_call.raml", {"max_call_depth": 300}),
])
def test_hostile_program_under_a_single_cap(name, budget):
    with open(os.path.join(HOSTILE_DIR, name)) as handle:
        program = compile_program(handle.read())
    _results, error, steps, _ticks = assert_same(program, "main", [[0]], **budget)
    assert error[2] == ("steps" if "max_steps" in budget else "call-depth")
    assert steps > 0


@pytest.mark.parametrize("budget", [NO_BUDGET, UNTRUSTED], ids=["no-budget", "untrusted"])
@pytest.mark.parametrize("name", ["token_bomb.raml", "match_nest.raml"])
def test_generated_bombs(name, budget):
    # at full size the front end rejects both before anything runs; at
    # sizes the untrusted front end accepts, they run to the end
    corpus = _corpus().corpus_programs(token_terms=90, nest_depth=60)
    program = compile_program(corpus[name], budget=ExecutionBudget.untrusted())
    args = HOSTILE_ARGS.get(name, [7])
    results, error, _steps, _ticks = assert_same(program, "main", [args], **budget)
    assert error is None and results[0].stat_records


# ---------------------------------------------------------------------------
# Error paths (hand-built trees: the type checker rejects most of them)
# ---------------------------------------------------------------------------


def one_function(body, params=("x",)):
    return A.Program([A.FunDef("f", tuple(params), body)])


def ticked(expr):
    """``expr`` after one tick, so tick_ops shows how far evaluation got."""
    return A.Let("_t", A.Tick(1.0), expr)


ERROR_BODIES = {
    "unbound-variable": A.Var("y"),
    "non-bool-if": A.If(A.IntLit(1), A.IntLit(2), A.IntLit(3)),
    "cons-onto-non-list": A.Cons(A.IntLit(1), A.IntLit(2)),
    "match-on-non-list": A.MatchList(A.IntLit(1), A.Nil(), "h", "t", A.Var("h")),
    "match-on-non-sum": A.MatchSum(A.IntLit(1), "a", A.Var("a"), "b", A.Var("b")),
    "tuple-arity": A.MatchTuple(A.TupleExpr((A.IntLit(1),)), ("a", "b"), A.Var("a")),
    "tuple-match-on-non-tuple": A.MatchTuple(A.IntLit(1), ("a",), A.Var("a")),
    "division-by-zero": A.BinOp("/", A.Var("x"), A.IntLit(0)),
    "mod-by-zero": A.BinOp("mod", A.Var("x"), A.IntLit(0)),
    "unknown-function": A.App("nope", (A.Tick(2.0), A.Var("x"))),
    "unknown-operator": A.BinOp("**", A.Tick(1.0), A.Var("x")),
    "unknown-node": A.If(None, A.IntLit(1), A.IntLit(2)),
    "error-expression": A.ErrorExpr("Invalid_input"),
    "share-of-unbound": A.Share("y", "y1", "y2", A.Var("y1")),
    "builtin-rejects-argument": A.App("complex_leq", (A.Var("x"), A.Nil())),
}


@pytest.mark.parametrize("name", sorted(ERROR_BODIES))
@pytest.mark.parametrize("budget", [NO_BUDGET, UNTRUSTED], ids=["no-budget", "untrusted"])
def test_error_path(name, budget):
    program = one_function(ticked(ERROR_BODIES[name]))
    _results, error, steps, ticks = assert_same(program, "f", [[5]], **budget)
    assert error is not None
    assert (steps, ticks) != (0, 0)


@pytest.mark.parametrize(
    "fname,args", [("nope", [5]), ("f", [5, 6]), ("f", [])], ids=["unknown", "too-many", "too-few"]
)
def test_entry_errors(fname, args):
    program = one_function(A.Var("x"))
    _results, error, steps, _ticks = assert_same(program, fname, [args])
    assert error is not None and steps == 0


#: arguments of an internal call to ``g a b`` (the type checker rejects
#: both): a missing parameter stays unbound, an extra argument is
#: evaluated and dropped
INTERNAL_CALLS = {
    "too-few": (A.Var("x"),),
    "too-many": (A.Var("x"), A.Var("x"), A.Tick(2.0)),
}


@pytest.mark.parametrize("name", sorted(INTERNAL_CALLS))
@pytest.mark.parametrize("budget", [NO_BUDGET, UNTRUSTED], ids=["no-budget", "untrusted"])
def test_internal_call_arity_mismatch(name, budget):
    g = A.FunDef("g", ("a", "b"), ticked(A.BinOp("+", A.Var("a"), A.Var("b"))))
    f = A.FunDef("f", ("x",), ticked(A.App("g", INTERNAL_CALLS[name])))
    results, error, _steps, ticks = assert_same(A.Program([g, f]), "f", [[5]], **budget)
    if name == "too-few":
        assert error[:2] == (EvalError, "unbound variable 'b'") and ticks == 2
    else:
        assert error is None and results[0].value == 10 and ticks == 3


#: ``&&`` / ``||`` nodes (the normalizer turns source ones into ``if``)
#: and unary operators on values of every truthiness
HAND_BUILT = {
    "and-false": A.BinOp("&&", A.BoolLit(False), A.ErrorExpr("not evaluated")),
    "and-true": A.BinOp("&&", A.BoolLit(True), A.Var("x")),
    "and-int": A.BinOp("&&", A.Var("x"), A.Nil()),
    "or-true": A.BinOp("||", A.BoolLit(True), A.ErrorExpr("not evaluated")),
    "or-false": A.BinOp("||", A.BoolLit(False), A.Var("x")),
    "or-list": A.BinOp("||", A.Nil(), A.Var("x")),
    "minus": A.Neg("-", A.Var("x")),
    "not": A.Neg("not", A.Var("x")),
    "not-list": A.Neg("not", A.Cons(A.Var("x"), A.Nil())),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_operator(name):
    program = one_function(ticked(HAND_BUILT[name]))
    assert_same(program, "f", [[0], [5], [-3], [True], [False]])


# ---------------------------------------------------------------------------
# Stat records, collect_stats=False, deep recursion
# ---------------------------------------------------------------------------

NESTED_STAT = """
let inner x = let _ = Raml.tick 1.0 in x
let outer x = Raml.stat (inner x) + (let _ = Raml.tick 0.5 in 0)
let top x = Raml.stat (outer x)
"""

WALK = """
let helper xs =
  match xs with [] -> 0 | hd :: tl -> let _ = Raml.tick 1.0 in hd

let rec walk xs =
  match xs with
  | [] -> 0
  | hd :: tl -> Raml.stat (helper xs) + walk tl
"""

DEEP = """
let rec len xs = match xs with [] -> 0 | h :: t -> let _ = Raml.tick 0.25 in 1 + len t
let main xs = Raml.stat (len xs)
"""


@pytest.mark.parametrize("collect_stats", [True, False])
def test_nested_stat(collect_stats):
    program = compile_program(NESTED_STAT)
    results, *_ = assert_same(program, "top", [[1], [4]], collect_stats=collect_stats)
    labels = sorted(record.label for record in results[0].stat_records)
    assert labels == ([] if not collect_stats else ["outer#1", "top#1"])


@pytest.mark.parametrize("collect_stats", [True, False])
def test_stat_in_recursion(collect_stats):
    program = compile_program(WALK)
    inputs = [[from_python(list(range(n)))] for n in (0, 1, 5, 12)]
    assert_same(program, "walk", inputs, collect_stats=collect_stats)


@pytest.mark.parametrize("budget", [NO_BUDGET, UNTRUSTED], ids=["no-budget", "untrusted"])
def test_3000_deep_recursion(budget):
    program = compile_program(DEEP)
    results, error, _steps, ticks = assert_same(
        program, "main", [[from_python(list(range(3000)))]], **budget
    )
    assert error is None and results[0].value == 3000 and ticks == 3000
