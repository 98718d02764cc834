"""Copied callee derivations against derivations generated again.

``ConstraintGenerator`` derives each ``(callee, costful)`` pair once per
LP build and gives later call sites a renamed copy.  The oracle is a
generator that never copies: every build below runs both ways and must
end in the same LP (CSR export bit for bit, right-hand sides, column
index in order, constraint notes), the same ``GenStats`` and root
signature, the same stat-site bookkeeping in handler mode, and the same
exception (class and message) where a budget trips.
"""

import importlib.util
import os

import numpy as np
import pytest

import repro.aara.analyze as analyze_mod
from repro.aara.analyze import build_analysis
from repro.aara.typecheck import ConstraintGenerator
from repro.analysis.callgraph import call_graph, reachable
from repro.config import ExecutionBudget
from repro.errors import ReproError
from repro.evalharness.runner import _compiled_program, _mode_dataset, _mode_variant
from repro.inference import collect_dataset
from repro.inference.hybrid import SiteCollector, make_data_handler
from repro.lang import ast as A
from repro.lang import compile_program
from repro.lang.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.lang.types import typecheck_program
from repro.lang.values import from_python
from repro.lp import LPProblem
from repro.suite import all_benchmarks, get_benchmark

HOSTILE_DIR = os.path.join(os.path.dirname(__file__), "hostile")


class RegeneratingGenerator(ConstraintGenerator):
    """The oracle: every instantiation derives the callee's bodies again."""

    def _copy(self, known):
        return None


class CountingGenerator(ConstraintGenerator):
    """Records the LP size and derivation count before and after each copy."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.copies = []

    def _copy(self, known):
        before = self._sizes()
        sig = super()._copy(known)
        if sig is not None:
            self.copies.append((before, self._sizes()))
        return sig

    def _sizes(self):
        return (self.lp.num_vars, len(self.lp.constraints), self.stats.derivations)


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def lp_state(lp: LPProblem):
    """Everything about an LP the solver or a reader can see."""
    A_ub, b_ub, A_eq, b_eq, index = lp.to_matrices()
    matrices = []
    for matrix in (A_ub, A_eq):
        matrices.append(
            (matrix.shape, matrix.indptr.tolist(), matrix.indices.tolist(), _bits(matrix.data).tolist())
        )
    return {
        "matrices": matrices,
        "b": (_bits(b_ub).tolist(), _bits(b_eq).tolist()),
        "index": list(index.items()),
        "notes": [(con.sense, con.note) for con in lp.constraints],
        "constraints": [str(con) for con in lp.constraints],
        "mark": lp.mark(),
    }


def build_state(generator_cls, build):
    """``build(generator_cls)`` → a comparable state, or the exception."""
    try:
        outcome = build(generator_cls)
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("built", outcome)


def analysis_state(analysis, collector=None):
    stats = analysis.generator.stats
    state = {
        "lp": lp_state(analysis.lp),
        "stats": (stats.derivations, stats.stat_sites, list(stats.instantiations.items())),
        "signature": str(analysis.signature),
    }
    if collector is not None:
        state["occurrences"] = [
            (
                occ.label,
                {name: str(ann) for name, ann in occ.ctx.items()},
                str(occ.p_in),
                str(occ.result_ann),
                str(occ.q0),
                occ.costful,
                [(str(row.expr), row.cost) for row in occ.rows],
            )
            for occ in collector.occurrences
        ]
        state["wvars"] = list(collector.wvars.items())
        state["gap"] = str(collector.gap_objective)
    return state


def with_generator(generator_cls, fn):
    """Run ``fn`` with ``build_analysis`` constructing ``generator_cls``."""
    original = analyze_mod.ConstraintGenerator
    analyze_mod.ConstraintGenerator = generator_cls
    try:
        return fn()
    finally:
        analyze_mod.ConstraintGenerator = original


def assert_same_builds(build):
    """``build`` with copying equals ``build`` with the oracle."""
    copied = build_state(ConstraintGenerator, build)
    regenerated = build_state(RegeneratingGenerator, build)
    assert copied == regenerated
    return copied


def conventional_build(program, fname, degree, budget=None):
    def build(generator_cls):
        analysis = with_generator(
            generator_cls,
            lambda: build_analysis(program, fname, degree, stat_mode="transparent", budget=budget),
        )
        return analysis_state(analysis)

    return build


def cone_program(functions, fname):
    """``fname``'s call-graph cone, compiled as the per-function
    (incremental) pipeline compiles it."""
    live = reachable(call_graph(functions), [fname])
    cone = A.Program([f for f in functions if f.name in live])
    return typecheck_program(normalize_program(cone))


def _variants():
    for spec in all_benchmarks():
        yield spec.name, "data-driven"
        if spec.hybrid_source is not None:
            yield spec.name, "hybrid"


def _sources(name, mode):
    source, _entry = _mode_variant(get_benchmark(name), mode)
    return list(parse_program(source))


# -- every suite function, degrees 1-3 ------------------------------------------


def _check_every_function(name, mode):
    """Every function's cone at degrees 1-3; returns how many copies the
    copying builds made."""
    copies = 0
    functions = _sources(name, mode)
    for fdef in functions:
        program = cone_program(functions, fdef.name)
        for degree in (1, 2, 3):
            assert_same_builds(
                conventional_build(program, fdef.name, degree, ExecutionBudget.untrusted())
            )
            generator = CountingGenerator(program, degree, stat_mode="transparent")
            try:
                generator.instantiate(fdef.name)
            except ReproError:
                pass
            copies += len(generator.copies)
    return copies


def test_insertion_sort_functions_copy_and_match():
    """The fast member of the sweep below, with copies in it: every
    cost-free level of a recursive function derives its callees cost-free,
    and each level after the first copies them."""
    assert _check_every_function("InsertionSort2", "hybrid") > 0


@pytest.mark.slow
@pytest.mark.parametrize("name,mode", list(_variants()))
def test_every_suite_function_matches_regeneration(name, mode):
    _check_every_function(name, mode)


@pytest.mark.slow
@pytest.mark.parametrize("name,mode", list(_variants()))
def test_whole_program_conventional_builds_match(name, mode):
    spec = get_benchmark(name)
    program = _compiled_program(spec, mode)
    _source, entry = _mode_variant(spec, mode)
    for degree in (1, 2, 3):
        assert_same_builds(conventional_build(program, entry, degree))


# -- hybrid handler-mode builds ------------------------------------------------------


def handler_build(program, entry, degree, dataset, cost_mode):
    def build(generator_cls):
        collector = SiteCollector()
        handler = make_data_handler(dataset, collector, cost_mode=cost_mode)
        analysis = with_generator(
            generator_cls,
            lambda: build_analysis(program, entry, degree, stat_handler=handler),
        )
        return analysis_state(analysis, collector)

    return build


def _check_handler_builds(name, mode, degrees):
    spec = get_benchmark(name)
    program = _compiled_program(spec, mode)
    dataset = _mode_dataset(spec, mode, 0)
    _source, entry = _mode_variant(spec, mode)
    for degree in degrees:
        for cost_mode in ("const", "wvar"):
            assert_same_builds(handler_build(program, entry, degree, dataset, cost_mode))


def test_insertion_sort_hybrid_handler_builds_match():
    _check_handler_builds("InsertionSort2", "hybrid", (1, 2))


@pytest.mark.slow
@pytest.mark.parametrize("name,mode", list(_variants()))
def test_handler_mode_builds_match(name, mode):
    _check_handler_builds(name, mode, (1, 2, 3))


def test_a_derivation_that_ran_a_handler_is_never_copied():
    """``helper`` holds a stat site, so each of its two call sites runs
    the handler; ``pure`` has none, so its second call site is a copy."""
    source = """
let helper xs = Raml.stat (let _ = Raml.tick 1.0 in xs)

let rec pure xs =
  match xs with
  | [] -> []
  | hd :: tl -> let _ = Raml.tick 1.0 in hd :: pure tl

let main xs =
  let a = helper xs in
  let b = helper a in
  let c = pure b in
  pure c
"""
    program = compile_program(source)
    inputs = [[from_python(list(range(n)))] for n in (0, 2, 5)]
    dataset = collect_dataset(program, "main", inputs)
    collector = SiteCollector()
    handler = make_data_handler(dataset, collector, cost_mode="const")
    analysis = with_generator(
        CountingGenerator, lambda: build_analysis(program, "main", 2, stat_handler=handler)
    )
    assert analysis.generator.stats.stat_sites == 2
    assert len(collector.occurrences) == 2
    assert len(analysis.generator.copies) == 1
    assert analysis.generator.stats.instantiations == {"helper": 2, "pure": 2, "main": 1}
    assert_same_builds(handler_build(program, "main", 2, dataset, "const"))


# -- hostile programs and budgets on either side of a copy ------------------------------


def _hostile_corpus():
    spec = importlib.util.spec_from_file_location(
        "hostile_build_corpus", os.path.join(HOSTILE_DIR, "build_corpus.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus_programs()


@pytest.mark.parametrize("member", sorted(_hostile_corpus()))
def test_hostile_corpus_under_untrusted_budget(member):
    budget = ExecutionBudget.untrusted()
    source = _hostile_corpus()[member]
    try:
        program = compile_program(source, budget=budget)
    except ReproError:
        return  # rejected by the front end; no LP is ever built
    for fdef in program:
        for degree in (1, 2, 3):
            assert_same_builds(conventional_build(program, fdef.name, degree, budget))


#: ``leaf`` is derived once costful and, inside ``twice``'s cost-free
#: levels, cost-free; every further call site is a copy
CAPPED_SOURCE = """
let leaf xs =
  match xs with
  | [] -> []
  | hd :: tl -> let _ = Raml.tick 1.0 in tl

let rec twice xs =
  match xs with
  | [] -> []
  | hd :: tl -> let a = leaf xs in let b = leaf a in hd :: twice tl

let main xs = let a = twice xs in let b = leaf a in leaf b
"""


def _capped_build(program, degree, variables=None, constraints=None, derivations=None):
    def build(generator_cls):
        lp = LPProblem("aara", max_variables=variables, max_constraints=constraints)
        kwargs = {} if derivations is None else {"max_derivations": derivations}
        generator = generator_cls(program, degree, lp=lp, stat_mode="transparent", **kwargs)
        signature = generator.instantiate("main")
        stats = generator.stats
        return {
            "lp": lp_state(lp),
            "stats": (stats.derivations, list(stats.instantiations.items())),
            "signature": str(signature),
        }

    return build


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_budgets_trip_alike_on_either_side_of_every_copy(degree):
    program = compile_program(CAPPED_SOURCE)
    generator = CountingGenerator(program, degree, stat_mode="transparent")
    generator.instantiate("main")
    assert len(generator.copies) >= 3
    tripped = set()
    for before, after in generator.copies:
        for which, cap_name in enumerate(("variables", "constraints", "derivations")):
            for cap in (before[which], after[which] - 1, after[which], after[which] + 1):
                outcome = assert_same_builds(_capped_build(program, degree, **{cap_name: cap}))
                if outcome[0] == "raised":
                    tripped.add((cap_name, outcome[1]))
    assert tripped == {
        ("variables", "ResourceLimitError"),
        ("constraints", "ResourceLimitError"),
        ("derivations", "StaticAnalysisError"),
    }
