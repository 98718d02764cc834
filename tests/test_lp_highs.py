"""The direct HiGHS call against ``scipy.optimize.linprog``, its oracle.

:func:`repro.lp.highs.solve` hands scipy's bundled HiGHS the model and
options ``linprog`` builds and keeps ``linprog``'s result contract.  The
LPs the pipeline produces (conventional builds, hybrid staged and
per-sample pinned solves, the facial-reduction, Chebyshev and low-norm
LPs of the polytope module) are recorded while the pipeline runs over
``linprog`` itself, then solved again by both functions under all three
HiGHS methods: status, ``nit`` and message must be equal, and ``x`` and
``fun`` equal bit for bit.
"""

import copy
import importlib.util
import sys

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog
from scipy.sparse import csr_matrix

import repro.lp.solver as solver_mod
import repro.stats.polytope as polytope_mod
from repro import faultinject
from repro.aara.analyze import analyze_program, build_analysis, solve_analysis
from repro.analysis.callgraph import call_graph, reachable
from repro.config import ExecutionBudget
from repro.errors import InferenceError, LPError, ReproError
from repro.evalharness.runner import _compiled_program, _mode_dataset, _mode_variant
from repro.faultinject import FaultPlan
from repro.inference.hybrid import SiteCollector, make_data_handler
from repro.lang import ast as A
from repro.lang.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.lang.types import typecheck_program
from repro.lp import LPProblem, highs, solve_lexicographic
from repro.stats.polytope import chebyshev_center, low_norm_interior_point, polytope_from_lp
from repro.suite import all_benchmarks, get_benchmark

METHODS = ("highs", "highs-ds", "highs-ipm")


def _bits(value):
    return np.ascontiguousarray(value, dtype=float).view(np.uint64)


def assert_same_result(c, kwargs, method):
    """One LP through both functions under ``method``, with the options
    the fallback chain passes with it (the interior-point time limit)."""
    kwargs = dict(kwargs, method=method, options=solver_mod.method_options(method))
    expected = scipy_linprog(c, **kwargs)
    got = highs.solve(c, **kwargs)
    assert (got.status, got.nit, got.message) == (
        expected.status,
        expected.nit,
        expected.message,
    )
    assert got.success == expected.success
    for name in ("x", "fun", "slack", "con"):
        want, have = expected[name], got[name]
        assert (have is None) == (want is None), name
        if want is not None:
            assert np.array_equal(_bits(have), _bits(want)), name
    return expected


class Recorder:
    """Stands in for ``linprog`` where the program calls it: records each
    call and answers it with ``scipy.optimize.linprog``."""

    def __init__(self):
        self.calls = []

    def __call__(self, c, **kwargs):
        self.calls.append((np.array(c, dtype=float), copy.deepcopy(kwargs)))
        return scipy_linprog(c, **kwargs)


@pytest.fixture
def recorder(monkeypatch):
    record = Recorder()
    monkeypatch.setattr(solver_mod, "linprog", record)
    monkeypatch.setattr(polytope_mod, "linprog", record)
    return record


def assert_recorded_match(recorder, minimum=1, ipm_stalls=()):
    """Every recorded LP under every method; ``ipm_stalls`` numbers the
    LPs on which ``linprog``'s own ``highs-ipm`` does not return."""
    assert len(recorder.calls) >= minimum
    for number, (c, kwargs) in enumerate(recorder.calls):
        for method in METHODS:
            if method == "highs-ipm" and number in ipm_stalls:
                continue
            assert_same_result(c, kwargs, method)


# -- the LPs of the suite ----------------------------------------------------------


def _variants():
    for spec in all_benchmarks():
        yield spec.name, "data-driven"
        if spec.hybrid_source is not None:
            yield spec.name, "hybrid"


def conventional_lps(name, mode):
    """Every function's cone at degrees 1-3, as the editor loop builds
    them, and the whole program's entry."""
    spec = get_benchmark(name)
    source, entry = _mode_variant(spec, mode)
    functions = list(parse_program(source))
    budget = ExecutionBudget.untrusted()
    for fdef in functions:
        live = reachable(call_graph(functions), [fdef.name])
        cone = A.Program([f for f in functions if f.name in live])
        program = typecheck_program(normalize_program(cone))
        for degree in (1, 2, 3):
            try:
                analyze_program(program, fdef.name, degree, stat_mode="transparent", budget=budget)
            except ReproError:
                pass


#: variants whose C0 polytope LPs are left out of the sweep: recording
#: MedianOfMedians' took over six minutes (no benchmark workload samples
#: that polytope)
SLOW_POLYTOPES = ("MedianOfMedians",)


def hybrid_lps(name, mode):
    """Opt staged solves (both objective modes), BayesWC per-sample solves
    with pinned worst-case variables, BayesPC per-draw solves with pinned
    site variables, and the polytope module's LPs over C0 (facial
    reduction, low-norm interior point, Chebyshev center)."""
    spec = get_benchmark(name)
    program = _compiled_program(spec, mode)
    dataset = _mode_dataset(spec, mode, 0)
    _source, entry = _mode_variant(spec, mode)
    degree = spec.degree

    collector = SiteCollector()
    handler = make_data_handler(dataset, collector, cost_mode="const")
    analysis = build_analysis(program, entry, degree, stat_handler=handler)
    opt = None
    for objective_mode in ("sum", "degree"):
        try:
            opt = solve_analysis(analysis, [collector.gap_objective], objective_mode).solution
        except ReproError:
            pass
    if opt is not None:
        site_vars = collector.site_vars()
        for scale in (1.0, 1.5):
            pinned = {name: max(0.0, scale * opt[name]) for name in site_vars}
            try:
                solve_lexicographic(
                    analysis.lp, analysis.root_objectives(), pinned=pinned, pin_slack=1e-6
                )
            except ReproError:
                pass
    try:
        if name not in SLOW_POLYTOPES:
            reduced = polytope_from_lp(analysis.lp)
            if reduced.polytope.dim:
                low_norm_interior_point(reduced)
                chebyshev_center(reduced.polytope)
    except InferenceError:
        pass

    collector = SiteCollector()
    handler = make_data_handler(dataset, collector, cost_mode="wvar")
    analysis = build_analysis(program, entry, degree, stat_handler=handler)
    objectives = [collector.gap_objective] + analysis.root_objectives()
    labels = {label for label, _size_key in collector.wvars}
    max_costs = {label: dataset[label].max_costs() for label in labels}
    for scale in (1.0, 1.25):
        pinned = {
            wname: scale * max_costs[label][size_key]
            for (label, size_key), wname in collector.wvars.items()
        }
        try:
            solve_lexicographic(analysis.lp, objectives, pinned=pinned)
        except ReproError:
            pass


@pytest.mark.slow
@pytest.mark.parametrize("name,mode", list(_variants()))
def test_conventional_lps_match_linprog(recorder, name, mode):
    conventional_lps(name, mode)
    assert_recorded_match(recorder)


#: recorded LPs (by number) on which ``scipy.optimize.linprog`` itself,
#: under ``highs-ipm``, ran for over a minute without returning (2-vCPU VM):
#: MedianOfMedians' hybrid per-draw LP with the site variables pinned at
#: the Opt solution.  Both simplex methods solve it in 16 iterations; it
#: is compared under those two only.
IPM_STALLS = {("MedianOfMedians", "hybrid"): {5}}


@pytest.mark.slow
@pytest.mark.parametrize("name,mode", list(_variants()))
def test_hybrid_and_polytope_lps_match_linprog(recorder, name, mode):
    hybrid_lps(name, mode)
    assert_recorded_match(recorder, ipm_stalls=IPM_STALLS.get((name, mode), ()))


def test_round_conventional_lps_match_linprog(recorder):
    conventional_lps("Round", "data-driven")
    assert_recorded_match(recorder, minimum=10)


def test_map_append_hybrid_lps_match_linprog(recorder):
    hybrid_lps("MapAppend", "hybrid")
    kinds = {"dense" if isinstance(kw.get("A_ub"), np.ndarray) else "sparse" for _c, kw in recorder.calls}
    assert kinds == {"dense", "sparse"}
    assert_recorded_match(recorder, minimum=10)


# -- edge cases -----------------------------------------------------------------------


def _sparse(rows, n):
    return csr_matrix(np.array(rows, dtype=float).reshape(-1, n))


EDGE_CASES = {
    "optimal": (
        [1.0, 2.0],
        {"A_ub": _sparse([[-1, -1]], 2), "b_ub": np.array([-3.0]), "bounds": np.array([[0, np.inf]] * 2)},
    ),
    "infeasible": (
        [1.0],
        {"A_ub": _sparse([[1]], 1), "b_ub": np.array([-1.0]), "bounds": np.array([[0, np.inf]])},
    ),
    "unbounded": ([-1.0, 0.0], {"bounds": np.array([[0, np.inf]] * 2)}),
    "constant-only row 0 <= -1": (
        [1.0],
        {"A_ub": _sparse([[1], [0]], 1), "b_ub": np.array([5.0, -1.0]), "bounds": np.array([[0, np.inf]])},
    ),
    "empty A_eq": (
        [1.0, 1.0],
        {
            "A_ub": _sparse([[-1, 0]], 2),
            "b_ub": np.array([-2.0]),
            "A_eq": csr_matrix((0, 2)),
            "b_eq": np.zeros(0),
            "bounds": np.array([[0, np.inf]] * 2),
        },
    ),
    "equalities only": (
        [1.0, 1.0],
        {"A_eq": _sparse([[1, -1]], 2), "b_eq": np.array([1.0]), "bounds": np.array([[0, np.inf]] * 2)},
    ),
    "single-pair bounds": ([1.0, 1.0], {"A_ub": _sparse([[-1, -2]], 2), "b_ub": np.array([-4.0]), "bounds": (0, None)}),
    "single free pair": (
        [1.0, -1.0],
        {"A_ub": _sparse([[1, 0], [-1, 0], [0, 1], [0, -1]], 2), "b_ub": np.array([1.0, 1, 2, 2]), "bounds": (None, None)},
    ),
    "dense, None bounds and free columns": (
        [0.0, 0.0, -1.0],
        {
            "A_ub": np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]]),
            "b_ub": np.array([1.0, 1.0, 0.5]),
            "bounds": [(None, None), (None, None), (None, 1.0)],
        },
    ),
    "no bounds argument": ([1.0], {"A_ub": _sparse([[-1]], 1), "b_ub": np.array([-2.0])}),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("method", METHODS)
def test_edge_cases_match_linprog(case, method):
    c, kwargs = EDGE_CASES[case]
    assert_same_result(c, kwargs, method)


def test_edge_case_statuses():
    status = {case: scipy_linprog(c, **kwargs).status for case, (c, kwargs) in EDGE_CASES.items()}
    assert status["infeasible"] == 2
    assert status["unbounded"] == 3
    assert status["constant-only row 0 <= -1"] == 2
    assert status["optimal"] == status["empty A_eq"] == status["single-pair bounds"] == 0


def test_inputs_it_does_not_handle_go_to_linprog():
    # a non-finite cost: linprog's own validation error
    with pytest.raises(ValueError, match="must not contain values inf"):
        highs.solve([np.inf], A_ub=_sparse([[1]], 1), b_ub=[1.0])
    # a sparse matrix with a duplicate entry: linprog sums it
    duplicate = csr_matrix((np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2])), shape=(1, 1))
    assert not duplicate.has_canonical_format
    assert_same_result([-1.0], {"A_ub": duplicate, "b_ub": np.array([4.0])}, "highs")
    with pytest.raises(ValueError, match="Unknown solver"):
        highs.solve([1.0], method="simplex-nope")


# -- the binding and the fallback chain -------------------------------------------------


def test_program_calls_the_adapter_under_both_wrapped_names():
    assert solver_mod.linprog is highs.linprog is highs.solve
    assert polytope_mod.linprog is highs.linprog


def test_missing_private_module_binds_scipy_linprog(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    spec = importlib.util.spec_from_file_location("highs_gated", highs.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.linprog is scipy_linprog


@pytest.fixture
def lp_fail():
    yield lambda spec: faultinject.install(FaultPlan.parse(spec))
    faultinject.uninstall()


def _one_var_problem():
    p = LPProblem()
    x = p.fresh("x")
    p.add_ge(x, 3)
    return p, x


def test_fallback_chain_counts_each_failed_method(lp_fail):
    lp_fail("lp-fail:match=highs:count=1")
    p, x = _one_var_problem()
    solution = solve_lexicographic(p, [x])
    assert solution.fallbacks == 1
    assert solution.objective_values == [3.0]


class SpyLinprog:
    """Records ``(method, status, message)`` of each real solve."""

    def __init__(self):
        self.seen = []

    def __call__(self, c, **kwargs):
        result = highs.linprog(c, **kwargs)
        self.seen.append((kwargs["method"], result.status, result.message))
        return result


@pytest.mark.parametrize(
    "faults,ends_in",
    [
        ("lp-fail:count=2", "retry"),  # highs, highs-ds
        ("lp-fail:match=highs:count=-1;lp-fail:match=highs-ds:count=1", "LPError"),
    ],
)
def test_interior_point_stall_ends_in_retry_or_lperror(lp_fail, monkeypatch, faults, ends_in):
    """An interior-point attempt that runs out of time is a numerical
    failure like any other: the chain goes on to the perturbed retry."""
    monkeypatch.setattr(solver_mod, "IPM_TIME_LIMIT", 1e-9)
    spy = SpyLinprog()
    monkeypatch.setattr(solver_mod, "linprog", spy)
    lp_fail(faults)
    p = LPProblem()
    x, y = p.fresh("x"), p.fresh("y")
    p.add_ge(x + y, 3)
    if ends_in == "retry":
        solution = solve_lexicographic(p, [x + 2 * y])
        assert solution.fallbacks == 3
        assert solution.objective_values == [pytest.approx(3.0, abs=1e-8)]
        assert [method for method, _s, _m in spy.seen] == ["highs-ipm", "highs"]
    else:
        with pytest.raises(LPError, match="after 4 attempt"):
            solve_lexicographic(p, [x + 2 * y])
        assert [method for method, _s, _m in spy.seen] == ["highs-ipm"]
    _method, status, message = spy.seen[0]
    assert status == 1 and message.startswith("Time limit reached")


def test_fallback_chain_ends_in_lperror_after_four_attempts(lp_fail):
    lp_fail("lp-fail:count=-1")
    p, x = _one_var_problem()
    with pytest.raises(LPError) as info:
        solve_lexicographic(p, [x], context="probe")
    assert str(info.value) == (
        "LP solver failure after 4 attempt(s): probe (injected numerical failure (highs))"
    )
