"""Sparse LP export: ``LPProblem.to_matrices`` against the dense oracle.

The dense row-by-row export that ``to_matrices`` replaced lives on here
as the oracle: the CSR export must hold exactly its entries (bit for bit),
its right-hand sides and its column index, on every suite program's LPs,
and a staged solve over the CSR must return the same ``LPSolution`` as the
dense path did.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.aara.analyze import build_analysis
from repro.errors import InfeasibleError, UnanalyzableError
from repro.evalharness.runner import _compiled_program, _mode_dataset, _mode_variant
from repro.inference.hybrid import SiteCollector, make_data_handler
from repro.lp import LinExpr, LPProblem, solve_lexicographic, solve_min
from repro.lp.solver import STAGE_TOLERANCE
from repro.suite import all_benchmarks, get_benchmark

#: oracle rows compared per block, so the dense side of a large LP never
#: exists whole (MedianOfMedians' conventional degree-2 LP is 6,571 × 5,593)
BLOCK = 512


# -- the oracle: the dense export ``to_matrices`` used to build ----------------


def dense_index(problem, extra_vars=()):
    index = problem.column_index()
    for name in extra_vars:
        if name not in index:
            index[name] = len(index)
    return index


def dense_rows(problem, index):
    """``(sense, row, rhs)`` per constraint, as the dense export made them."""
    n = len(index)
    for con in problem.constraints:
        row = np.zeros(n)
        diff = con.lhs - con.rhs
        for name, coef in diff.coeffs.items():
            row[index[name]] = coef
        yield con.sense, row, -diff.const


def dense_export(problem, extra_vars=()):
    """The whole dense export (small problems only)."""
    index = dense_index(problem, extra_vars)
    n = len(index)
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for sense, row, rhs in dense_rows(problem, index):
        if sense == "<=":
            ub_rows.append(row)
            ub_rhs.append(rhs)
        else:
            eq_rows.append(row)
            eq_rhs.append(rhs)
    A_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
    b_ub = np.array(ub_rhs) if ub_rhs else np.zeros(0)
    A_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
    b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)
    return A_ub, b_ub, A_eq, b_eq, index


def dense_lexicographic(problem, objectives, pinned=None, pin_slack=1e-7):
    """The staged solve as it ran over the dense export: stage pins as
    dense rows, the stack converted to CSR for every ``linprog`` call,
    bounds as a list of tuples.  Returns (assignment, objective values)."""
    for objective in objectives:
        problem.declare_expr(objective)
    A_ub, b_ub, A_eq, b_eq, index = dense_export(problem)
    n = len(index)
    bounds = [(0.0, None)] * n
    for name, value in (pinned or {}).items():
        if name in index:
            bounds[index[name]] = (max(0.0, float(value) - pin_slack), float(value) + pin_slack)
    ub_rows = [A_ub] if A_ub.size else []
    ub_rhs = [b_ub] if b_ub.size else []
    values = []
    for stage, objective in enumerate(objectives):
        c = np.zeros(n)
        for name, coef in objective.coeffs.items():
            c[index[name]] += coef
        A_cur = np.vstack(ub_rows) if ub_rows else np.zeros((0, n))
        b_cur = np.concatenate(ub_rhs) if ub_rhs else np.zeros(0)
        result = linprog(
            c,
            A_ub=csr_matrix(A_cur) if A_cur.size else None,
            b_ub=b_cur if A_cur.size else None,
            A_eq=csr_matrix(A_eq) if A_eq.size else None,
            b_eq=b_eq if A_eq.size else None,
            bounds=bounds,
            method="highs",
        )
        assert result.status == 0, result.message
        stage_opt = float(result.fun) + objective.const
        values.append(stage_opt)
        if stage < len(objectives) - 1:
            slack = STAGE_TOLERANCE * max(1.0, abs(stage_opt))
            ub_rows.append(c.reshape(1, -1))
            ub_rhs.append(np.array([stage_opt - objective.const + slack]))
    return {name: float(result.x[col]) for name, col in index.items()}, values


# -- comparison ---------------------------------------------------------------------


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def _assert_block(matrix, start, rows):
    expected = np.array(rows)
    got = matrix[start:start + len(rows)]
    assert np.array_equal(_bits(got.toarray()), _bits(expected))
    canonical = csr_matrix(expected)
    assert np.array_equal(got.indptr, canonical.indptr)
    assert np.array_equal(got.indices, canonical.indices)
    assert np.array_equal(_bits(got.data), _bits(canonical.data))


def assert_matches_oracle(problem, extra_vars=()):
    """``to_matrices`` equals the dense oracle, checked block by block."""
    A_ub, b_ub, A_eq, b_eq, index = problem.to_matrices(extra_vars=extra_vars)
    oracle_index = dense_index(problem, extra_vars)
    assert index == oracle_index
    for matrix in (A_ub, A_eq):
        assert matrix.format == "csr" and matrix.has_canonical_format
        assert matrix.shape[1] == len(index)
        assert matrix.indices.dtype == csr_matrix(np.zeros((1, len(index)))).indices.dtype
    pending = {"<=": [], "=": []}
    done = {"<=": 0, "=": 0}
    rhs = {"<=": [], "=": []}
    matrices = {"<=": A_ub, "=": A_eq}
    for sense, row, b in dense_rows(problem, oracle_index):
        pending[sense].append(row)
        rhs[sense].append(b)
        if len(pending[sense]) == BLOCK:
            _assert_block(matrices[sense], done[sense], pending[sense])
            done[sense] += BLOCK
            pending[sense] = []
    for sense, rows in pending.items():
        if rows:
            _assert_block(matrices[sense], done[sense], rows)
        assert matrices[sense].shape[0] == done[sense] + len(rows)
    assert np.array_equal(_bits(b_ub), _bits(np.array(rhs["<="], dtype=float)))
    assert np.array_equal(_bits(b_eq), _bits(np.array(rhs["="], dtype=float)))


# -- every suite program, data-driven and hybrid, degrees 1-2 ------------------------


def _variants():
    for spec in all_benchmarks():
        yield spec.name, "data-driven"
        if spec.hybrid_source is not None:
            yield spec.name, "hybrid"


@pytest.mark.slow
@pytest.mark.parametrize("name,mode", list(_variants()))
def test_suite_exports_match_dense_oracle(name, mode):
    """The H:Opt LP every data-driven/hybrid cell starts from, and (where
    the program is statically analyzable) the conventional LP, at degrees
    1 and 2; extra columns as ``polytope_from_lp`` asks for them."""
    spec = get_benchmark(name)
    program = _compiled_program(spec, mode)
    dataset = _mode_dataset(spec, mode, 0)
    _source, entry = _mode_variant(spec, mode)
    for degree in (1, 2):
        collector = SiteCollector()
        handler = make_data_handler(dataset, collector, cost_mode="const")
        analysis = build_analysis(program, entry, degree, stat_handler=handler)
        assert_matches_oracle(analysis.lp)
        assert_matches_oracle(analysis.lp, extra_vars=["extra.col"] + collector.site_vars())
        try:
            static = build_analysis(program, entry, degree, stat_mode="transparent")
        except UnanalyzableError:
            continue
        assert_matches_oracle(static.lp)


# -- edge cases ---------------------------------------------------------------------


class TestEdgeCases:
    def test_constant_only_row_stays_and_is_infeasible(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_le(x, 5)
        p.add_le(LinExpr.constant(0.0), -1.0)  # 0 <= -1
        A_ub, b_ub, _A_eq, _b_eq, _index = p.to_matrices()
        assert A_ub.shape == (2, 1) and A_ub.nnz == 1
        assert b_ub.tolist() == [5.0, -1.0]
        assert_matches_oracle(p)
        with pytest.raises(InfeasibleError):
            solve_min(p, x)

    def test_constant_only_equality_is_infeasible(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_eq(LinExpr.constant(1.0), 2.0)  # 1 = 2
        assert p.to_matrices()[2].shape == (1, 1)
        with pytest.raises(InfeasibleError):
            solve_min(p, x)

    def test_variable_cancelling_across_sides_leaves_no_entry(self):
        p = LPProblem()
        x, y = p.fresh("x"), p.fresh("y")
        p.add_le(2 * x + y, 2 * x + 3)  # x cancels to exactly 0
        p.add_eq(x + 1, y)
        A_ub, b_ub, A_eq, b_eq, index = p.to_matrices()
        assert A_ub.nnz == 1 and A_ub[0, index["y.1"]] == 1.0
        assert A_eq.nnz == 2
        assert b_ub.tolist() == [3.0] and b_eq.tolist() == [-1.0]
        assert_matches_oracle(p)

    def test_extra_vars_add_columns_without_touching_the_cache(self):
        p = LPProblem()
        x, y = p.fresh("x"), p.fresh("y")
        p.add_ge(x + y, 1)
        plain = p.to_matrices()
        A_ub, _b, A_eq, _b_eq, index = p.to_matrices(extra_vars=["w", "x.0", "v"])
        assert index == {"x.0": 0, "y.1": 1, "w": 2, "v": 3}
        assert A_ub.shape == (1, 4) and A_eq.shape == (0, 4)
        assert_matches_oracle(p, extra_vars=["w", "x.0", "v"])
        assert p.to_matrices() is plain
        assert plain[0].shape == (1, 2)

    def test_export_is_cached_until_the_problem_changes(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_le(x, 1)
        first = p.to_matrices()
        assert p.to_matrices() is first
        p.add_le(x, 2)
        assert p.to_matrices()[0].shape == (2, 1)

    def test_empty_problem_exports_empty_matrices(self):
        p = LPProblem()
        p.declare("x")
        A_ub, b_ub, A_eq, b_eq, index = p.to_matrices()
        assert A_ub.shape == (0, 1) and A_eq.shape == (0, 1)
        assert b_ub.shape == (0,) and b_eq.shape == (0,)
        assert solve_min(p, LinExpr.var("x")).objective_values == [0.0]


class TestSolutionsMatchDensePath:
    def _map_append_hybrid(self, cost_mode):
        spec = get_benchmark("MapAppend")
        program = _compiled_program(spec, "hybrid")
        dataset = _mode_dataset(spec, "hybrid", 0)
        collector = SiteCollector()
        handler = make_data_handler(dataset, collector, cost_mode=cost_mode)
        analysis = build_analysis(program, spec.hybrid_entry, 2, stat_handler=handler)
        return analysis, collector, dataset

    def test_staged_solve_is_bit_identical(self):
        analysis, collector, _dataset = self._map_append_hybrid("const")
        objectives = [collector.gap_objective] + analysis.root_objectives("degree")
        assert len(objectives) >= 3
        solution = solve_lexicographic(analysis.lp, objectives)
        assignment, values = dense_lexicographic(analysis.lp, objectives)
        assert solution.objective_values == values
        assert solution.assignment == assignment

    def test_pinned_bounds_with_stage_pins_are_bit_identical(self):
        """A BayesWC per-sample LP: each worst-case variable pinned to the
        observed maximum cost (the least worst case the data allow), then
        the gap and root stages."""
        analysis, collector, dataset = self._map_append_hybrid("wvar")
        objectives = [collector.gap_objective] + analysis.root_objectives()
        assert len(objectives) == 2 and collector.wvars
        labels = {label for label, _size_key in collector.wvars}
        max_costs = {label: dataset[label].max_costs() for label in labels}
        pinned = {
            wname: max_costs[label][size_key]
            for (label, size_key), wname in collector.wvars.items()
        }
        solution = solve_lexicographic(analysis.lp, objectives, pinned=pinned)
        assignment, values = dense_lexicographic(analysis.lp, objectives, pinned=pinned)
        assert solution.objective_values == values
        assert solution.assignment == assignment
        for name, value in pinned.items():
            assert solution[name] == pytest.approx(value, abs=2e-7)


# -- the dense export's MemoryError (Table 1 "Cannot Analyze" at degree 3) -------------


_CAPPED_CHILD = textwrap.dedent(
    """
    import json, resource, sys

    from repro.aara.analyze import run_conventional
    from repro.lang import compile_program
    from repro.suite import get_benchmark

    def vm_size():
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) * 1024
        raise RuntimeError("no VmSize")

    spec = get_benchmark("MedianOfMedians")
    program = compile_program(spec.data_driven_source)
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = vm_size() + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        verdict = run_conventional(program, spec.data_driven_entry, max_degree=3)
    except MemoryError:
        print(json.dumps({"error": "MemoryError"}))
        sys.exit(0)
    print(json.dumps({"status": verdict.status,
                      "feasible_degrees": list(verdict.feasible_degrees)}))
    """
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmSize")
def test_median_of_medians_degree3_fits_in_one_gib():
    """Conventional AARA on MedianOfMedians at max degree 3 (21,357 × 18,253
    at degree 3) needs no dense matrix: under an address-space cap of one
    GiB over the child's size it ends in the paper's "Cannot Analyze"."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert doc == {"status": "infeasible", "feasible_degrees": []}
