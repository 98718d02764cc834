"""LP substrate tests: expressions, problems, lexicographic solving."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError, LPError, ResourceLimitError
from repro.lp import LPProblem, LinExpr, feasible_point, solve_lexicographic, solve_min

coef = st.floats(-10, 10, allow_nan=False)


class TestLinExpr:
    def test_var_and_constant(self):
        x = LinExpr.var("x")
        e = 2 * x + 3
        assert e.coeffs == {"x": 2.0}
        assert e.const == 3.0

    def test_subtraction_cancels(self):
        x = LinExpr.var("x")
        assert (x - x).is_constant()

    def test_evaluate(self):
        x, y = LinExpr.var("x"), LinExpr.var("y")
        e = 2 * x - y + 1
        assert e.evaluate({"x": 3, "y": 4}) == 3.0

    def test_total(self):
        e = LinExpr.total([LinExpr.var("a"), 2, LinExpr.var("a")])
        assert e.coeffs == {"a": 2.0} and e.const == 2.0

    def test_str(self):
        assert str(2 * LinExpr.var("x") + 1) == "2*x + 1"

    @given(a=coef, b=coef, c=coef)
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b, c):
        x, y = LinExpr.var("x"), LinExpr.var("y")
        e = a * x + b * y + c
        assert e.evaluate({"x": 2.0, "y": -1.0}) == pytest.approx(2 * a - b + c)

    @given(a=coef, b=coef)
    @settings(max_examples=50, deadline=None)
    def test_add_commutes(self, a, b):
        x = LinExpr.var("x")
        e1 = (a * x) + (b * x)
        e2 = (b * x) + (a * x)
        assert e1.evaluate({"x": 1.7}) == pytest.approx(e2.evaluate({"x": 1.7}))

    def test_hashable_and_equal(self):
        x = LinExpr.var("x")
        assert hash(2 * x + 1) == hash(2 * x + 1)
        assert 2 * x + 1 == 2 * x + 1


class TestLPProblem:
    def test_fresh_variables_unique(self):
        p = LPProblem()
        names = {p.fresh("q").variables()[0] for _ in range(10)}
        assert len(names) == 10

    def test_constraint_check(self):
        p = LPProblem()
        x = p.fresh("x")
        con = p.add_ge(x, 5)
        assert not con.holds({"x.0": 4})
        assert con.holds({"x.0": 5})

    def test_problem_check_finds_violation(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_le(x, 3)
        assert p.check({"x.0": 10}) is not None
        assert p.check({"x.0": 1}) is None

    def test_extend_merges(self):
        p, q = LPProblem(), LPProblem()
        xp = p.fresh("a")
        xq = q.fresh("b")
        q.add_ge(xq, 1)
        p.extend(q)
        assert len(p.constraints) == 1

    def test_extend_invalidates_the_export(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_le(x, 10)
        p.to_matrices()  # cached
        q = LPProblem()
        q.declare_expr(x)
        q.add_ge(x, 3)
        p.extend(q)
        assert p.to_matrices()[0].shape == (2, 1)
        assert solve_min(p, x).value(x) == pytest.approx(3.0)

    def test_extend_respects_the_constraint_budget(self):
        p = LPProblem(max_constraints=2)
        x = p.fresh("x")
        p.add_le(x, 10)
        q = LPProblem()
        q.declare_expr(x)
        q.add_ge(x, 1)
        q.add_ge(x, 2)
        with pytest.raises(ResourceLimitError):
            p.extend(q)
        assert len(p.constraints) == 2

    def test_matrices_shape(self):
        p = LPProblem()
        x, y = p.fresh("x"), p.fresh("y")
        p.add_le(x + y, 4)
        p.add_eq(x, 1)
        A_ub, b_ub, A_eq, b_eq, index = p.to_matrices()
        assert A_ub.shape == (1, 2)
        assert A_eq.shape == (1, 2)


class TestSolving:
    def test_simple_min(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_ge(x, 3)
        sol = solve_min(p, x)
        assert sol.value(x) == pytest.approx(3.0)

    def test_implicit_nonnegativity(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_le(x, 10)
        sol = solve_min(p, x)
        assert sol.value(x) == pytest.approx(0.0)

    def test_infeasible_raises(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_le(x, -1)  # x >= 0 implicitly
        with pytest.raises(InfeasibleError):
            solve_min(p, x)

    def test_unbounded_raises(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_ge(x, 0)
        with pytest.raises(LPError):
            solve_min(p, -1 * x)

    def test_lexicographic_order_matters(self):
        p = LPProblem()
        x, y = p.fresh("x"), p.fresh("y")
        p.add_ge(x + y, 10)
        sol_xy = solve_lexicographic(p, [x, y])
        sol_yx = solve_lexicographic(p, [y, x])
        assert sol_xy.value(x) == pytest.approx(0.0, abs=1e-6)
        assert sol_yx.value(y) == pytest.approx(0.0, abs=1e-6)

    def test_pinned_variables(self):
        p = LPProblem()
        x, y = p.fresh("x"), p.fresh("y")
        p.add_ge(x + y, 10)
        name = x.variables()[0]
        sol = solve_lexicographic(p, [y], pinned={name: 4.0})
        assert sol.value(x) == pytest.approx(4.0, abs=1e-5)
        assert sol.value(y) == pytest.approx(6.0, abs=1e-5)

    def test_pinned_can_make_infeasible(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_le(x, 3)
        with pytest.raises(InfeasibleError):
            solve_min(p, x, pinned={x.variables()[0]: 5.0})

    def test_feasible_point(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_ge(x, 2)
        point = feasible_point(p)
        assert point is not None and point[x.variables()[0]] >= 2 - 1e-6

    def test_feasible_point_none_when_empty(self):
        p = LPProblem()
        x = p.fresh("x")
        p.add_le(x, -5)
        assert feasible_point(p) is None

    @given(target=st.floats(0.5, 50, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_min_matches_target(self, target):
        p = LPProblem()
        x = p.fresh("x")
        p.add_ge(2 * x, target)
        sol = solve_min(p, x)
        assert sol.value(x) == pytest.approx(target / 2, rel=1e-6)
