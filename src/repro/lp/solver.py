"""LP solving with scipy's HiGHS backend, plus lexicographic objectives.

Hybrid AARA solves its joint linear programs in two stages (Section 6.1):
first minimize the total cost gap of the data-driven components, then
minimize the resource coefficients of the root typing context with
higher-degree coefficients weighted more heavily.  :func:`solve_lexicographic`
implements the staging by re-solving with the previous optimum pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.sparse import csr_matrix, vstack

from .expr import LinExpr
from .highs import linprog
from .problem import LPProblem
from .. import faultinject, telemetry
from ..errors import InfeasibleError, LPError

#: relative slack allowed when pinning a stage optimum for the next stage
STAGE_TOLERANCE = 1e-9

#: fallback chain for numerical solver failures: alternate HiGHS
#: algorithms first, then one retry with a tiny deterministic loosening
#: of the inequality right-hand sides (the degenerate AARA LPs sit right
#: on facet intersections, where HiGHS occasionally reports status 4)
FALLBACK_METHODS = ("highs", "highs-ds", "highs-ipm")
PERTURB_SCALE = 1e-9

#: wall-clock cap (seconds) on the chain's ``highs-ipm`` attempt: HiGHS's
#: interior-point method can run without end on a degenerate LP that both
#: simplex methods solve in milliseconds (a MedianOfMedians per-draw LP
#: ran for over 60 s).  A stall then ends in the perturbed-RHS retry or a
#: classified LPError instead of holding its worker to the request
#: deadline.  Ten times the slowest suite LP under ``highs-ipm`` (2.9 s, a
#: 1,213-column QuickSelect hybrid polytope LP) and a quarter of the
#: daemon's 120 s default deadline
IPM_TIME_LIMIT = 30.0

#: linprog statuses that are genuine verdicts (success / infeasible /
#: unbounded) rather than numerical accidents (1 = iteration or time
#: limit, 4 = numerical difficulties)
_DEFINITIVE_STATUSES = (0, 2, 3)


@dataclass
class LPSolution:
    assignment: Dict[str, float]
    objective_values: List[float]
    #: extra solver attempts spent in the numerical-failure fallback
    #: chain (0 on the happy path) — surfaced as a diagnostic
    fallbacks: int = 0

    def __getitem__(self, name: str) -> float:
        return self.assignment.get(name, 0.0)

    def value(self, expr: LinExpr) -> float:
        return expr.evaluate(self.assignment)


def _run_linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, method="highs"):
    if faultinject.fault_point(faultinject.LP_FAIL, method):
        return OptimizeResult(
            status=4,
            message=f"injected numerical failure ({method})",
            fun=None,
            x=None,
        )
    # emptiness by row count: a sparse matrix's ``size`` is its nnz, so a
    # constant-only row such as ``0 <= -1`` would otherwise vanish
    has_ub, has_eq = A_ub.shape[0] > 0, A_eq.shape[0] > 0
    return linprog(
        c,
        A_ub=A_ub if has_ub else None,
        b_ub=b_ub if has_ub else None,
        A_eq=A_eq if has_eq else None,
        b_eq=b_eq if has_eq else None,
        bounds=bounds,
        method=method,
        options=method_options(method),
    )


def method_options(method: str) -> Optional[Dict[str, float]]:
    """The ``linprog`` options the fallback chain passes with ``method``."""
    return {"time_limit": IPM_TIME_LIMIT} if method == "highs-ipm" else None


def _solve_robust(c, A_ub, b_ub, A_eq, b_eq, bounds, context=""):
    """One LP solve with the numerical-failure fallback chain.

    Returns ``(result, extra_attempts)`` where ``result`` has a
    definitive status; raises :class:`LPError` when every fallback still
    reports a numerical failure, so callers can cleanly separate
    "genuinely infeasible" (status 2 → :class:`InfeasibleError`) from
    "the solver gave up" (:class:`LPError`).
    """
    result = None
    attempts = 0
    for method in FALLBACK_METHODS:
        result = _run_linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, method=method)
        attempts += 1
        if result.status in _DEFINITIVE_STATUSES:
            return result, attempts - 1
    if A_ub.shape[0]:
        # last resort: loosen the inequality RHS by a deterministic hair —
        # strictly enlarges the feasible region, so a feasible problem
        # stays feasible and the optimum moves by O(1e-9)
        b_loose = b_ub + PERTURB_SCALE * (1.0 + np.abs(b_ub))
        result = _run_linprog(c, A_ub, b_loose, A_eq, b_eq, bounds, method="highs")
        attempts += 1
        if result.status in _DEFINITIVE_STATUSES:
            return result, attempts - 1
    raise LPError(
        f"LP solver failure after {attempts} attempt(s)"
        f"{': ' + context if context else ''} ({result.message})"
    )


def solve_lexicographic(
    problem: LPProblem,
    objectives: Sequence[LinExpr],
    context: str = "",
    pinned: Optional[Dict[str, float]] = None,
    pin_slack: float = 1e-7,
) -> LPSolution:
    """Minimize each objective in order, pinning earlier optima.

    ``pinned`` fixes named variables to values via their bounds (used by the
    per-posterior-sample LPs of Hybrid BayesWC/BayesPC, Eq. 6.5); a small
    ``pin_slack`` keeps sampled points numerically feasible.

    Raises :class:`InfeasibleError` when the feasible region is empty and
    :class:`LPError` for solver-level failures (e.g. unbounded objectives).
    """
    if not objectives:
        objectives = [LinExpr()]
    for objective in objectives:
        problem.declare_expr(objective)
    with telemetry.span("lp.solve", context=context, objectives=len(objectives)) as tspan:
        A_ub, b_ub, A_eq, b_eq, index = problem.to_matrices()
        n = len(index)
        bounds = np.zeros((n, 2))
        bounds[:, 1] = np.inf
        if pinned:
            for name, value in pinned.items():
                if name not in index:
                    continue
                col = index[name]
                bounds[col, 0] = max(0.0, float(value) - pin_slack)
                bounds[col, 1] = float(value) + pin_slack
        objective_values: List[float] = []
        result = None
        fallbacks = 0
        iterations = 0

        tspan.set(variables=n, constraints=int(A_ub.shape[0]) + int(A_eq.shape[0]))
        for stage, objective in enumerate(objectives):
            c = np.zeros(n)
            for name, coef in objective.coeffs.items():
                c[index[name]] += coef
            result, extra = _solve_robust(c, A_ub, b_ub, A_eq, b_eq, bounds, context)
            fallbacks += extra
            iterations += int(getattr(result, "nit", 0) or 0)
            if result.status == 2:
                _lp_counters(n, iterations, fallbacks, infeasible=True)
                raise InfeasibleError(
                    f"infeasible linear program{': ' + context if context else ''}"
                )
            if result.status == 3:
                _lp_counters(n, iterations, fallbacks)
                raise LPError(
                    f"unbounded objective at stage {stage}{': ' + context if context else ''}"
                )
            stage_opt = float(result.fun) + objective.const
            objective_values.append(stage_opt)
            if stage < len(objectives) - 1:
                # pin: objective <= opt (+ small slack for numerical robustness)
                slack = STAGE_TOLERANCE * max(1.0, abs(stage_opt))
                A_ub = vstack([A_ub, _pin_row(c)], format="csr")
                b_ub = np.append(b_ub, stage_opt - objective.const + slack)

        assert result is not None
        tspan.set(iterations=iterations, fallbacks=fallbacks)
        _lp_counters(n, iterations, fallbacks)
        # index maps the names to columns 0..n-1 in order
        assignment = dict(zip(index, result.x.tolist()))
        return LPSolution(assignment, objective_values, fallbacks=fallbacks)


def _pin_row(c: np.ndarray) -> csr_matrix:
    """The objective vector ``c`` as one canonical CSR row."""
    cols = np.flatnonzero(c)
    return csr_matrix((c[cols], cols, [0, cols.size]), shape=(1, c.size))


def _lp_counters(variables: int, iterations: int, fallbacks: int, infeasible: bool = False) -> None:
    """Per-solve counter batch (one flag test each when telemetry is off)."""
    telemetry.counter("lp.solves", 1)
    telemetry.counter("lp.variables", variables)
    if iterations:
        telemetry.counter("lp.iterations", iterations)
    if fallbacks:
        telemetry.counter("lp.fallbacks", fallbacks)
    if infeasible:
        telemetry.counter("lp.infeasible", 1)


def solve_min(
    problem: LPProblem,
    objective: LinExpr,
    context: str = "",
    pinned: Optional[Dict[str, float]] = None,
) -> LPSolution:
    """Single-objective convenience wrapper."""
    return solve_lexicographic(problem, [objective], context, pinned=pinned)


def feasible_point(problem: LPProblem, context: str = "") -> Optional[Dict[str, float]]:
    """A feasible point of the problem, or None when infeasible."""
    try:
        solution = solve_min(problem, LinExpr(), context)
    except InfeasibleError:
        return None
    return solution.assignment
