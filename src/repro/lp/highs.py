"""scipy's bundled HiGHS, called directly with ``linprog``'s model and options.

``scipy.optimize.linprog(method=...)`` with a HiGHS method copies and
validates its inputs, converts both constraint matrices to COO and the
stacked matrix back to CSC, builds a fresh HiGHS option set (with a new
option manager per option), and after the solve reads every row dual and,
in a Python loop, every column's bound marginal.  Nothing here reads the
duals, so on small LPs that wrapping costs several times the solve.

:func:`solve` hands HiGHS the model ``linprog`` builds (``lhs <= A x <=
rhs`` with ``A = [A_ub; A_eq]`` column-wise, ``lhs`` of the inequality rows
``-inf``, the same column bounds) under the same options, on a fresh
``Highs`` instance, so the solve is cold exactly as ``linprog``'s is.  It
keeps ``linprog``'s status and message mapping, ``nit = simplex_nit or
ipm_nit`` and its ``_check_result`` feasibility test, and returns an
``OptimizeResult`` with ``x``, ``fun``, ``slack``, ``con``, ``status``,
``success``, ``message`` and ``nit``.  ``tests/test_lp_highs.py`` checks
that status, ``nit``, message, ``x`` and ``fun`` equal ``linprog``'s bit
for bit on the suite's LPs under all three methods.

``scipy.optimize._highspy`` is private API.  :data:`linprog` is
:func:`solve` where it imports and ``scipy.optimize.linprog`` itself
where it does not; inputs outside what this code passes (non-finite
values, non-canonical sparse matrices, other methods, options other than
``time_limit``) also go to ``scipy.optimize.linprog``.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sps
from scipy.optimize import OptimizeResult, linprog as scipy_linprog

try:
    from scipy.optimize._highspy import _core as _h
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
    from scipy.optimize._linprog_util import _check_result
except ImportError:  # pragma: no cover - depends on the scipy build
    _h = None

#: ``linprog``'s method name -> the HiGHS ``solver`` option it sets
#: (``None``: left at HiGHS's own choice)
_SOLVERS = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}

#: ``linprog``'s default ``tol`` (``_check_result`` widens it itself)
_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _options(solver, time_limit):
    """The options ``linprog`` sets on HiGHS (those it leaves ``None``
    keep HiGHS's defaults); ``passOptions`` copies them, so one set per
    method and time limit serves every solve."""
    options = _h.HighsOptions()
    options.presolve = "on"
    if solver is not None:
        options.solver = solver
    if time_limit is not None:
        options.time_limit = time_limit
    options.highs_debug_level = _h.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


def _vector(values) -> np.ndarray:
    """A right-hand side as ``linprog`` formats it: float, 1-D."""
    if values is None:
        return np.array([], dtype=float)
    values = np.array(values, dtype=float).squeeze()
    return values if values.size != 1 else values.reshape(-1)


def _bounds(bounds, n: int):
    """``(lb, ub)`` as ``linprog`` cleans them, or ``None`` for a shape it
    would reject or read otherwise."""
    if bounds is None or np.array_equal(bounds, []) or np.array_equal(bounds, [[]]):
        bounds = (0, np.inf)
    table = np.atleast_2d(np.array(bounds, dtype=float))
    if table.shape == (n, 2):
        pass
    elif table.shape in ((2, 1), (1, 2)):
        flat = table.flatten()
        table = np.empty((n, 2))
        table[:, 0], table[:, 1] = flat[0], flat[1]
    else:
        return None
    table[np.isnan(table[:, 0]), 0] = -np.inf
    table[np.isnan(table[:, 1]), 1] = np.inf
    return table


def _matrix(A_ub, A_eq, n: int):
    """``[A_ub; A_eq]`` column-wise, or ``None`` for inputs whose entries
    ``linprog``'s own conversion could order or sum otherwise (anything but
    canonical CSR or dense blocks, or a mix of the two)."""
    blocks = [block for block in (A_ub, A_eq) if block is not None]
    if not blocks:
        return sps.csc_array((0, n))
    sparse = [sps.issparse(block) for block in blocks]
    if all(sparse):
        if any(block.format != "csr" or not block.has_canonical_format for block in blocks):
            return None
        return sps.csc_array(sps.vstack(blocks, format="csr"))
    dense = [np.asarray(block, dtype=float) for block in blocks]
    if any(sparse) or any(block.ndim != 2 for block in dense):
        return None
    return sps.csc_array(np.vstack(dense))


def solve(
    c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None), method="highs",
    options=None,
):
    """``scipy.optimize.linprog`` for the HiGHS methods, without its
    wrapping; ``options`` may set ``time_limit`` (seconds)."""
    cost = np.array(c, dtype=np.float64).squeeze()
    if cost.size == 1:
        cost = cost.reshape(-1)
    n = cost.size
    upper, equal = _vector(b_ub), _vector(b_eq)
    table = _bounds(bounds, n) if cost.ndim == 1 and n else None
    A = _matrix(A_ub, A_eq, n) if table is not None else None
    time_limit = (options or {}).get("time_limit")
    if (
        method not in _SOLVERS
        or set(options or ()) - {"time_limit"}
        or A is None
        or A.shape != (upper.size + equal.size, n)
        or not np.isfinite(cost).all()
        or not np.isfinite(A.data).all()
        or not np.isfinite(upper).all()
        or not np.isfinite(equal).all()
    ):
        return scipy_linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method=method,
            options=options,
        )

    lb, ub = table.T.copy()
    lhs = np.concatenate((np.full(upper.size, -np.inf), equal))
    rhs = np.concatenate((upper, equal))
    model = _h.HighsLp()
    model.num_col_ = n
    model.num_row_ = rhs.size
    model.a_matrix_.num_col_ = n
    model.a_matrix_.num_row_ = rhs.size
    model.a_matrix_.format_ = _h.MatrixFormat.kColwise
    model.col_cost_ = cost
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = lhs
    model.row_upper_ = rhs
    # integer arrays reach HiGHS element by element; a list is the quicker
    # sequence (float arrays go through the buffer protocol)
    model.a_matrix_.start_ = A.indptr.tolist()
    model.a_matrix_.index_ = A.indices.tolist()
    model.a_matrix_.value_ = A.data

    highs = _h._Highs()
    x = fun = slack = con = None
    nit = 0
    if highs.passOptions(_options(_SOLVERS[method], time_limit)) == _h.HighsStatus.kError:
        model_status = highs.getModelStatus()
        detail = highs.modelStatusToString(model_status)
    elif highs.passModel(model) == _h.HighsStatus.kError:
        model_status = _h.HighsModelStatus.kModelError
        detail = highs.modelStatusToString(model_status)
    elif highs.run() == _h.HighsStatus.kError:
        model_status = highs.getModelStatus()
        detail = highs.modelStatusToString(model_status)
    else:
        model_status = highs.getModelStatus()
        info = highs.getInfo()
        nit = info.simplex_iteration_count or info.ipm_iteration_count
        if model_status != _h.HighsModelStatus.kOptimal:
            detail = (
                f"model_status is {highs.modelStatusToString(model_status)}; "
                "primal_status is "
                f"{highs.solutionStatusToString(info.primal_solution_status)}"
            )
        else:
            detail = highs.modelStatusToString(model_status)
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            residual = rhs - solution.row_value
            slack = np.array(residual[: upper.size])
            con = np.array(residual[upper.size :])
            fun = info.objective_function_value
    status, message = _highs_to_scipy_status_message(model_status, detail)
    status, message = _check_result(x, fun, status, slack, con, table, _TOL, message, None)
    return OptimizeResult(
        x=x, fun=fun, slack=slack, con=con, status=status,
        success=status == 0, message=message, nit=nit,
    )


#: the LP entry point of :mod:`repro.lp.solver` and :mod:`repro.stats.polytope`
linprog = solve if _h is not None else scipy_linprog
