"""Linear programs: variables, constraints, matrix export.

All variables are non-negative by default (resource coefficients live in
``Q≥0``).  Constraints are stored in normalized form ``lhs ≤ rhs`` or
``lhs = rhs`` with a provenance note for debugging infeasibilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from .expr import LinExpr, as_expr
from ..errors import LPError, ResourceLimitError


@dataclass
class Constraint:
    lhs: LinExpr
    sense: str  # '<=' or '='
    rhs: LinExpr
    note: str = ""

    def gap(self) -> LinExpr:
        """``rhs - lhs`` (non-negative when the constraint holds)."""
        return self.rhs - self.lhs

    def holds(self, assignment, tol: float = 1e-6) -> bool:
        gap = self.gap().evaluate(assignment)
        if self.sense == "<=":
            return gap >= -tol
        return abs(gap) <= tol

    def __str__(self) -> str:
        return f"{self.lhs} {self.sense} {self.rhs}" + (f"  [{self.note}]" if self.note else "")


class LPProblem:
    """A collection of non-negative variables and linear constraints."""

    def __init__(
        self,
        name: str = "lp",
        max_variables: Optional[int] = None,
        max_constraints: Optional[int] = None,
    ):
        self.name = name
        self.constraints: List[Constraint] = []
        self._vars: Dict[str, int] = {}
        #: declared names in column order (``_vars`` inverted)
        self._names: List[str] = []
        #: number of the next fresh variable
        self._next_id = 0
        #: size budget for untrusted programs (None = uncapped): constraint
        #: generation on adversarial recursion shapes can go quadratic or
        #: worse, so the guard trips *while building*, before any solve
        self.max_variables = max_variables
        self.max_constraints = max_constraints
        #: cached to_matrices() result; the per-posterior-sample LP loops of
        #: BayesWC/BayesPC re-solve the same problem with different pinned
        #: bounds, so matrix assembly must not be repeated M times
        self._matrix_cache = None

    # -- variables ------------------------------------------------------------

    def fresh(self, hint: str = "q") -> LinExpr:
        name = f"{hint}.{self._next_id}"
        self._next_id += 1
        self.declare(name)
        return LinExpr.var(name)

    def declare(self, name: str) -> None:
        if name not in self._vars:
            if self.max_variables is not None and len(self._vars) >= self.max_variables:
                raise ResourceLimitError(
                    f"LP exceeds the {self.max_variables}-variable budget",
                    kind="variables",
                    limit=self.max_variables,
                )
            self._vars[name] = len(self._vars)
            self._names.append(name)
            self._matrix_cache = None

    def declare_expr(self, expr: LinExpr) -> None:
        for name in expr.coeffs:
            self.declare(name)

    @property
    def variables(self) -> List[str]:
        return list(self._vars.keys())

    @property
    def num_vars(self) -> int:
        return len(self._vars)

    # -- constraints ------------------------------------------------------------

    def add_le(self, lhs, rhs, note: str = "") -> Constraint:
        con = Constraint(as_expr(lhs), "<=", as_expr(rhs), note)
        self._register(con)
        return con

    def add_ge(self, lhs, rhs, note: str = "") -> Constraint:
        return self.add_le(rhs, lhs, note)

    def add_eq(self, lhs, rhs, note: str = "") -> Constraint:
        con = Constraint(as_expr(lhs), "=", as_expr(rhs), note)
        self._register(con)
        return con

    def _register(self, con: Constraint) -> None:
        if (
            self.max_constraints is not None
            and len(self.constraints) >= self.max_constraints
        ):
            raise ResourceLimitError(
                f"LP exceeds the {self.max_constraints}-constraint budget",
                kind="constraints",
                limit=self.max_constraints,
            )
        self.declare_expr(con.lhs)
        self.declare_expr(con.rhs)
        self.constraints.append(con)
        self._matrix_cache = None

    def extend(self, other: "LPProblem") -> None:
        """Merge another problem's variables and constraints into this one."""
        for name in other.variables:
            self.declare(name)
        for con in other.constraints:
            self._register(con)

    def copy(self) -> "LPProblem":
        clone = LPProblem(self.name, self.max_variables, self.max_constraints)
        clone._vars = dict(self._vars)
        clone._names = list(self._names)
        clone._next_id = self._next_id
        self._next_id += 1
        clone.constraints = list(self.constraints)
        clone._matrix_cache = None
        return clone

    # -- repeated stretches ---------------------------------------------------------

    def mark(self) -> Tuple[int, int, int]:
        """Where the next fresh variable, declared name and constraint go."""
        return self._next_id, len(self._names), len(self.constraints)

    def copy_span(
        self, start: Tuple[int, int, int], stop: Tuple[int, int, int]
    ) -> Optional[Dict[str, str]]:
        """Add again what was added between two marks, under fresh names.

        The stretch must be a run of fresh variables, each declared as it
        was made, and constraints over those variables only.  The copy
        gets the next fresh numbers in the same order, with the same
        hints, coefficients, constant terms and notes, so the problem ends
        exactly as if the stretch had been generated again.  Returns the
        old → new names, or ``None``, adding nothing, when the stretch is
        not such a run, when a new name is taken, or when the copy would
        cross the variable or constraint budget (generating it again then
        raises at the same point as before).
        """
        first, var_start, con_start = start
        stop_id, var_stop, con_stop = stop
        names = self._names[var_start:var_stop]
        n_cons = con_stop - con_start
        if len(names) != stop_id - first:
            return None
        if self.max_variables is not None and len(self._vars) + len(names) > self.max_variables:
            return None
        if self.max_constraints is not None and len(self.constraints) + n_cons > self.max_constraints:
            return None
        renamed: Dict[str, str] = {}
        base = self._next_id
        for offset, name in enumerate(names):
            hint, _, number = name.rpartition(".")
            new = f"{hint}.{base + offset}"
            if number != str(first + offset) or new in self._vars:
                return None
            renamed[name] = new
        for new in renamed.values():
            self._vars[new] = len(self._vars)
        self._names.extend(renamed.values())
        self._next_id = base + len(names)
        self.constraints.extend(
            Constraint(con.lhs.renamed(renamed), con.sense, con.rhs.renamed(renamed), con.note)
            for con in self.constraints[con_start:con_stop]
        )
        self._matrix_cache = None
        return renamed

    # -- matrix export ------------------------------------------------------------

    def column_index(self) -> Dict[str, int]:
        return dict(self._vars)

    def to_matrices(
        self, extra_vars: Sequence[str] = ()
    ) -> Tuple[csr_matrix, np.ndarray, csr_matrix, np.ndarray, Dict[str, int]]:
        """Export as ``A_ub x <= b_ub``, ``A_eq x = b_eq`` over declared vars.

        The matrices are canonical CSR (duplicates summed, explicit zeros
        dropped, column indices sorted), assembled straight from each
        constraint's ``lhs - rhs``: equal to ``csr_matrix`` of the dense
        row-by-row export, without ever allocating rows × columns floats.

        Does NOT include the implicit non-negativity bounds; callers add
        them where needed (the solver passes bounds, the polytope module
        appends ``-I x <= 0`` rows).
        """
        if not extra_vars and self._matrix_cache is not None:
            return self._matrix_cache
        index = self.column_index()
        for name in extra_vars:
            if name not in index:
                index[name] = len(index)
        n = len(index)
        column = index.__getitem__
        # per sense: column indices, values, row pointers, right-hand sides.
        # A row is lhs.coeffs then -rhs.coeffs; _csr sums a variable that
        # is on both sides, which is the float addition LinExpr subtraction
        # does, so entries and constants are bit-identical to ``lhs - rhs``
        parts = {"<=": ([], [], [0], []), "=": ([], [], [0], [])}
        for con in self.constraints:
            cols, vals, indptr, rhs = parts[con.sense]
            left, right = con.lhs.coeffs, con.rhs.coeffs
            cols.extend(map(column, left))
            vals.extend(left.values())
            cols.extend(map(column, right))
            vals.extend([-coef for coef in right.values()])
            indptr.append(len(cols))
            rhs.append(-(con.lhs.const - con.rhs.const))
        A_ub, b_ub = _csr(*parts["<="], n)
        A_eq, b_eq = _csr(*parts["="], n)
        result = (A_ub, b_ub, A_eq, b_eq, index)
        if not extra_vars:
            self._matrix_cache = result
        return result

    def check(self, assignment: Dict[str, float], tol: float = 1e-5) -> Optional[Constraint]:
        """Return the first violated constraint under ``assignment`` or None."""
        for con in self.constraints:
            if not con.holds(assignment, tol):
                return con
        return None

    def __len__(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"LP {self.name}: {self.num_vars} vars, {len(self.constraints)} constraints"]
        lines += [f"  {con}" for con in self.constraints]
        return "\n".join(lines)


def _csr(cols, vals, indptr, rhs, n: int) -> Tuple[csr_matrix, np.ndarray]:
    """Canonical CSR rows from per-row (column, value) runs that may repeat a
    column (a variable on both sides) or cancel to zero."""
    data = np.array(vals, dtype=float)
    indices = np.array(cols, dtype=np.intp)
    matrix = csr_matrix((data, indices, np.array(indptr)), shape=(len(rhs), n))
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    return matrix, np.array(rhs, dtype=float)


def validate_objective(problem: LPProblem, objective: LinExpr) -> None:
    for name in objective.coeffs:
        if name not in problem._vars:
            raise LPError(f"objective references undeclared variable {name!r}")
