"""Linear expressions over named LP variables.

A :class:`LinExpr` is an immutable-ish mapping ``var -> coefficient`` plus a
constant.  All resource coefficients in AARA and the data-driven analyses
are represented this way, so potential bookkeeping is ordinary arithmetic:

>>> x, y = LinExpr.var("x"), LinExpr.var("y")
>>> str(2 * x + y + 1)
'2*x + y + 1'
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple, Union

Number = Union[int, float]


class LinExpr:
    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, float] | None = None, const: float = 0.0):
        self.coeffs: Dict[str, float] = {}
        if coeffs:
            for name, coef in coeffs.items():
                if coef != 0:
                    self.coeffs[name] = float(coef)
        self.const = float(const)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr({name: 1.0})

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        return LinExpr({}, float(value))

    @staticmethod
    def total(terms: Iterable["LinExpr | Number"]) -> "LinExpr":
        acc = LinExpr()
        for term in terms:
            acc = acc + term
        return acc

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, (int, float)):
            return LinExpr.constant(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "LinExpr":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for name, coef in other.coeffs.items():
            coeffs[name] = coeffs.get(name, 0.0) + coef
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-1.0) * other

    def __rsub__(self, other) -> "LinExpr":
        return self._coerce(other) - self

    def __mul__(self, scalar) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return LinExpr({k: v * scalar for k, v in self.coeffs.items()}, self.const * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- inspection ----------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Tuple[str, ...]:
        return tuple(self.coeffs.keys())

    def renamed(self, names: Mapping[str, str]) -> "LinExpr":
        """The same expression over ``names[v]`` for each variable ``v``
        (terms kept in order; ``names`` must cover every variable)."""
        out = LinExpr.__new__(LinExpr)
        out.coeffs = {names[name]: coef for name, coef in self.coeffs.items()}
        out.const = self.const
        return out

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        return self.const + sum(coef * assignment.get(name, 0.0) for name, coef in self.coeffs.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.const))

    def __str__(self) -> str:
        parts = []
        for name in sorted(self.coeffs):
            coef = self.coeffs[name]
            if coef == 1.0:
                parts.append(name)
            elif coef == -1.0:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coef:g}*{name}")
        if self.const or not parts:
            parts.append(f"{self.const:g}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinExpr({self})"


ZERO = LinExpr()


def as_expr(value: Union[LinExpr, Number]) -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr.constant(value)
