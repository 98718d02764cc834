"""The tree-walking interpreter: the oracle for the closure compiler.

This is the evaluator :mod:`repro.lang.interp` used before it compiled
programs into closures, kept verbatim: every node goes through one
``isinstance`` dispatch per evaluation.  The program never calls it; the
equivalence tests run it beside :class:`repro.lang.interp.Interpreter`
and compare values, costs, stat records, the ``eval_steps`` /
``tick_ops`` counters and every raised error.
"""

from typing import Dict, List, Optional

from repro.errors import BudgetExceededError, EvalError
from repro.lang import ast as A
from repro.lang.builtins import BUILTINS
from repro.lang.interp import (
    INT_BIT_LIMIT,
    EvalResult,
    StatRecord,
    _deep_recursion,
    _trunc_div,
    _trunc_mod,
)
from repro.lang.values import UNIT_VALUE, VInl, VInr, VList, VTuple, Value


class Interpreter:
    """Evaluates normalized programs under the tick cost metric."""

    def __init__(
        self,
        program: A.Program,
        collect_stats: bool = True,
        max_steps: Optional[int] = None,
        max_call_depth: Optional[int] = None,
        max_value_size: Optional[int] = None,
    ):
        self.program = program
        self.collect_stats = collect_stats
        self.cost = 0.0
        self.records: List[StatRecord] = []
        self._stat_free_vars: Dict[int, frozenset] = {}
        #: fuel budgets for untrusted programs (None = uncapped): step
        #: fuel and call depth are per-:meth:`run`, value size per value
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.max_value_size = max_value_size
        self._fuel: Optional[int] = None
        self._call_depth = 0
        #: lifetime work counters (not reset by :meth:`run`) — cheap enough
        #: to keep unconditionally; surfaced as telemetry by collect_dataset
        self.eval_steps = 0
        self.tick_ops = 0

    # -- public API ----------------------------------------------------------

    def run(self, fname: str, args: List[Value]) -> EvalResult:
        """Evaluate ``fname(args)`` from a fresh cost counter."""
        if fname not in self.program:
            raise EvalError(f"unknown function {fname!r}")
        fdef = self.program[fname]
        if len(args) != len(fdef.params):
            raise EvalError(
                f"{fname} expects {len(fdef.params)} arguments, got {len(args)}"
            )
        self.cost = 0.0
        self.records = []
        self._fuel = self.max_steps
        self._call_depth = 0
        with _deep_recursion():
            frame = dict(zip(fdef.params, args))
            value = self.eval(fdef.body, frame)
        return EvalResult(value, self.cost, list(self.records))

    # -- evaluation ----------------------------------------------------------

    def eval(self, expr: A.Expr, env: Dict[str, Value]) -> Value:
        self.eval_steps += 1
        if self._fuel is not None:
            self._fuel -= 1
            if self._fuel < 0:
                raise BudgetExceededError(
                    f"evaluation exceeded the {self.max_steps}-step budget",
                    kind="steps",
                    limit=self.max_steps,
                )
        if isinstance(expr, A.Var):
            try:
                return env[expr.name]
            except KeyError:
                raise EvalError(f"unbound variable {expr.name!r}") from None
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.BoolLit):
            return expr.value
        if isinstance(expr, A.UnitLit):
            return UNIT_VALUE
        if isinstance(expr, A.Nil):
            return VList(())
        if isinstance(expr, A.Tick):
            self.cost += expr.amount
            self.tick_ops += 1
            return UNIT_VALUE
        if isinstance(expr, A.ErrorExpr):
            raise EvalError(f"program error: {expr.message}")
        if isinstance(expr, A.Cons):
            head = self.eval(expr.head, env)
            tail = self.eval(expr.tail, env)
            if not isinstance(tail, VList):
                raise EvalError("cons onto a non-list")
            if (
                self.max_value_size is not None
                and len(tail.items) + 1 > self.max_value_size
            ):
                raise BudgetExceededError(
                    f"constructed value exceeds the {self.max_value_size}-cell budget",
                    kind="value-size",
                    limit=self.max_value_size,
                )
            return VList((head,) + tail.items)
        if isinstance(expr, A.TupleExpr):
            return VTuple(tuple(self.eval(e, env) for e in expr.items))
        if isinstance(expr, A.Inl):
            return VInl(self.eval(expr.operand, env))
        if isinstance(expr, A.Inr):
            return VInr(self.eval(expr.operand, env))
        if isinstance(expr, A.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, A.Neg):
            operand = self.eval(expr.operand, env)
            if expr.op == "-":
                return -operand
            return not operand
        if isinstance(expr, A.If):
            cond = self.eval(expr.cond, env)
            if not isinstance(cond, bool):
                raise EvalError("if condition is not a boolean")
            branch = expr.then_branch if cond else expr.else_branch
            return self.eval(branch, env)
        if isinstance(expr, A.Let):
            env[expr.name] = self.eval(expr.bound, env)
            return self.eval(expr.body, env)
        if isinstance(expr, A.Share):
            value = env[expr.name]
            env[expr.name1] = value
            env[expr.name2] = value
            return self.eval(expr.body, env)
        if isinstance(expr, A.MatchList):
            scrut = self.eval(expr.scrutinee, env)
            if not isinstance(scrut, VList):
                raise EvalError("match on a non-list")
            if not scrut.items:
                return self.eval(expr.nil_branch, env)
            env[expr.head_var] = scrut.items[0]
            env[expr.tail_var] = VList(scrut.items[1:])
            return self.eval(expr.cons_branch, env)
        if isinstance(expr, A.MatchSum):
            scrut = self.eval(expr.scrutinee, env)
            if isinstance(scrut, VInl):
                env[expr.left_var] = scrut.value
                return self.eval(expr.left_branch, env)
            if isinstance(scrut, VInr):
                env[expr.right_var] = scrut.value
                return self.eval(expr.right_branch, env)
            raise EvalError("match on a non-sum value")
        if isinstance(expr, A.MatchTuple):
            scrut = self.eval(expr.scrutinee, env)
            if not isinstance(scrut, VTuple) or len(scrut.items) != len(expr.names):
                raise EvalError("tuple match arity mismatch")
            for name, item in zip(expr.names, scrut.items):
                env[name] = item
            return self.eval(expr.body, env)
        if isinstance(expr, A.App):
            return self._eval_app(expr, env)
        if isinstance(expr, A.Stat):
            return self._eval_stat(expr, env)
        raise EvalError(f"cannot evaluate node {type(expr).__name__}")

    def _eval_binop(self, expr: A.BinOp, env: Dict[str, Value]) -> Value:
        op = expr.op
        if op == "&&":
            left = self.eval(expr.left, env)
            if not left:
                return False
            return bool(self.eval(expr.right, env))
        if op == "||":
            left = self.eval(expr.left, env)
            if left:
                return True
            return bool(self.eval(expr.right, env))
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op in ("+", "-", "*") and self.max_value_size is not None:
            if (
                isinstance(left, int)
                and isinstance(right, int)
                and max(left.bit_length(), right.bit_length()) > INT_BIT_LIMIT
            ):
                raise BudgetExceededError(
                    f"integer operand exceeds the {INT_BIT_LIMIT}-bit budget",
                    kind="value-size",
                    limit=INT_BIT_LIMIT,
                )
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return _trunc_div(left, right)
        if op == "mod":
            return _trunc_mod(left, right)
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise EvalError(f"unknown operator {op!r}")

    def _eval_app(self, expr: A.App, env: Dict[str, Value]) -> Value:
        args = [self.eval(arg, env) for arg in expr.args]
        if expr.fname in self.program:
            fdef = self.program[expr.fname]
            frame = dict(zip(fdef.params, args))
            self._call_depth += 1
            if (
                self.max_call_depth is not None
                and self._call_depth > self.max_call_depth
            ):
                self._call_depth -= 1
                raise BudgetExceededError(
                    f"call depth exceeds the {self.max_call_depth}-frame budget",
                    kind="call-depth",
                    limit=self.max_call_depth,
                )
            try:
                return self.eval(fdef.body, frame)
            finally:
                self._call_depth -= 1
        if expr.fname in BUILTINS:
            return BUILTINS[expr.fname].impl(*args)
        raise EvalError(f"unknown function {expr.fname!r}")

    def _eval_stat(self, expr: A.Stat, env: Dict[str, Value]) -> Value:
        if not self.collect_stats:
            return self.eval(expr.body, env)
        key = id(expr)
        fv = self._stat_free_vars.get(key)
        if fv is None:
            fv = frozenset(A.free_vars(expr.body))
            self._stat_free_vars[key] = fv
        before = self.cost
        value = self.eval(expr.body, env)
        cost = self.cost - before
        restricted = tuple(sorted((name, env[name]) for name in fv if name in env))
        self.records.append(StatRecord(expr.label, restricted, value, cost))
        return value
