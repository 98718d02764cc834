"""Big-step cost semantics and runtime-data collection (Sections 3.2–3.3).

The interpreter evaluates *normalized* programs, accumulating the tick
cost, and records one :class:`StatRecord` per dynamic evaluation of every
``stat``-labelled subexpression: the environment restricted to the free
variables of the labelled expression, the resulting value, and the cost
incurred inside the expression.  This is exactly the data-collection
judgment ``(V_i |- e ⇓^c v_i) | D`` of Eq. (3.3).

An :class:`Interpreter` compiles every function body once, when it is
built, into nested Python closures: one closure per AST node,
specialised on the node's kind and operator, with its children,
literals, binder names, stat label and stat free variables captured at
compile time.  User calls go through the interpreter's table of body
closures; builtin calls go straight to the builtin's ``impl``.  Every
closure spends one step of fuel before it does any work, so
``eval_steps`` counts node evaluations, and a budget trips at the same
node, with the same error, as in a tree walk of the same program.
"""

from __future__ import annotations

import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import ast as A
from .builtins import BUILTINS
from .values import UNIT_VALUE, VInl, VInr, VList, VTuple, Value
from ..errors import BudgetExceededError, EvalError

RECURSION_LIMIT = 100_000

#: integer bit-length cap while a value-size budget is active: arithmetic
#: like ``f (x * x)`` squares magnitudes, doubling the bit length every
#: step, so a step budget alone cannot stop the memory blowup
INT_BIT_LIMIT = 4096

#: step limit of a run without a step budget
_UNLIMITED = sys.maxsize


@dataclass(frozen=True)
class StatRecord:
    """One runtime measurement ``(V, v, c)`` at a stat site ``label``."""

    label: str
    env: Tuple[Tuple[str, Value], ...]  # sorted (name, value) pairs
    value: Value
    cost: float

    def env_dict(self) -> Dict[str, Value]:
        return dict(self.env)


@dataclass
class EvalResult:
    value: Value
    cost: float
    stat_records: List[StatRecord] = field(default_factory=list)


@contextmanager
def _deep_recursion():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, RECURSION_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _trunc_div(a: int, b: int) -> int:
    """OCaml integer division truncates toward zero."""
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_mod(a: int, b: int) -> int:
    """OCaml ``mod``: sign follows the dividend."""
    if b == 0:
        raise EvalError("modulo by zero")
    return a - _trunc_div(a, b) * b


#: strict binary operators (both operands evaluated, left first)
_BINARY_OPS: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _trunc_div,
    "mod": _trunc_mod,
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: operators whose integer operands the value-size budget caps
_GROWING_OPS = ("+", "-", "*")


class Interpreter:
    """Evaluates normalized programs under the tick cost metric.

    The budgets cap untrusted programs (None = uncapped): step fuel and
    call depth per :meth:`run`, value size per value.  ``max_steps`` is
    read at the start of every run.  ``program``, ``collect_stats``,
    ``max_call_depth`` and ``max_value_size`` are compiled into the
    closures when the interpreter is built, so they are read-only.
    """

    def __init__(
        self,
        program: A.Program,
        collect_stats: bool = True,
        max_steps: Optional[int] = None,
        max_call_depth: Optional[int] = None,
        max_value_size: Optional[int] = None,
    ):
        self.max_steps = max_steps
        self._program = program
        self._options = (collect_stats, max_call_depth, max_value_size)
        with _deep_recursion():
            self._run_body, self._counters = _compile(program, *self._options)

    @property
    def program(self) -> A.Program:
        return self._program

    @property
    def collect_stats(self) -> bool:
        return self._options[0]

    @property
    def max_call_depth(self) -> Optional[int]:
        return self._options[1]

    @property
    def max_value_size(self) -> Optional[int]:
        return self._options[2]

    @property
    def eval_steps(self) -> int:
        """Node evaluations over the interpreter's lifetime (all runs)."""
        return self._counters()[0]

    @property
    def tick_ops(self) -> int:
        """``tick`` evaluations over the interpreter's lifetime."""
        return self._counters()[1]

    def run(self, fname: str, args: List[Value]) -> EvalResult:
        """Evaluate ``fname(args)`` from a fresh cost counter."""
        if fname not in self._program:
            raise EvalError(f"unknown function {fname!r}")
        fdef = self._program[fname]
        if len(args) != len(fdef.params):
            raise EvalError(
                f"{fname} expects {len(fdef.params)} arguments, got {len(args)}"
            )
        with _deep_recursion():
            return self._run_body(fname, dict(zip(fdef.params, args)), self.max_steps)


Closure = Callable[[Dict[str, Value]], Value]


def _compile(
    program: A.Program,
    collect_stats: bool,
    max_call_depth: Optional[int],
    max_value_size: Optional[int],
):
    """Compile every body of ``program`` into closures sharing one state.

    Returns ``(run_body, counters)``: ``run_body(fname, frame, max_steps)``
    evaluates ``fname``'s body in ``frame`` from a fresh cost counter and
    step budget; ``counters()`` is ``(eval_steps, tick_ops)``.

    The run state lives in this function's cells, which every closure
    reads and writes through ``nonlocal``.  Each closure starts with the
    same three statements: count the step, then stop if the run's fuel
    is spent (``steps > limit``).
    """
    steps = 0  # node evaluations, lifetime
    ticks = 0  # tick evaluations, lifetime
    limit = _UNLIMITED  # the step count past which this run is out of fuel
    fuel: Optional[int] = None  # this run's step budget (for the error)
    cost = 0.0
    records: List[StatRecord] = []
    depth = 0  # user-call depth
    bodies: Dict[str, Closure] = {}

    def out_of_fuel():
        raise BudgetExceededError(
            f"evaluation exceeded the {fuel}-step budget", kind="steps", limit=fuel
        )

    def too_large():
        raise BudgetExceededError(
            f"constructed value exceeds the {max_value_size}-cell budget",
            kind="value-size",
            limit=max_value_size,
        )

    def constant(value):
        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            return value

        return ev

    def failing(message):
        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            raise EvalError(message)

        return ev

    def c_var(expr: A.Var) -> Closure:
        name = expr.name

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None

        return ev

    def c_nil(expr: A.Nil) -> Closure:
        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            return VList(())

        return ev

    def c_tick(expr: A.Tick) -> Closure:
        amount = expr.amount

        def ev(env):
            nonlocal steps, cost, ticks
            steps += 1
            if steps > limit:
                out_of_fuel()
            cost += amount
            ticks += 1
            return UNIT_VALUE

        return ev

    def c_cons(expr: A.Cons) -> Closure:
        head, tail = compile_expr(expr.head), compile_expr(expr.tail)
        cap = _UNLIMITED if max_value_size is None else max_value_size

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            h = head(env)
            t = tail(env)
            if not isinstance(t, VList):
                raise EvalError("cons onto a non-list")
            items = t.items
            if len(items) + 1 > cap:
                too_large()
            return VList((h,) + items)

        return ev

    def c_tuple(expr: A.TupleExpr) -> Closure:
        items = tuple([compile_expr(e) for e in expr.items])

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            return VTuple(tuple([item(env) for item in items]))

        return ev

    def c_inject(cls):
        def compile_inject(expr) -> Closure:
            operand = compile_expr(expr.operand)

            def ev(env):
                nonlocal steps
                steps += 1
                if steps > limit:
                    out_of_fuel()
                return cls(operand(env))

            return ev

        return compile_inject

    def c_binop(expr: A.BinOp) -> Closure:
        op = expr.op
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        if op in ("&&", "||"):
            decisive = op == "||"  # the left value that is the answer alone

            def ev(env):
                nonlocal steps
                steps += 1
                if steps > limit:
                    out_of_fuel()
                if bool(left(env)) is decisive:
                    return decisive
                return bool(right(env))

            return ev
        fn = _BINARY_OPS.get(op)
        if fn is None:
            message = f"unknown operator {op!r}"

            def ev(env):
                nonlocal steps
                steps += 1
                if steps > limit:
                    out_of_fuel()
                left(env)
                right(env)
                raise EvalError(message)

            return ev
        if op in _GROWING_OPS and max_value_size is not None:

            def ev(env):
                nonlocal steps
                steps += 1
                if steps > limit:
                    out_of_fuel()
                a = left(env)
                b = right(env)
                if (
                    isinstance(a, int)
                    and isinstance(b, int)
                    and max(a.bit_length(), b.bit_length()) > INT_BIT_LIMIT
                ):
                    raise BudgetExceededError(
                        f"integer operand exceeds the {INT_BIT_LIMIT}-bit budget",
                        kind="value-size",
                        limit=INT_BIT_LIMIT,
                    )
                return fn(a, b)

            return ev

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            return fn(left(env), right(env))

        return ev

    def c_neg(expr: A.Neg) -> Closure:
        operand = compile_expr(expr.operand)
        fn = operator.neg if expr.op == "-" else operator.not_

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            return fn(operand(env))

        return ev

    def c_if(expr: A.If) -> Closure:
        cond = compile_expr(expr.cond)
        then_branch = compile_expr(expr.then_branch)
        else_branch = compile_expr(expr.else_branch)

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            c = cond(env)
            if c is True:
                return then_branch(env)
            if c is False:
                return else_branch(env)
            raise EvalError("if condition is not a boolean")

        return ev

    def c_let(expr: A.Let) -> Closure:
        name = expr.name
        bound, body = compile_expr(expr.bound), compile_expr(expr.body)

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            env[name] = bound(env)
            return body(env)

        return ev

    def c_share(expr: A.Share) -> Closure:
        name, name1, name2 = expr.name, expr.name1, expr.name2
        body = compile_expr(expr.body)

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            value = env[name]
            env[name1] = value
            env[name2] = value
            return body(env)

        return ev

    def c_match_list(expr: A.MatchList) -> Closure:
        scrutinee = compile_expr(expr.scrutinee)
        nil_branch = compile_expr(expr.nil_branch)
        cons_branch = compile_expr(expr.cons_branch)
        head_var, tail_var = expr.head_var, expr.tail_var

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            scrut = scrutinee(env)
            if not isinstance(scrut, VList):
                raise EvalError("match on a non-list")
            items = scrut.items
            if not items:
                return nil_branch(env)
            env[head_var] = items[0]
            env[tail_var] = VList(items[1:])
            return cons_branch(env)

        return ev

    def c_match_sum(expr: A.MatchSum) -> Closure:
        scrutinee = compile_expr(expr.scrutinee)
        left_branch = compile_expr(expr.left_branch)
        right_branch = compile_expr(expr.right_branch)
        left_var, right_var = expr.left_var, expr.right_var

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            scrut = scrutinee(env)
            if isinstance(scrut, VInl):
                env[left_var] = scrut.value
                return left_branch(env)
            if isinstance(scrut, VInr):
                env[right_var] = scrut.value
                return right_branch(env)
            raise EvalError("match on a non-sum value")

        return ev

    def c_match_tuple(expr: A.MatchTuple) -> Closure:
        scrutinee = compile_expr(expr.scrutinee)
        body = compile_expr(expr.body)
        names = tuple(expr.names)
        arity = len(names)

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            scrut = scrutinee(env)
            if not isinstance(scrut, VTuple) or len(scrut.items) != arity:
                raise EvalError("tuple match arity mismatch")
            for name, item in zip(names, scrut.items):
                env[name] = item
            return body(env)

        return ev

    def c_app(expr: A.App) -> Closure:
        fname = expr.fname
        args = tuple([compile_expr(arg) for arg in expr.args])
        if fname in program:
            return c_call(fname, tuple(program[fname].params), args)
        if fname in BUILTINS:
            impl = BUILTINS[fname].impl

            def ev(env):
                nonlocal steps
                steps += 1
                if steps > limit:
                    out_of_fuel()
                return impl(*[arg(env) for arg in args])

            return ev
        message = f"unknown function {fname!r}"

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            for arg in args:
                arg(env)
            raise EvalError(message)

        return ev

    def c_call(fname: str, params: Tuple[str, ...], args: Tuple[Closure, ...]) -> Closure:
        cap = _UNLIMITED if max_call_depth is None else max_call_depth

        def ev(env):
            nonlocal steps, depth
            steps += 1
            if steps > limit:
                out_of_fuel()
            frame = dict(zip(params, [arg(env) for arg in args]))
            depth += 1
            if depth > cap:
                raise BudgetExceededError(
                    f"call depth exceeds the {max_call_depth}-frame budget",
                    kind="call-depth",
                    limit=max_call_depth,
                )
            # an error ends the run and run_body resets the depth at the
            # start of the next, so only a return has to give it back
            value = bodies[fname](frame)
            depth -= 1
            return value

        return ev

    def c_stat(expr: A.Stat) -> Closure:
        body = compile_expr(expr.body)
        if not collect_stats:

            def ev(env):
                nonlocal steps
                steps += 1
                if steps > limit:
                    out_of_fuel()
                return body(env)

            return ev
        label = expr.label
        # the free variables are distinct names, so sorting the
        # (name, value) pairs of the record sorts by name alone
        free = tuple(sorted(A.free_vars(expr.body)))

        def ev(env):
            nonlocal steps
            steps += 1
            if steps > limit:
                out_of_fuel()
            before = cost
            value = body(env)
            restricted = tuple([(name, env[name]) for name in free if name in env])
            records.append(StatRecord(label, restricted, value, cost - before))
            return value

        return ev

    compilers = {
        A.Var: c_var,
        A.IntLit: lambda expr: constant(expr.value),
        A.BoolLit: lambda expr: constant(expr.value),
        A.UnitLit: lambda expr: constant(UNIT_VALUE),
        A.Nil: c_nil,
        A.Tick: c_tick,
        A.ErrorExpr: lambda expr: failing(f"program error: {expr.message}"),
        A.Cons: c_cons,
        A.TupleExpr: c_tuple,
        A.Inl: c_inject(VInl),
        A.Inr: c_inject(VInr),
        A.BinOp: c_binop,
        A.Neg: c_neg,
        A.If: c_if,
        A.Let: c_let,
        A.Share: c_share,
        A.MatchList: c_match_list,
        A.MatchSum: c_match_sum,
        A.MatchTuple: c_match_tuple,
        A.App: c_app,
        A.Stat: c_stat,
    }

    def compile_expr(expr) -> Closure:
        compiler = compilers.get(type(expr))
        if compiler is None:
            return failing(f"cannot evaluate node {type(expr).__name__}")
        return compiler(expr)

    for fdef in program:
        bodies[fdef.name] = compile_expr(fdef.body)

    def run_body(fname: str, frame: Dict[str, Value], max_steps: Optional[int]) -> EvalResult:
        nonlocal cost, records, depth, limit, fuel
        cost = 0.0
        records = []
        depth = 0
        fuel = max_steps
        limit = _UNLIMITED if max_steps is None else steps + max_steps
        value = bodies[fname](frame)
        return EvalResult(value, cost, records)

    def counters() -> Tuple[int, int]:
        return steps, ticks

    return run_body, counters


def evaluate(
    program: A.Program,
    fname: str,
    args: List[Value],
    collect_stats: bool = True,
) -> EvalResult:
    """Convenience wrapper: evaluate ``fname(args)`` on ``program``."""
    return Interpreter(program, collect_stats=collect_stats).run(fname, args)


def run_on_inputs(
    program: A.Program,
    fname: str,
    inputs: List[List[Value]],
    collect_stats: bool = True,
) -> List[EvalResult]:
    """Sweep through a list of argument vectors (data collection driver)."""
    interp = Interpreter(program, collect_stats=collect_stats)
    results = []
    for args in inputs:
        results.append(interp.run(fname, args))
    return results
