"""Share-let normalization (Section 3.1 of the paper).

The resource type system operates on programs in *share-let normal form*:

1. every binder is unique (alpha-renaming),
2. constructors, destructors, conditionals, operators and function
   arguments are applied to **variables** (A-normal form), and
3. every variable is used **at most once**; duplicated uses go through
   explicit ``share x as x1, x2 in e`` nodes so that the potential stored
   in ``x`` is split, never double-counted.

Branches of ``if``/``match`` are alternatives, so a variable free in
several branches counts as a single use; uses in *sequential* positions
(e.g. the bound expression and the body of a ``let``) require ``share``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import ast as A
from .builtins import is_builtin
from ..errors import ReproError


class _Fresh:
    def __init__(self) -> None:
        self.counter = 0

    def var(self, hint: str = "v") -> str:
        self.counter += 1
        base = hint.split("%")[0].split("$")[-1] or "v"
        return f"${base}%{self.counter}"


# ---------------------------------------------------------------------------
# Pass 1: alpha-rename all binders to unique names
# ---------------------------------------------------------------------------


def _uniquify(expr: A.Expr, env: Dict[str, str], fresh: _Fresh) -> A.Expr:
    if isinstance(expr, A.Var):
        name = env.get(expr.name, expr.name)
        return A.Var(name, pos=expr.pos)
    if isinstance(expr, A.Let):
        bound = _uniquify(expr.bound, env, fresh)
        new = fresh.var(expr.name)
        body = _uniquify(expr.body, {**env, expr.name: new}, fresh)
        return A.Let(new, bound, body, pos=expr.pos)
    if isinstance(expr, A.Share):
        n1 = fresh.var(expr.name1)
        n2 = fresh.var(expr.name2)
        body = _uniquify(expr.body, {**env, expr.name1: n1, expr.name2: n2}, fresh)
        return A.Share(env.get(expr.name, expr.name), n1, n2, body, pos=expr.pos)
    if isinstance(expr, A.MatchList):
        scrut = _uniquify(expr.scrutinee, env, fresh)
        nil_branch = _uniquify(expr.nil_branch, env, fresh)
        h = fresh.var(expr.head_var)
        t = fresh.var(expr.tail_var)
        cons_env = {**env, expr.head_var: h, expr.tail_var: t}
        cons_branch = _uniquify(expr.cons_branch, cons_env, fresh)
        return A.MatchList(scrut, nil_branch, h, t, cons_branch, pos=expr.pos)
    if isinstance(expr, A.MatchSum):
        scrut = _uniquify(expr.scrutinee, env, fresh)
        lv = fresh.var(expr.left_var)
        rv = fresh.var(expr.right_var)
        left = _uniquify(expr.left_branch, {**env, expr.left_var: lv}, fresh)
        right = _uniquify(expr.right_branch, {**env, expr.right_var: rv}, fresh)
        return A.MatchSum(scrut, lv, left, rv, right, pos=expr.pos)
    if isinstance(expr, A.MatchTuple):
        scrut = _uniquify(expr.scrutinee, env, fresh)
        names = tuple(fresh.var(n) for n in expr.names)
        body_env = dict(env)
        body_env.update({old: new for old, new in zip(expr.names, names)})
        body = _uniquify(expr.body, body_env, fresh)
        return A.MatchTuple(scrut, names, body, pos=expr.pos)
    # structural cases
    return _map_children(expr, lambda child: _uniquify(child, env, fresh))


def _map_children(expr: A.Expr, f) -> A.Expr:
    if isinstance(expr, A.BinOp):
        return A.BinOp(expr.op, f(expr.left), f(expr.right), pos=expr.pos)
    if isinstance(expr, A.Neg):
        return A.Neg(expr.op, f(expr.operand), pos=expr.pos)
    if isinstance(expr, A.Inl):
        return A.Inl(f(expr.operand), pos=expr.pos)
    if isinstance(expr, A.Inr):
        return A.Inr(f(expr.operand), pos=expr.pos)
    if isinstance(expr, A.TupleExpr):
        return A.TupleExpr(tuple(f(e) for e in expr.items), pos=expr.pos)
    if isinstance(expr, A.Cons):
        return A.Cons(f(expr.head), f(expr.tail), pos=expr.pos)
    if isinstance(expr, A.If):
        return A.If(f(expr.cond), f(expr.then_branch), f(expr.else_branch), pos=expr.pos)
    if isinstance(expr, A.App):
        return A.App(expr.fname, tuple(f(e) for e in expr.args), pos=expr.pos)
    if isinstance(expr, A.Stat):
        return A.Stat(expr.label, f(expr.body), pos=expr.pos)
    if isinstance(expr, (A.Nil, A.UnitLit, A.IntLit, A.BoolLit, A.Tick, A.ErrorExpr)):
        return expr
    raise ReproError(f"unexpected node {type(expr).__name__} in normalization")


# ---------------------------------------------------------------------------
# Pass 2: A-normal form
# ---------------------------------------------------------------------------


def _anf(expr: A.Expr, fresh: _Fresh) -> A.Expr:
    """A-normalize: operands of constructors/destructors/calls become vars."""

    def atomize(sub: A.Expr, binders: List[Tuple[str, A.Expr]], hint: str) -> A.Expr:
        sub = _anf(sub, fresh)
        if isinstance(sub, A.Var):
            return sub
        name = fresh.var(hint)
        binders.append((name, sub))
        return A.Var(name, pos=sub.pos)

    def wrap(binders: List[Tuple[str, A.Expr]], body: A.Expr) -> A.Expr:
        for name, bound in reversed(binders):
            body = A.Let(name, bound, body, pos=body.pos)
        return body

    if isinstance(expr, (A.Var, A.UnitLit, A.IntLit, A.BoolLit, A.Nil, A.Tick, A.ErrorExpr)):
        return expr
    if isinstance(expr, A.Let):
        return A.Let(expr.name, _anf(expr.bound, fresh), _anf(expr.body, fresh), pos=expr.pos)
    if isinstance(expr, A.Share):
        return A.Share(expr.name, expr.name1, expr.name2, _anf(expr.body, fresh), pos=expr.pos)
    if isinstance(expr, A.Cons):
        binders: List[Tuple[str, A.Expr]] = []
        head = atomize(expr.head, binders, "hd")
        tail = atomize(expr.tail, binders, "tl")
        return wrap(binders, A.Cons(head, tail, pos=expr.pos))
    if isinstance(expr, A.TupleExpr):
        binders = []
        items = tuple(atomize(e, binders, "x") for e in expr.items)
        return wrap(binders, A.TupleExpr(items, pos=expr.pos))
    if isinstance(expr, (A.Inl, A.Inr)):
        binders = []
        operand = atomize(expr.operand, binders, "x")
        cls = A.Inl if isinstance(expr, A.Inl) else A.Inr
        return wrap(binders, cls(operand, pos=expr.pos))
    if isinstance(expr, A.App):
        binders = []
        args = tuple(atomize(e, binders, "a") for e in expr.args)
        return wrap(binders, A.App(expr.fname, args, pos=expr.pos))
    if isinstance(expr, A.BinOp):
        binders = []
        left = atomize(expr.left, binders, "o")
        right = atomize(expr.right, binders, "o")
        return wrap(binders, A.BinOp(expr.op, left, right, pos=expr.pos))
    if isinstance(expr, A.Neg):
        binders = []
        operand = atomize(expr.operand, binders, "o")
        return wrap(binders, A.Neg(expr.op, operand, pos=expr.pos))
    if isinstance(expr, A.If):
        binders = []
        cond = atomize(expr.cond, binders, "c")
        return wrap(
            binders,
            A.If(cond, _anf(expr.then_branch, fresh), _anf(expr.else_branch, fresh), pos=expr.pos),
        )
    if isinstance(expr, A.MatchList):
        binders = []
        scrut = atomize(expr.scrutinee, binders, "s")
        return wrap(
            binders,
            A.MatchList(
                scrut,
                _anf(expr.nil_branch, fresh),
                expr.head_var,
                expr.tail_var,
                _anf(expr.cons_branch, fresh),
                pos=expr.pos,
            ),
        )
    if isinstance(expr, A.MatchSum):
        binders = []
        scrut = atomize(expr.scrutinee, binders, "s")
        return wrap(
            binders,
            A.MatchSum(
                scrut,
                expr.left_var,
                _anf(expr.left_branch, fresh),
                expr.right_var,
                _anf(expr.right_branch, fresh),
                pos=expr.pos,
            ),
        )
    if isinstance(expr, A.MatchTuple):
        binders = []
        scrut = atomize(expr.scrutinee, binders, "s")
        return wrap(binders, A.MatchTuple(scrut, expr.names, _anf(expr.body, fresh), pos=expr.pos))
    if isinstance(expr, A.Stat):
        return A.Stat(expr.label, _anf(expr.body, fresh), pos=expr.pos)
    raise ReproError(f"unexpected node {type(expr).__name__} in ANF")


# ---------------------------------------------------------------------------
# Pass 3: affine variables via explicit share
# ---------------------------------------------------------------------------


def _substitute(expr: A.Expr, mapping: Dict[str, str]) -> A.Expr:
    """Capture-free renaming of free variables (binders already unique)."""
    if not mapping:
        return expr
    if isinstance(expr, A.Var):
        return A.Var(mapping.get(expr.name, expr.name), pos=expr.pos)
    if isinstance(expr, A.Let):
        return A.Let(expr.name, _substitute(expr.bound, mapping), _substitute(expr.body, mapping), pos=expr.pos)
    if isinstance(expr, A.Share):
        return A.Share(
            mapping.get(expr.name, expr.name),
            expr.name1,
            expr.name2,
            _substitute(expr.body, mapping),
            pos=expr.pos,
        )
    if isinstance(expr, A.MatchList):
        return A.MatchList(
            _substitute(expr.scrutinee, mapping),
            _substitute(expr.nil_branch, mapping),
            expr.head_var,
            expr.tail_var,
            _substitute(expr.cons_branch, mapping),
            pos=expr.pos,
        )
    if isinstance(expr, A.MatchSum):
        return A.MatchSum(
            _substitute(expr.scrutinee, mapping),
            expr.left_var,
            _substitute(expr.left_branch, mapping),
            expr.right_var,
            _substitute(expr.right_branch, mapping),
            pos=expr.pos,
        )
    if isinstance(expr, A.MatchTuple):
        return A.MatchTuple(_substitute(expr.scrutinee, mapping), expr.names, _substitute(expr.body, mapping), pos=expr.pos)
    return _map_children(expr, lambda child: _substitute(child, mapping))


def _sequential_parts(expr: A.Expr):
    """Sequential sub-expression groups of a node.

    Returns (groups, rebuild) where ``groups`` is a list of *parallel
    groups*: within one group the sub-expressions are alternatives (only
    one runs), across groups they run sequentially.  ``rebuild`` takes the
    flattened list of rewritten sub-expressions in order.
    """
    if isinstance(expr, A.Let):
        return (
            [[expr.bound], [expr.body]],
            lambda parts: A.Let(expr.name, parts[0], parts[1], pos=expr.pos),
        )
    if isinstance(expr, A.Cons):
        return (
            [[expr.head], [expr.tail]],
            lambda parts: A.Cons(parts[0], parts[1], pos=expr.pos),
        )
    if isinstance(expr, A.TupleExpr):
        return (
            [[e] for e in expr.items],
            lambda parts: A.TupleExpr(tuple(parts), pos=expr.pos),
        )
    if isinstance(expr, A.BinOp):
        return (
            [[expr.left], [expr.right]],
            lambda parts: A.BinOp(expr.op, parts[0], parts[1], pos=expr.pos),
        )
    if isinstance(expr, A.Neg):
        return ([[expr.operand]], lambda parts: A.Neg(expr.op, parts[0], pos=expr.pos))
    if isinstance(expr, (A.Inl, A.Inr)):
        cls = A.Inl if isinstance(expr, A.Inl) else A.Inr
        return ([[expr.operand]], lambda parts: cls(parts[0], pos=expr.pos))
    if isinstance(expr, A.App):
        return (
            [[e] for e in expr.args],
            lambda parts: A.App(expr.fname, tuple(parts), pos=expr.pos),
        )
    if isinstance(expr, A.If):
        return (
            [[expr.cond], [expr.then_branch, expr.else_branch]],
            lambda parts: A.If(parts[0], parts[1], parts[2], pos=expr.pos),
        )
    if isinstance(expr, A.MatchList):
        return (
            [[expr.scrutinee], [expr.nil_branch, expr.cons_branch]],
            lambda parts: A.MatchList(parts[0], parts[1], expr.head_var, expr.tail_var, parts[2], pos=expr.pos),
        )
    if isinstance(expr, A.MatchSum):
        return (
            [[expr.scrutinee], [expr.left_branch, expr.right_branch]],
            lambda parts: A.MatchSum(parts[0], expr.left_var, parts[1], expr.right_var, parts[2], pos=expr.pos),
        )
    if isinstance(expr, A.MatchTuple):
        return (
            [[expr.scrutinee], [expr.body]],
            lambda parts: A.MatchTuple(parts[0], expr.names, parts[1], pos=expr.pos),
        )
    if isinstance(expr, A.Stat):
        return ([[expr.body]], lambda parts: A.Stat(expr.label, parts[0], pos=expr.pos))
    if isinstance(expr, A.Share):
        return (
            [[expr.body]],
            lambda parts: A.Share(expr.name, expr.name1, expr.name2, parts[0], pos=expr.pos),
        )
    return None


def _share(expr: A.Expr, fresh: _Fresh) -> A.Expr:
    """Insert ``share`` nodes so every variable is used at most once."""
    parts_info = _sequential_parts(expr)
    if parts_info is None:
        return expr
    groups, rebuild = parts_info

    # which variables does each sequential group use (free vars)?
    group_vars = []
    for group in groups:
        used: set = set()
        for sub in group:
            used |= A.free_vars(sub)
        group_vars.append(used)

    # find variables used by more than one sequential group
    shares: List[Tuple[str, List[int]]] = []
    seen: Dict[str, List[int]] = {}
    for gi, used in enumerate(group_vars):
        for var in used:
            seen.setdefault(var, []).append(gi)
    for var, gis in seen.items():
        if len(gis) > 1:
            shares.append((var, gis))

    new_groups = [list(group) for group in groups]
    share_chain: List[Tuple[str, str, str]] = []
    for var, gis in sorted(shares):
        # split var into len(gis) copies with a chain of binary shares
        current = var
        names: List[str] = []
        for k in range(len(gis) - 1):
            n1 = fresh.var(var)
            n2 = fresh.var(var)
            share_chain.append((current, n1, n2))
            names.append(n1)
            current = n2
        names.append(current)
        for name, gi in zip(names, gis):
            new_groups[gi] = [
                _substitute(sub, {var: name}) for sub in new_groups[gi]
            ]

    flat = []
    for group in new_groups:
        for sub in group:
            flat.append(_share(sub, fresh))
    result = rebuild(flat)
    for src, n1, n2 in reversed(share_chain):
        result = A.Share(src, n1, n2, result, pos=expr.pos)
    return result


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


#: public alias for the lint passes (repro.analysis) — the grouping of a
#: node's sub-expressions into sequential/parallel groups is exactly the
#: structure both ``_share`` and the affine-usage lint reason about
sequential_parts = _sequential_parts


def _maybe_verify(expr: A.Expr, stage: str, context: str) -> None:
    """Run the between-stage IR verifier when REPRO_VERIFY_IR is set.

    Imported lazily: ``repro.analysis`` sits above ``repro.lang`` in the
    layering, so the dependency must not exist at import time.
    """
    import os

    if os.environ.get("REPRO_VERIFY_IR", "") in ("", "0"):
        return
    from ..analysis.verify_ir import check_expr

    check_expr(expr, stage, context=context)


def normalize_expr(expr: A.Expr, fresh: _Fresh | None = None, context: str = "") -> A.Expr:
    fresh = fresh or _Fresh()
    expr = _uniquify(expr, {}, fresh)
    _maybe_verify(expr, "uniquify", context)
    expr = _anf(expr, fresh)
    _maybe_verify(expr, "anf", context)
    expr = _share(expr, fresh)
    _maybe_verify(expr, "share", context)
    return expr


def normalize_program(program: A.Program) -> A.Program:
    """Convert every function body to share-let normal form."""
    fresh = _Fresh()
    functions = []
    for fdef in program:
        # keep parameter names; they are unique per function by construction
        seen = set()
        for p in fdef.params:
            if p in seen:
                raise ReproError(f"duplicate parameter {p!r} in {fdef.name}")
            seen.add(p)
        body = normalize_expr(fdef.body, fresh, context=fdef.name)
        functions.append(
            A.FunDef(
                fdef.name,
                fdef.params,
                body,
                recursive=fdef.recursive,
                pos=fdef.pos,
                name_pos=fdef.name_pos,
                param_pos=fdef.param_pos,
            )
        )
    for fdef in functions:
        _check_normal_form(fdef.body)
    return A.Program(functions)


def _check_normal_form(expr: A.Expr) -> None:
    """Internal invariant check: affine variables + atomic operands."""
    for var, k in use_counts(expr).items():
        if k > 1:
            raise ReproError(f"normal-form violation: {var!r} used {k} times")

    for node in expr.walk():
        for atomic in atomic_operands(node):
            if not isinstance(atomic, A.Var):
                raise ReproError(
                    f"normal-form violation: non-variable operand {type(atomic).__name__}"
                )


def use_counts(expr: A.Expr) -> Dict[str, int]:
    """How many times each variable is consumed in ``expr``: a ``share``
    consumes its source once, sequential parts add up, and alternatives
    (branches) count as their maximum."""
    counts: Dict[str, int] = {}

    def count_uses(e: A.Expr, mult: Dict[str, int]) -> None:
        if isinstance(e, A.Var):
            mult[e.name] = mult.get(e.name, 0) + 1
            return
        if isinstance(e, A.Share):
            mult[e.name] = mult.get(e.name, 0) + 1
            count_uses(e.body, mult)
            return
        parts_info = _sequential_parts(e)
        if parts_info is None:
            return
        groups, _rebuild = parts_info
        for group in groups:
            branch_maxima: Dict[str, int] = {}
            for sub in group:
                local: Dict[str, int] = {}
                count_uses(sub, local)
                for var, k in local.items():
                    branch_maxima[var] = max(branch_maxima.get(var, 0), k)
            for var, k in branch_maxima.items():
                mult[var] = mult.get(var, 0) + k

    count_uses(expr, counts)
    return counts


def atomic_operands(node: A.Expr) -> List[A.Expr]:
    """The operands A-normal form requires to be variables in ``node``."""
    if isinstance(node, A.Cons):
        return [node.head, node.tail]
    if isinstance(node, A.TupleExpr):
        return list(node.items)
    if isinstance(node, (A.Inl, A.Inr)):
        return [node.operand]
    if isinstance(node, A.App):
        return list(node.args)
    if isinstance(node, A.BinOp):
        return [node.left, node.right]
    if isinstance(node, A.Neg):
        return [node.operand]
    if isinstance(node, A.If):
        return [node.cond]
    if isinstance(node, (A.MatchList, A.MatchSum, A.MatchTuple)):
        return [node.scrutinee]
    return []
