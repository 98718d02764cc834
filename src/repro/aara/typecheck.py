"""AARA constraint generation (the typing rules of Listings 3–5 + Eq. 6.2).

The generator walks share-let-normalized, simply-typed expressions and
emits linear constraints over symbolic resource coefficients.  The design
threads the constant potential through each judgment as a single
:class:`LinExpr`, introducing fresh LP variables only at join points
(branch merges) and at judgment boundaries (function signatures and stat
sites), which keeps the LPs — and hence the Hybrid-BayesPC polytopes —
small.  Discarding potential (structural rules U:Weak/U:Sub/U:Relax) is
woven into the syntax-directed rules via :func:`~repro.aara.annot.waive`,
which is always sound for the monotone resource metrics this reproduction
targets (Section 3.2 of the paper makes the same restriction).

``stat`` subexpressions are delegated to a pluggable *stat handler*; the
Hybrid AARA rules H:Opt / H:BayesWC / H:BayesPC (Section 6) are
implemented as handlers in :mod:`repro.inference.hybrid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .annot import (
    AList,
    AnnType,
    make_template,
    sharing,
    shift,
    superpose,
    waive,
    zero_annotation,
)
from .signatures import FunSignature, call_structure
from ..errors import StaticAnalysisError, UnanalyzableError
from ..lang import ast as A
from ..lang.builtins import BUILTINS, is_builtin
from ..lp import LPProblem, LinExpr

#: maximum number of function-body derivations per analysis, to guard
#: against pathological call-graph blowup of per-site instantiation
MAX_DERIVATIONS = 4000


@dataclass
class StatSite:
    """Everything a stat handler needs to emit its typing judgment."""

    label: str
    node: A.Stat
    ctx: Dict[str, AnnType]  # annotations of the free variables of the body
    p_in: LinExpr  # constant potential available at the site
    result_type: A.Type
    costful: bool
    lp: LPProblem
    degree: int


StatHandler = Callable[[StatSite], Tuple[AnnType, LinExpr]]


@dataclass
class DerivationEnv:
    """State of one SCC-instantiation derivation."""

    scc: frozenset
    sigs: Dict[Tuple[str, int], FunSignature]
    level: int
    costful: bool


@dataclass
class GenStats:
    derivations: int = 0
    stat_sites: int = 0
    instantiations: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Derived:
    """One derivation of a ``(callee, costful)`` pair, kept for copying:
    the LP stretch it added, its signature, and the counts it added."""

    start: Tuple[int, int, int]
    stop: Tuple[int, int, int]
    signature: FunSignature
    derivations: int
    instantiations: Dict[str, int]


class ConstraintGenerator:
    """Generates the AARA linear program for one analyzed program."""

    def __init__(
        self,
        program: A.Program,
        degree: int,
        lp: Optional[LPProblem] = None,
        stat_handler: Optional[StatHandler] = None,
        stat_mode: str = "handler",
        cf_levels: Optional[int] = None,
        max_derivations: int = MAX_DERIVATIONS,
    ):
        if stat_mode not in ("handler", "transparent"):
            raise StaticAnalysisError(f"unknown stat mode {stat_mode!r}")
        if stat_mode == "handler" and stat_handler is None and program.has_stat():
            raise StaticAnalysisError("program has stat sites but no handler given")
        self.program = program
        self.degree = degree
        self.lp = lp if lp is not None else LPProblem("aara")
        self.stat_handler = stat_handler
        self.stat_mode = stat_mode
        structure = call_structure(program)
        self.sccs = structure.sccs
        self.recursive = structure.recursive
        self.cf_levels = degree if cf_levels is None else cf_levels
        self.max_derivations = max_derivations
        self.stats = GenStats()
        #: (callee, costful) -> its first derivation in this LP
        self._derived: Dict[Tuple[str, bool], _Derived] = {}

    # ------------------------------------------------------------------
    # SCC instantiation
    # ------------------------------------------------------------------

    def instantiate(self, fname: str, costful: bool = True) -> FunSignature:
        """Fresh derivation of ``fname``'s SCC; returns its level-0 signature.

        A derivation depends on ``(fname, costful)`` alone, so after the
        first one each later call site gets a renamed copy of the first
        one's variables and constraints (RaML's per-site instantiation,
        without re-walking the bodies).  The copy is exactly what a second
        derivation would add: same fresh numbering, order, notes and
        :class:`GenStats`.  A derivation that ran a stat handler (whose
        side effects a copy would miss) is always derived again, and so
        is one whose copy would cross a budget, so the budget trips
        where and as it did before.
        """
        if fname not in self.program:
            raise StaticAnalysisError(f"unknown function {fname!r}")
        key = (fname, costful)
        known = self._derived.get(key)
        sig = self._copy(known) if known is not None else None
        if sig is None:
            start = self.lp.mark()
            derivations, stat_sites = self.stats.derivations, self.stats.stat_sites
            before = dict(self.stats.instantiations)
            sig = self._derive(fname, costful)
            if known is None and self.stats.stat_sites == stat_sites:
                self._derived[key] = _Derived(
                    start,
                    self.lp.mark(),
                    sig,
                    self.stats.derivations - derivations,
                    {
                        name: count - before.get(name, 0)
                        for name, count in self.stats.instantiations.items()
                        if count != before.get(name, 0)
                    },
                )
        self.stats.instantiations[fname] = self.stats.instantiations.get(fname, 0) + 1
        return sig

    def _copy(self, known: _Derived) -> Optional[FunSignature]:
        """A renamed copy of ``known``'s derivation, or ``None`` (nothing
        added) when it cannot stand in for a fresh one."""
        if self.stats.derivations + known.derivations > self.max_derivations:
            return None
        renamed = self.lp.copy_span(known.start, known.stop)
        if renamed is None:
            return None
        self.stats.derivations += known.derivations
        for name, count in known.instantiations.items():
            self.stats.instantiations[name] += count
        sig = known.signature

        def rename(coeff: LinExpr) -> LinExpr:
            return coeff.renamed(renamed)

        return FunSignature(
            sig.fname,
            tuple(param.map_coeffs(rename) for param in sig.params),
            rename(sig.p0),
            sig.result.map_coeffs(rename),
            rename(sig.q0),
            sig.level,
        )

    def _derive(self, fname: str, costful: bool) -> FunSignature:
        recursive = fname in self.recursive
        members = self.sccs[fname] if recursive else frozenset([fname])
        n_levels = self.cf_levels if recursive else 0
        sigs: Dict[Tuple[str, int], FunSignature] = {}
        for level in range(n_levels + 1):
            for member in sorted(members):
                sigs[(member, level)] = self._fresh_signature(member, level)
        for level in range(n_levels + 1):
            level_costful = costful and level == 0
            env = DerivationEnv(scc=members if recursive else frozenset(), sigs=sigs, level=level, costful=level_costful)
            for member in sorted(members):
                self._derive_body(member, sigs[(member, level)], env)
        return sigs[(fname, 0)]

    def _fresh_signature(self, fname: str, level: int) -> FunSignature:
        fdef = self.program[fname]
        assert fdef.fun_type is not None, "program must be type-checked"
        params = tuple(
            make_template(ty, self.degree, self.lp, hint=f"{fname}.arg")
            for ty in fdef.fun_type.params
        )
        result = make_template(fdef.fun_type.result, self.degree, self.lp, hint=f"{fname}.res")
        p0 = self.lp.fresh(f"{fname}.p0")
        q0 = self.lp.fresh(f"{fname}.q0")
        return FunSignature(fname, params, p0, result, q0, level)

    def _derive_body(self, fname: str, sig: FunSignature, env: DerivationEnv) -> None:
        self.stats.derivations += 1
        if self.stats.derivations > self.max_derivations:
            raise StaticAnalysisError(
                "derivation budget exceeded (call graph too deep for "
                "per-site resource polymorphism)"
            )
        fdef = self.program[fname]
        ctx = dict(zip(fdef.params, sig.params))
        result_ann, p_out = self.gen(fdef.body, ctx, sig.p0, env)
        waive(result_ann, sig.result, self.lp, note=f"{fname} result")
        self.lp.add_ge(p_out, sig.q0, note=f"{fname} leftover")

    # ------------------------------------------------------------------
    # Expression rules
    # ------------------------------------------------------------------

    def gen(
        self,
        expr: A.Expr,
        ctx: Dict[str, AnnType],
        p_in: LinExpr,
        env: DerivationEnv,
    ) -> Tuple[AnnType, LinExpr]:
        if isinstance(expr, A.Var):
            if expr.name not in ctx:
                raise StaticAnalysisError(f"variable {expr.name!r} missing from context")
            return ctx[expr.name], p_in
        if isinstance(expr, (A.IntLit, A.BoolLit, A.UnitLit)):
            return zero_annotation(expr.type, self.degree), p_in
        if isinstance(expr, A.Nil):
            # U:Nil — the empty list may carry any annotation for free
            return make_template(expr.type, self.degree, self.lp, hint="nil"), p_in
        if isinstance(expr, A.Tick):
            amount = expr.amount if env.costful else 0.0
            return zero_annotation(A.UNIT, self.degree), p_in - amount
        if isinstance(expr, A.ErrorExpr):
            # evaluation aborts: the judgment is vacuous on this path
            return make_template(expr.type, self.degree, self.lp, hint="err"), p_in
        if isinstance(expr, A.BinOp):
            # operands are potential-free ints/bools in normal form
            return zero_annotation(expr.type, self.degree), p_in
        if isinstance(expr, A.Neg):
            return zero_annotation(expr.type, self.degree), p_in
        if isinstance(expr, A.Cons):
            return self._gen_cons(expr, ctx, p_in)
        if isinstance(expr, A.TupleExpr):
            items = tuple(self._lookup(ctx, item) for item in expr.items)
            from .annot import AProd

            return AProd(items), p_in
        if isinstance(expr, A.Inl):
            return self._gen_inject(expr, ctx, p_in, left=True)
        if isinstance(expr, A.Inr):
            return self._gen_inject(expr, ctx, p_in, left=False)
        if isinstance(expr, A.Let):
            bound_ann, p_mid = self.gen(expr.bound, ctx, p_in, env)
            body_ctx = dict(ctx)
            body_ctx[expr.name] = bound_ann
            return self.gen(expr.body, body_ctx, p_mid, env)
        if isinstance(expr, A.Share):
            ann = ctx.get(expr.name)
            if ann is None:
                raise StaticAnalysisError(f"share of unbound variable {expr.name!r}")
            a1, a2 = sharing(ann, self.lp)
            body_ctx = dict(ctx)
            del body_ctx[expr.name]
            body_ctx[expr.name1] = a1
            body_ctx[expr.name2] = a2
            return self.gen(expr.body, body_ctx, p_in, env)
        if isinstance(expr, A.If):
            then_res = self.gen(expr.then_branch, ctx, p_in, env)
            else_res = self.gen(expr.else_branch, ctx, p_in, env)
            return self._merge(expr, [then_res, else_res])
        if isinstance(expr, A.MatchList):
            return self._gen_match_list(expr, ctx, p_in, env)
        if isinstance(expr, A.MatchSum):
            return self._gen_match_sum(expr, ctx, p_in, env)
        if isinstance(expr, A.MatchTuple):
            return self._gen_match_tuple(expr, ctx, p_in, env)
        if isinstance(expr, A.App):
            return self._gen_app(expr, ctx, p_in, env)
        if isinstance(expr, A.Stat):
            return self._gen_stat(expr, ctx, p_in, env)
        raise StaticAnalysisError(f"cannot analyze node {type(expr).__name__}")

    # -- helpers -------------------------------------------------------------

    def _lookup(self, ctx: Dict[str, AnnType], expr: A.Expr) -> AnnType:
        if not isinstance(expr, A.Var):
            raise StaticAnalysisError("operand is not a variable (not in normal form)")
        if expr.name not in ctx:
            raise StaticAnalysisError(f"variable {expr.name!r} missing from context")
        return ctx[expr.name]

    def _merge(
        self, expr: A.Expr, branches: List[Tuple[AnnType, LinExpr]]
    ) -> Tuple[AnnType, LinExpr]:
        """Join alternative branches: fresh result dominated by each branch."""
        result = make_template(expr.type, self.degree, self.lp, hint="join")
        p_out = self.lp.fresh("join.p")
        for ann, p_branch in branches:
            waive(ann, result, self.lp, note="branch join")
            self.lp.add_ge(p_branch, p_out, note="branch join potential")
        return result, p_out

    def _gen_cons(
        self, expr: A.Cons, ctx: Dict[str, AnnType], p_in: LinExpr
    ) -> Tuple[AnnType, LinExpr]:
        head_ann = self._lookup(ctx, expr.head)
        tail_ann = self._lookup(ctx, expr.tail)
        if not isinstance(tail_ann, AList):
            raise StaticAnalysisError("cons onto non-list annotation")
        assert isinstance(expr.type, A.TList)
        result = make_template(expr.type, self.degree, self.lp, hint="cons")
        assert isinstance(result, AList)
        # tail must cover the shifted result annotation; head covers elem
        shifted = shift(result.coeffs)
        for have, need in zip(tail_ann.coeffs, shifted):
            self.lp.add_ge(have, need, note="U:Cons shift")
        waive(tail_ann.elem, result.elem, self.lp, note="U:Cons elem")
        waive(head_ann, result.elem, self.lp, note="U:Cons head")
        # the first coefficient of the new list is paid from the constant
        q1 = result.coeffs[0] if result.coeffs else LinExpr()
        return result, p_in - q1

    def _gen_inject(
        self, expr: A.Expr, ctx: Dict[str, AnnType], p_in: LinExpr, left: bool
    ) -> Tuple[AnnType, LinExpr]:
        from .annot import ASum

        operand_ann = self._lookup(ctx, expr.operand)
        result = make_template(expr.type, self.degree, self.lp, hint="sum")
        assert isinstance(result, ASum)
        if left:
            waive(operand_ann, result.left, self.lp, note="U:SumL")
            paid = result.left_const
        else:
            waive(operand_ann, result.right, self.lp, note="U:SumR")
            paid = result.right_const
        return result, p_in - paid

    def _gen_match_list(
        self, expr: A.MatchList, ctx: Dict[str, AnnType], p_in: LinExpr, env: DerivationEnv
    ) -> Tuple[AnnType, LinExpr]:
        scrut_ann = self._lookup(ctx, expr.scrutinee)
        if not isinstance(scrut_ann, AList):
            raise StaticAnalysisError("list match on non-list annotation")
        nil_ctx = dict(ctx)
        del nil_ctx[expr.scrutinee.name]
        nil_res = self.gen(expr.nil_branch, nil_ctx, p_in, env)
        cons_ctx = dict(nil_ctx)
        cons_ctx[expr.head_var] = scrut_ann.elem
        cons_ctx[expr.tail_var] = AList(shift(scrut_ann.coeffs), scrut_ann.elem)
        q1 = scrut_ann.coeffs[0] if scrut_ann.coeffs else LinExpr()
        cons_res = self.gen(expr.cons_branch, cons_ctx, p_in + q1, env)
        return self._merge(expr, [nil_res, cons_res])

    def _gen_match_sum(
        self, expr: A.MatchSum, ctx: Dict[str, AnnType], p_in: LinExpr, env: DerivationEnv
    ) -> Tuple[AnnType, LinExpr]:
        from .annot import ASum

        scrut_ann = self._lookup(ctx, expr.scrutinee)
        if not isinstance(scrut_ann, ASum):
            raise StaticAnalysisError("sum match on non-sum annotation")
        base_ctx = dict(ctx)
        del base_ctx[expr.scrutinee.name]
        left_ctx = dict(base_ctx)
        left_ctx[expr.left_var] = scrut_ann.left
        left_res = self.gen(expr.left_branch, left_ctx, p_in + scrut_ann.left_const, env)
        right_ctx = dict(base_ctx)
        right_ctx[expr.right_var] = scrut_ann.right
        right_res = self.gen(expr.right_branch, right_ctx, p_in + scrut_ann.right_const, env)
        return self._merge(expr, [left_res, right_res])

    def _gen_match_tuple(
        self, expr: A.MatchTuple, ctx: Dict[str, AnnType], p_in: LinExpr, env: DerivationEnv
    ) -> Tuple[AnnType, LinExpr]:
        from .annot import AProd

        scrut_ann = self._lookup(ctx, expr.scrutinee)
        if not isinstance(scrut_ann, AProd) or len(scrut_ann.items) != len(expr.names):
            raise StaticAnalysisError("tuple match arity mismatch in annotation")
        body_ctx = dict(ctx)
        del body_ctx[expr.scrutinee.name]
        for name, item_ann in zip(expr.names, scrut_ann.items):
            body_ctx[name] = item_ann
        return self.gen(expr.body, body_ctx, p_in, env)

    # -- applications ---------------------------------------------------------

    def _gen_app(
        self, expr: A.App, ctx: Dict[str, AnnType], p_in: LinExpr, env: DerivationEnv
    ) -> Tuple[AnnType, LinExpr]:
        if is_builtin(expr.fname):
            spec = BUILTINS[expr.fname]
            if not spec.analyzable:
                raise UnanalyzableError(
                    f"builtin {expr.fname!r} is opaque to static analysis "
                    "(mark the surrounding code with Raml.stat for data-driven analysis)"
                )
            return zero_annotation(expr.type, self.degree), p_in

        if expr.fname in env.scc:
            sig = self._recursive_signature(expr.fname, env)
        else:
            sig = self.instantiate(expr.fname, costful=env.costful)

        if len(sig.params) != len(expr.args):
            raise StaticAnalysisError(f"arity mismatch calling {expr.fname}")
        for arg, param_ann in zip(expr.args, sig.params):
            waive(self._lookup(ctx, arg), param_ann, self.lp, note=f"call {expr.fname}")
        p_out = p_in - sig.p0 + sig.q0
        return sig.result, p_out

    def _recursive_signature(self, fname: str, env: DerivationEnv) -> FunSignature:
        """Signature for a recursive call: level ℓ superposed with level ℓ+1."""
        base = env.sigs[(fname, env.level)]
        nxt = env.sigs.get((fname, env.level + 1))
        if nxt is None:
            return base
        params = tuple(superpose(a, b) for a, b in zip(base.params, nxt.params))
        return FunSignature(
            fname,
            params,
            base.p0 + nxt.p0,
            superpose(base.result, nxt.result),
            base.q0 + nxt.q0,
            env.level,
        )

    # -- stat sites -------------------------------------------------------------

    def _gen_stat(
        self, expr: A.Stat, ctx: Dict[str, AnnType], p_in: LinExpr, env: DerivationEnv
    ) -> Tuple[AnnType, LinExpr]:
        if self.stat_mode == "transparent":
            return self.gen(expr.body, ctx, p_in, env)
        assert self.stat_handler is not None
        free = A.free_vars(expr.body)
        site_ctx = {name: ctx[name] for name in sorted(free) if name in ctx}
        missing = free - set(site_ctx)
        if missing:
            raise StaticAnalysisError(f"stat site {expr.label}: unbound {sorted(missing)}")
        # the judgment constant p0 must be non-negative at the site
        self.lp.add_ge(p_in, 0, note=f"stat {expr.label} p0>=0")
        site = StatSite(
            label=expr.label,
            node=expr,
            ctx=site_ctx,
            p_in=p_in,
            result_type=expr.type,
            costful=env.costful,
            lp=self.lp,
            degree=self.degree,
        )
        self.stats.stat_sites += 1
        result_ann, q0 = self.stat_handler(site)
        return result_ann, q0
