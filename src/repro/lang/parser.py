"""Recursive-descent parser for the OCaml-like surface syntax.

The grammar covers the fragment used by the paper's benchmarks
(Appendix C): top-level ``let``/``let rec`` function definitions, list and
tuple pattern matching (including nested patterns, compiled to the core
``MatchList``/``MatchTuple``/``MatchSum`` forms), ``if``/``let``/``match``
expressions, integer arithmetic and comparisons, ``Raml.tick`` and
``Raml.stat`` annotations, and ``raise``.

Pattern matches with nested or multiple refutable patterns are compiled to
a decision tree by :func:`_compile_match` (a small instance of the classic
pattern-matrix algorithm).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import ast as A
from .builtins import is_builtin
from .lexer import Token, tokenize
from ..errors import NestingDepthError, ParseError

#: default expression/pattern nesting-depth cap.  Always finite: unbounded
#: nesting used to escape as a raw Python ``RecursionError``; now it is a
#: :class:`NestingDepthError` (R004) at a depth no real program reaches.
#: List-literal sugar (``[a; b; …]`` desugars to nested cons) charges its
#: k-th element k levels deep, and a left-nested operator chain
#: (``a + b + …``) the height its tree really has (see
#: :meth:`Parser._left_chain`), so the cap also bounds the depth of the AST
#: handed to normalize/typecheck, whose recursion would otherwise be
#: unbounded.
DEFAULT_MAX_DEPTH = 400

#: Python stack frames consumed per counted nesting level (the full
#: precedence chain parse_expr→…→parse_atom is 16 frames), used to size
#: the temporary recursion-limit raise while parsing.
_FRAMES_PER_LEVEL = 32

# ---------------------------------------------------------------------------
# Patterns (surface only; compiled away before the AST leaves this module)
# ---------------------------------------------------------------------------


@dataclass
class PVar:
    name: str  # "_" means wildcard


@dataclass
class PUnit:
    pass


@dataclass
class PNil:
    pass


@dataclass
class PCons:
    head: "Pattern"
    tail: "Pattern"


@dataclass
class PTuple:
    items: Tuple["Pattern", ...]


@dataclass
class PInl:
    inner: "Pattern"


@dataclass
class PInr:
    inner: "Pattern"


Pattern = object


def _is_irrefutable(pat) -> bool:
    if isinstance(pat, (PVar, PUnit)):
        return True
    if isinstance(pat, PTuple):
        return all(_is_irrefutable(p) for p in pat.items)
    return False


class _FreshNames:
    """Generates hygienic temporaries (``$m1`` etc. cannot be user idents)."""

    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, hint: str = "m") -> str:
        self.counter += 1
        return f"${hint}{self.counter}"


@dataclass
class MatchRecord:
    """Bookkeeping about one surface ``match`` (or ``let``-pattern).

    The pattern-matrix compiler marks which arms were selected in at
    least one decision-tree leaf (``used``) and whether some leaf fell
    through to a compiled-in match-failure (``nonexhaustive``); the lint
    passes turn those into unreachable-arm / non-exhaustive diagnostics.
    """

    pos: A.Pos
    kind: str  # 'match' | 'let'
    arm_pos: List[A.Pos]
    fun: Optional[str] = None
    used: Set[int] = field(default_factory=set)
    nonexhaustive: bool = False


def _compile_match(scrut_var: str, arms, fresh: "_FreshNames", pos, record=None) -> A.Expr:
    """Compile ``match scrut_var with arms`` to core destructors.

    ``arms`` is a list of ``(pattern, rhs_expr)``.  Implements the pattern
    matrix algorithm over obligation lists ``[(var, pattern), ...]``; each
    row additionally carries the index of the surface arm it came from so
    arm reachability can be recorded on ``record``.
    """
    matrix = [([(scrut_var, pat)], rhs, arm) for arm, (pat, rhs) in enumerate(arms)]
    return _compile_matrix(matrix, fresh, pos, record)


def _arm_pos(record, arm, pos):
    """Best source position for a row: its surface arm's pattern if known."""
    if record is not None and arm is not None and arm < len(record.arm_pos):
        return record.arm_pos[arm]
    return pos


def _compile_matrix(matrix, fresh: "_FreshNames", pos, record=None) -> A.Expr:
    if not matrix:
        if record is not None:
            record.nonexhaustive = True
        return A.ErrorExpr("match failure", pos=pos)
    obligations, rhs, arm = matrix[0]

    # Discharge leading irrefutable obligations of the first row.
    for idx, (var, pat) in enumerate(obligations):
        if isinstance(pat, (PVar, PUnit)):
            continue
        if isinstance(pat, PTuple) and _is_irrefutable(pat):
            continue
        return _branch_on(idx, matrix, fresh, pos, record)

    # Whole first row is irrefutable: bind and ignore remaining rows.
    if record is not None and arm is not None:
        record.used.add(arm)
    body = rhs
    bind_pos = _arm_pos(record, arm, pos)
    for var, pat in reversed(obligations):
        body = _bind_irrefutable(var, pat, body, fresh, bind_pos)
    return body


def _bind_irrefutable(var: str, pat, body: A.Expr, fresh: "_FreshNames", pos) -> A.Expr:
    if isinstance(pat, PVar):
        if pat.name == "_":
            return body
        return A.Let(pat.name, A.Var(var, pos=pos), body, pos=pos)
    if isinstance(pat, PUnit):
        return body
    if isinstance(pat, PTuple):
        names = []
        inner = body
        binders = []
        for item in pat.items:
            if isinstance(item, PVar):
                names.append(item.name)
            else:
                tmp = fresh.fresh("t")
                names.append(tmp)
                binders.append((tmp, item))
        for tmp, item in reversed(binders):
            inner = _bind_irrefutable(tmp, item, inner, fresh, pos)
        return A.MatchTuple(A.Var(var, pos=pos), tuple(names), inner, pos=pos)
    raise ParseError(f"pattern {pat} is refutable", pos.line if pos else None)


def _branch_on(idx: int, matrix, fresh: "_FreshNames", pos, record=None) -> A.Expr:
    """Branch on the constructor of obligation ``idx`` of the first row."""
    var = matrix[0][0][idx][0]
    pivot = matrix[0][0][idx][1]

    if isinstance(pivot, (PNil, PCons)):
        return _branch_list(idx, var, matrix, fresh, pos, record)
    if isinstance(pivot, PTuple):
        return _branch_tuple(idx, var, matrix, fresh, pos, record)
    if isinstance(pivot, (PInl, PInr)):
        return _branch_sum(idx, var, matrix, fresh, pos, record)
    raise ParseError(f"unsupported pattern {pivot}")


def _row_obligation_on(row, var):
    """Find the obligation index on ``var`` in ``row``, or None."""
    for k, (v, _p) in enumerate(row[0]):
        if v == var:
            return k
    return None


def _branch_list(idx: int, var: str, matrix, fresh: "_FreshNames", pos, record=None) -> A.Expr:
    head_var = fresh.fresh("h")
    tail_var = fresh.fresh("t")
    nil_rows = []
    cons_rows = []
    for obligations, rhs, arm in matrix:
        k = _row_obligation_on((obligations, rhs), var)
        if k is None:
            nil_rows.append((list(obligations), rhs, arm))
            cons_rows.append((list(obligations), rhs, arm))
            continue
        pat = obligations[k][1]
        rest = obligations[:k] + obligations[k + 1 :]
        if isinstance(pat, PNil):
            nil_rows.append((rest, rhs, arm))
        elif isinstance(pat, PCons):
            cons_rows.append(
                (rest + [(head_var, pat.head), (tail_var, pat.tail)], rhs, arm)
            )
        elif isinstance(pat, PVar):
            # variable matches both; rebind the scrutinee variable
            bound_nil = rest if pat.name == "_" else rest + [(var, pat)]
            nil_rows.append((bound_nil, rhs, arm))
            cons_rows.append((list(bound_nil), rhs, arm))
        else:
            raise ParseError("list and non-list patterns mixed in match")
    nil_branch = _compile_matrix(nil_rows, fresh, pos, record)
    cons_branch = _compile_matrix(cons_rows, fresh, pos, record)
    return A.MatchList(A.Var(var, pos=pos), nil_branch, head_var, tail_var, cons_branch, pos=pos)


def _branch_tuple(idx: int, var: str, matrix, fresh: "_FreshNames", pos, record=None) -> A.Expr:
    width = len(matrix[0][0][idx][1].items)
    comp_vars = [fresh.fresh("c") for _ in range(width)]
    rows = []
    for obligations, rhs, arm in matrix:
        k = _row_obligation_on((obligations, rhs), var)
        if k is None:
            rows.append((list(obligations), rhs, arm))
            continue
        pat = obligations[k][1]
        rest = obligations[:k] + obligations[k + 1 :]
        if isinstance(pat, PTuple):
            if len(pat.items) != width:
                raise ParseError("tuple pattern arity mismatch")
            rows.append((rest + list(zip(comp_vars, pat.items)), rhs, arm))
        elif isinstance(pat, PVar):
            rows.append((rest + ([] if pat.name == "_" else [(var, pat)]), rhs, arm))
        else:
            raise ParseError("tuple and non-tuple patterns mixed in match")
    body = _compile_matrix(rows, fresh, pos, record)
    return A.MatchTuple(A.Var(var, pos=pos), tuple(comp_vars), body, pos=pos)


def _branch_sum(idx: int, var: str, matrix, fresh: "_FreshNames", pos, record=None) -> A.Expr:
    lvar = fresh.fresh("l")
    rvar = fresh.fresh("r")
    left_rows = []
    right_rows = []
    for obligations, rhs, arm in matrix:
        k = _row_obligation_on((obligations, rhs), var)
        if k is None:
            left_rows.append((list(obligations), rhs, arm))
            right_rows.append((list(obligations), rhs, arm))
            continue
        pat = obligations[k][1]
        rest = obligations[:k] + obligations[k + 1 :]
        if isinstance(pat, PInl):
            left_rows.append((rest + [(lvar, pat.inner)], rhs, arm))
        elif isinstance(pat, PInr):
            right_rows.append((rest + [(rvar, pat.inner)], rhs, arm))
        elif isinstance(pat, PVar):
            bound = rest if pat.name == "_" else rest + [(var, pat)]
            left_rows.append((bound, rhs, arm))
            right_rows.append((list(bound), rhs, arm))
        else:
            raise ParseError("sum and non-sum patterns mixed in match")
    left_branch = _compile_matrix(left_rows, fresh, pos, record)
    right_branch = _compile_matrix(right_rows, fresh, pos, record)
    return A.MatchSum(A.Var(var, pos=pos), lvar, left_branch, rvar, right_branch, pos=pos)


# ---------------------------------------------------------------------------
# The parser proper
# ---------------------------------------------------------------------------


def _binop(op: str, pos: A.Pos, left: A.Expr, right: A.Expr) -> A.Expr:
    return A.BinOp(op, left, right, pos=pos)


def _or_node(_op: str, pos: A.Pos, left: A.Expr, right: A.Expr) -> A.Expr:
    return A.If(left, A.BoolLit(True, pos=pos), right, pos=pos)


def _and_node(_op: str, pos: A.Pos, left: A.Expr, right: A.Expr) -> A.Expr:
    return A.If(left, right, A.BoolLit(False, pos=pos), pos=pos)


class Parser:
    def __init__(
        self,
        source: str,
        max_chars: Optional[int] = None,
        max_tokens: Optional[int] = None,
        max_depth: Optional[int] = None,
    ):
        self.tokens = tokenize(source, max_chars=max_chars, max_tokens=max_tokens)
        self.pos = 0
        self.fresh = _FreshNames()
        self.current_fun: Optional[str] = None
        self.stat_counter = 0
        self.max_depth = DEFAULT_MAX_DEPTH if max_depth is None else max_depth
        self.depth = 0
        #: deepest level reached since the innermost open operator chain
        #: started (see :meth:`_left_chain`)
        self.peak = 0
        #: every surface match / let-pattern, for the lint passes
        self.match_records: List[MatchRecord] = []
        #: top-level definitions in source order (duplicates preserved;
        #: ``A.Program`` keeps only the last one per name)
        self.functions: List[A.FunDef] = []

    # -- nesting budget -----------------------------------------------------

    @contextmanager
    def _nest(self, levels: int = 1):
        """Charge ``levels`` against the nesting budget for this scope."""
        self.depth += levels
        if self.depth > self.max_depth:
            self._too_deep(self.peek())
        self.peak = max(self.peak, self.depth)
        try:
            yield
        finally:
            self.depth -= levels

    def _too_deep(self, tok: Token):
        raise NestingDepthError(
            f"nesting depth exceeds the {self.max_depth}-level budget", tok.line, tok.col
        )

    def _left_chain(self, operand, ops: Tuple[str, ...], build) -> A.Expr:
        """``operand (op operand)*`` for ``op`` in ``ops``, left-nested by
        ``build(op, pos, left, right)``.

        The operands are parsed first, so the chain's height is only known
        afterwards: each operator puts one node above the deepest level any
        operand reached (brackets and inner chains included), and that
        height, not the depth at which the chain starts, is charged.
        """
        outer, self.peak = self.peak, self.depth
        left = operand()
        while self.peek().kind in ("symbol", "keyword") and self.peek().text in ops:
            tok = self.next()
            right = operand()
            self.peak += 1
            if self.peak > self.max_depth:
                self._too_deep(tok)
            left = build(tok.text, A.Pos(tok.line, tok.col), left, right)
        self.peak = max(outer, self.peak)
        return left

    def _list_items(self, parse_item) -> list:
        """The elements of list sugar ``[a; b; …]``, through the closing
        bracket.  The sugar desugars to one cons per element, so the k-th
        element is parsed k levels deeper than the first."""
        items = []
        if not self.at_symbol("]"):
            items.append(parse_item())
            while self.at_symbol(";"):
                self.next()
                with self._nest(len(items)):
                    items.append(parse_item())
        self.expect("symbol", "]")
        return items

    @contextmanager
    def _parse_stack(self):
        """Raise the interpreter recursion limit to fit ``max_depth`` levels.

        The cap, not the Python stack, must be what stops deep nesting —
        otherwise the diagnostic depends on how many frames the host
        happens to allow.
        """
        old = sys.getrecursionlimit()
        # pattern-matrix compilation recurses once per pattern constructor,
        # which is bounded by token count rather than nesting depth
        need = self.max_depth * _FRAMES_PER_LEVEL + 8 * len(self.tokens) + 2000
        sys.setrecursionlimit(max(old, need))
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind == kind and (text is None or tok.text == text)

    def at_symbol(self, text: str, offset: int = 0) -> bool:
        return self.at("symbol", text, offset)

    def at_keyword(self, text: str, offset: int = 0) -> bool:
        return self.at("keyword", text, offset)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def here(self) -> A.Pos:
        tok = self.peek()
        return A.Pos(tok.line, tok.col)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> A.Program:
        with self._parse_stack():
            while not self.at("eof"):
                if self.at_keyword("exception"):
                    self.next()
                    self.expect("ident")
                    continue
                self.functions.append(self.parse_fundef())
        if not self.functions:
            raise ParseError("empty program")
        return A.Program(self.functions)

    def parse_fundef(self) -> A.FunDef:
        pos = self.here()
        self.expect("keyword", "let")
        recursive = False
        if self.at_keyword("rec"):
            self.next()
            recursive = True
        name_tok = self.expect("ident")
        name = name_tok.text
        if is_builtin(name):
            raise ParseError(f"cannot redefine builtin {name!r}", name_tok.line, name_tok.col)
        self.current_fun = name
        self.stat_counter = 0
        params: List[str] = []
        param_pos: List[A.Pos] = []
        while not self.at_symbol("=") and not self.at_symbol(":"):
            pname, ppos = self.parse_param()
            params.append(pname)
            param_pos.append(ppos)
        # optional return type annotation
        if self.at_symbol(":"):
            self.next()
            self.parse_type()
        self.expect("symbol", "=")
        body = self.parse_expr()
        if not params:
            raise ParseError(f"function {name!r} has no parameters", pos.line, pos.col)
        return A.FunDef(
            name,
            tuple(params),
            body,
            recursive=recursive,
            pos=pos,
            name_pos=A.Pos(name_tok.line, name_tok.col),
            param_pos=tuple(param_pos),
        )

    def parse_param(self) -> Tuple[str, A.Pos]:
        pos = self.here()
        if self.at("ident"):
            return self.next().text, pos
        if self.at_symbol("_"):
            self.next()
            return self.fresh.fresh("u"), pos
        if self.at_symbol("("):
            self.next()
            tok = self.expect("ident")
            if self.at_symbol(":"):
                self.next()
                self.parse_type()
            self.expect("symbol", ")")
            return tok.text, A.Pos(tok.line, tok.col)
        tok = self.peek()
        raise ParseError(f"expected parameter, found {tok.text!r}", tok.line, tok.col)

    # -- types (parsed and discarded; inference recomputes them) -------------

    def parse_type(self) -> A.Type:
        ty = self.parse_type_atom()
        items = [ty]
        while self.at_symbol("*"):
            self.next()
            items.append(self.parse_type_atom())
        if len(items) > 1:
            return A.TProd(tuple(items))
        return ty

    def parse_type_atom(self) -> A.Type:
        if self.at_symbol("("):
            self.next()
            ty = self.parse_type()
            self.expect("symbol", ")")
            return self._type_suffix(ty)
        if self.at_symbol("'"):
            self.next()
            name = self.expect("ident").text
            return self._type_suffix(A.TVar(name))
        tok = self.expect("ident")
        base = {"int": A.INT, "bool": A.BOOL, "unit": A.UNIT}.get(tok.text)
        if base is None:
            if tok.text == "list":
                raise ParseError("'list' must follow an element type", tok.line, tok.col)
            base = A.TVar(tok.text)
        return self._type_suffix(base)

    def _type_suffix(self, ty: A.Type) -> A.Type:
        while self.at("ident", "list"):
            self.next()
            ty = A.TList(ty)
        return ty

    # -- patterns -----------------------------------------------------------

    def parse_pattern(self):
        with self._nest():
            pat = self.parse_pattern_cons()
        return pat

    def parse_pattern_cons(self):
        head = self.parse_pattern_atom()
        if self.at_symbol("::"):
            self.next()
            with self._nest():
                tail = self.parse_pattern_cons()
            return PCons(head, tail)
        return head

    def parse_pattern_atom(self):
        tok = self.peek()
        if self.at_symbol("_"):
            self.next()
            return PVar("_")
        if self.at("ident"):
            name = self.next().text
            if name == "Left":
                with self._nest():
                    return PInl(self.parse_pattern_atom())
            if name == "Right":
                with self._nest():
                    return PInr(self.parse_pattern_atom())
            return PVar(name)
        if self.at_symbol("["):
            self.next()
            pat = PNil()
            for item in reversed(self._list_items(self.parse_pattern)):
                pat = PCons(item, pat)
            return pat
        if self.at_symbol("("):
            self.next()
            if self.at_symbol(")"):
                self.next()
                return PUnit()
            items = [self.parse_pattern()]
            while self.at_symbol(","):
                self.next()
                items.append(self.parse_pattern())
            self.expect("symbol", ")")
            if len(items) == 1:
                return items[0]
            return PTuple(tuple(items))
        raise ParseError(f"expected pattern, found {tok.text!r}", tok.line, tok.col)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        with self._nest():
            return self._parse_expr()

    def _parse_expr(self) -> A.Expr:
        pos = self.here()
        if self.at_keyword("let"):
            return self.parse_let()
        if self.at_keyword("if"):
            self.next()
            cond = self.parse_expr()
            self.expect("keyword", "then")
            then_branch = self.parse_expr()
            self.expect("keyword", "else")
            else_branch = self.parse_expr()
            return A.If(cond, then_branch, else_branch, pos=pos)
        if self.at_keyword("match"):
            return self.parse_match()
        if self.at_keyword("raise"):
            self.next()
            tok = self.expect("ident")
            return A.ErrorExpr(tok.text, pos=pos)
        if self.at_keyword("fun"):
            tok = self.peek()
            raise ParseError("higher-order functions are not supported", tok.line, tok.col)
        return self.parse_or()

    def parse_let(self) -> A.Expr:
        pos = self.here()
        self.expect("keyword", "let")
        if self.at_keyword("rec"):
            tok = self.peek()
            raise ParseError("local 'let rec' is not supported", tok.line, tok.col)
        pat = self.parse_pattern()
        if self.at_symbol(","):
            # OCaml allows unparenthesized tuple patterns in let bindings:
            #   let lower, upper = partition pivot xs in ...
            items = [pat]
            while self.at_symbol(","):
                self.next()
                items.append(self.parse_pattern())
            pat = PTuple(tuple(items))
        if self.at_symbol(":"):
            self.next()
            self.parse_type()
        self.expect("symbol", "=")
        bound = self.parse_expr()
        self.expect("keyword", "in")
        body = self.parse_expr()
        if isinstance(pat, PVar):
            name = pat.name if pat.name != "_" else self.fresh.fresh("u")
            return A.Let(name, bound, body, pos=pos)
        record = MatchRecord(pos=pos, kind="let", arm_pos=[pos], fun=self.current_fun)
        self.match_records.append(record)
        tmp = self.fresh.fresh("b")
        compiled = _compile_match(tmp, [(pat, body)], self.fresh, pos, record)
        return A.Let(tmp, bound, compiled, pos=pos)

    def parse_match(self) -> A.Expr:
        pos = self.here()
        self.expect("keyword", "match")
        scrut = self.parse_expr()
        self.expect("keyword", "with")
        arms = []
        arm_pos: List[A.Pos] = []
        if self.at_symbol("|"):
            self.next()
        while True:
            arm_pos.append(self.here())
            pat = self.parse_pattern()
            self.expect("symbol", "->")
            rhs = self.parse_expr()
            arms.append((pat, rhs))
            if self.at_symbol("|"):
                self.next()
                continue
            break
        record = MatchRecord(pos=pos, kind="match", arm_pos=arm_pos, fun=self.current_fun)
        self.match_records.append(record)
        if isinstance(scrut, A.Var):
            return _compile_match(scrut.name, arms, self.fresh, pos, record)
        tmp = self.fresh.fresh("s")
        compiled = _compile_match(tmp, arms, self.fresh, pos, record)
        return A.Let(tmp, scrut, compiled, pos=pos)

    def parse_or(self) -> A.Expr:
        # `a || b` desugars to `if a then true else b` at parse time so that
        # share-let normalization cannot break short-circuit evaluation
        return self._left_chain(self.parse_and, ("||",), _or_node)

    def parse_and(self) -> A.Expr:
        # `a && b` desugars to `if a then b else false` (see parse_or)
        return self._left_chain(self.parse_cmp, ("&&",), _and_node)

    def parse_cmp(self) -> A.Expr:
        left = self.parse_cons()
        if self.peek().kind == "symbol" and self.peek().text in A.CMP_OPS:
            pos = self.here()
            op = self.next().text
            right = self.parse_cons()
            return A.BinOp(op, left, right, pos=pos)
        return left

    def parse_cons(self) -> A.Expr:
        head = self.parse_additive()
        if self.at_symbol("::"):
            pos = self.here()
            self.next()
            with self._nest():
                tail = self.parse_cons()
            return A.Cons(head, tail, pos=pos)
        return head

    def parse_additive(self) -> A.Expr:
        return self._left_chain(self.parse_multiplicative, ("+", "-"), _binop)

    def parse_multiplicative(self) -> A.Expr:
        return self._left_chain(self.parse_unary, ("*", "/", "mod"), _binop)

    def parse_unary(self) -> A.Expr:
        pos = self.here()
        if self.at_symbol("-"):
            self.next()
            with self._nest():
                operand = self.parse_unary()
            if isinstance(operand, A.IntLit):
                return A.IntLit(-operand.value, pos=pos)
            return A.Neg("-", operand, pos=pos)
        if self.at_keyword("not"):
            self.next()
            with self._nest():
                operand = self.parse_unary()
            return A.Neg("not", operand, pos=pos)
        return self.parse_app()

    def parse_app(self) -> A.Expr:
        pos = self.here()
        if self.at("ident"):
            name = self.peek().text
            if name in ("Raml.tick", "tick"):
                self.next()
                return self.parse_tick(pos)
            if name in ("Raml.stat", "stat"):
                self.next()
                self.stat_counter += 1
                label = f"{self.current_fun or 'main'}#{self.stat_counter}"
                body = self.parse_atom()
                return A.Stat(label, body, pos=pos)
            if name in ("Left", "Right"):
                self.next()
                operand = self.parse_atom()
                cls = A.Inl if name == "Left" else A.Inr
                return cls(operand, pos=pos)
            # function application: ident followed by atoms
            if self._atom_follows(1):
                self.next()
                args = [self.parse_atom()]
                while self._atom_follows(0):
                    args.append(self.parse_atom())
                return A.App(name, tuple(args), pos=pos)
        return self.parse_atom()

    def parse_tick(self, pos: A.Pos) -> A.Expr:
        negative = False
        if self.at_symbol("-"):
            self.next()
            negative = True
        if self.at_symbol("("):
            self.next()
            if self.at_symbol("-"):
                self.next()
                negative = True
            tok = self.next()
            self.expect("symbol", ")")
        else:
            tok = self.next()
        if tok.kind not in ("int", "float"):
            raise ParseError("tick expects a numeric literal", tok.line, tok.col)
        amount = float(tok.text)
        return A.Tick(-amount if negative else amount, pos=pos)

    def _atom_follows(self, offset: int) -> bool:
        tok = self.peek(offset)
        if tok.kind in ("int", "float", "ident"):
            return tok.text not in ("mod",)
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            return True
        if tok.kind == "symbol" and tok.text in ("(", "["):
            return True
        return False

    def parse_atom(self) -> A.Expr:
        pos = self.here()
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return A.IntLit(int(tok.text), pos=pos)
        if tok.kind == "float":
            raise ParseError("float literals are only allowed in tick", tok.line, tok.col)
        if self.at_keyword("true"):
            self.next()
            return A.BoolLit(True, pos=pos)
        if self.at_keyword("false"):
            self.next()
            return A.BoolLit(False, pos=pos)
        if tok.kind == "ident":
            self.next()
            return A.Var(tok.text, pos=pos)
        if self.at_symbol("["):
            self.next()
            expr: A.Expr = A.Nil(pos=pos)
            for item in reversed(self._list_items(self.parse_expr)):
                expr = A.Cons(item, expr, pos=pos)
            return expr
        if self.at_symbol("("):
            self.next()
            if self.at_symbol(")"):
                self.next()
                return A.UnitLit(pos=pos)
            items = [self.parse_expr()]
            while self.at_symbol(","):
                self.next()
                items.append(self.parse_expr())
            self.expect("symbol", ")")
            if len(items) == 1:
                return items[0]
            return A.TupleExpr(tuple(items), pos=pos)
        raise ParseError(f"expected expression, found {tok.text!r}", tok.line, tok.col)


@dataclass
class ParseResult:
    """Everything the lint passes need that ``A.Program`` discards.

    ``functions`` preserves source order *including duplicate names*
    (``A.Program`` keeps only the last definition per name), and
    ``match_records`` carries per-arm positions plus the reachability
    facts recorded during pattern-matrix compilation.
    """

    program: A.Program
    functions: List[A.FunDef]
    match_records: List[MatchRecord]


def parse_program(
    source: str,
    max_chars: Optional[int] = None,
    max_tokens: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> A.Program:
    """Parse a whole program from source text."""
    return Parser(
        source, max_chars=max_chars, max_tokens=max_tokens, max_depth=max_depth
    ).parse_program()


def parse_program_ex(
    source: str,
    max_chars: Optional[int] = None,
    max_tokens: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> ParseResult:
    """Parse a whole program, keeping the lint-facing side channel."""
    parser = Parser(source, max_chars=max_chars, max_tokens=max_tokens, max_depth=max_depth)
    program = parser.parse_program()
    return ParseResult(program, parser.functions, parser.match_records)


def parse_expr(source: str) -> A.Expr:
    """Parse a single expression (test helper)."""
    parser = Parser(source)
    parser.current_fun = "main"
    with parser._parse_stack():
        expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return expr


def function_line_spans(
    functions: Sequence[A.FunDef], source: str
) -> Optional[Dict[str, Tuple[int, int]]]:
    """``name -> (start_line, end_line)`` slicing the source per function.

    A function's slice runs from its ``let`` keyword's line through the
    line before the next definition (the last one runs to EOF), so every
    source line after the first ``let`` belongs to exactly one function.
    Returns ``None`` when the program cannot be sliced unambiguously:
    duplicate top-level names, a definition without position info, or a
    definition whose ``let`` follows other text on its line (the end of
    the previous body, which a line slice would hand to the wrong
    function).  Consumers (the incremental analysis pipeline) must fall
    back to whole-program granularity in that case.
    """
    spans: Dict[str, Tuple[int, int]] = {}
    ordered = list(functions)
    lines = source.split("\n")
    for i, fdef in enumerate(ordered):
        pos = fdef.pos or fdef.name_pos
        if pos is None or pos.line <= 0 or fdef.name in spans:
            return None
        if i + 1 < len(ordered):
            nxt = ordered[i + 1].pos or ordered[i + 1].name_pos
            if nxt is None or nxt.line <= 0 or lines[nxt.line - 1][: nxt.col - 1].strip():
                return None
            end = nxt.line - 1
        else:
            end = len(lines)
        if end < pos.line:
            return None
        spans[fdef.name] = (pos.line, end)
    return spans
