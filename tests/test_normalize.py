"""Share-let normalization tests, including the semantic-preservation
property: a program evaluates to the same value and cost before and after
normalization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify_ir import verify_expr
from repro.errors import ReproError
from repro.lang import ast as A
from repro.lang import compile_program, evaluate, from_python
from repro.lang.interp import Interpreter
from repro.lang.normalize import _check_normal_form, normalize_expr, normalize_program
from repro.lang.parser import parse_expr, parse_program
from repro.lang.types import typecheck_program


def normal(src: str) -> A.Expr:
    return normalize_expr(parse_expr(src))


#: expressions that break share-let normal form, one per invariant
BROKEN_IR = {
    "duplicate-use": A.BinOp("+", A.Var("x"), A.Var("x")),
    "non-variable-operand": A.Cons(A.IntLit(1), A.Nil()),
}


class TestANF:
    def test_cons_operands_become_variables(self):
        expr = normal("(1 + 2) :: []")
        # a let chain ending in a cons of variables
        node = expr
        while isinstance(node, A.Let):
            node = node.body
        assert isinstance(node, A.Cons)
        assert isinstance(node.head, A.Var)
        assert isinstance(node.tail, A.Var)

    def test_app_args_become_variables(self):
        expr = normalize_expr(
            parse_expr("f (g x) 3"),
        )
        node = expr
        while isinstance(node, A.Let):
            node = node.body
        assert isinstance(node, A.App)
        assert all(isinstance(a, A.Var) for a in node.args)

    def test_if_condition_becomes_variable(self):
        expr = normal("if x <= 1 then 1 else 2")
        node = expr
        while isinstance(node, A.Let):
            node = node.body
        assert isinstance(node, A.If)
        assert isinstance(node.cond, A.Var)

    def test_already_normal_expression_unchanged_shape(self):
        expr = normal("let y = 1 in y")
        assert isinstance(expr, A.Let)


class TestShareInsertion:
    def test_duplicate_use_gets_share(self):
        expr = normal("x + x")
        assert isinstance(expr, A.Share)

    def test_triple_use_gets_two_shares(self):
        expr = normal("(x + x) + x")
        shares = [n for n in expr.walk() if isinstance(n, A.Share)]
        assert len(shares) == 2

    def test_branches_do_not_need_share(self):
        # y used in both branches of if — alternatives, one use
        expr = normal("if c then y else y")
        assert not any(isinstance(n, A.Share) for n in expr.walk())

    def test_scrutinee_reuse_in_branch_needs_share(self):
        expr = normal("match xs with | [] -> xs | h :: t -> t")
        assert any(isinstance(n, A.Share) for n in expr.walk())

    def test_sequential_let_use(self):
        expr = normal("let a = f x in g x")
        assert any(isinstance(n, A.Share) for n in expr.walk())


class TestInvariantChecker:
    def test_accepts_normal_forms(self):
        for src in ["x", "let a = f x in a", "if c then 1 else 2"]:
            _check_normal_form(normal(src))

    def test_rejects_duplicate_use(self):
        bad = BROKEN_IR["duplicate-use"]
        with pytest.raises(ReproError):
            _check_normal_form(bad)

    def test_rejects_non_variable_operand(self):
        bad = BROKEN_IR["non-variable-operand"]
        with pytest.raises(ReproError):
            _check_normal_form(bad)

    @pytest.mark.parametrize("name", sorted(BROKEN_IR))
    def test_ir_verifier_rejects_what_the_final_check_rejects(self, name):
        # the two checks run the same normal-form walks
        with pytest.raises(ReproError):
            _check_normal_form(BROKEN_IR[name])
        assert verify_expr(BROKEN_IR[name], "share") != []

    def test_normalize_program_checks_all_functions(self):
        prog = parse_program("let f x = x + x\nlet g y = f (f y)")
        normalize_program(prog)  # must not raise


SEMANTIC_SOURCES = [
    (
        """
let rec length xs =
  match xs with [] -> 0 | hd :: tl -> let _ = Raml.tick 1.0 in 1 + length tl
""",
        "length",
    ),
    (
        """
let rec sum_twice xs =
  match xs with
  | [] -> 0
  | hd :: tl -> hd + hd + sum_twice tl
""",
        "sum_twice",
    ),
    (
        """
let rec rev_app acc xs =
  match xs with [] -> acc | hd :: tl -> rev_app (hd :: acc) tl
let reverse xs = let _ = Raml.tick 0.5 in rev_app [] xs
""",
        "reverse",
    ),
]


class TestSemanticPreservation:
    @pytest.mark.parametrize("src,fname", SEMANTIC_SOURCES)
    @given(data=st.lists(st.integers(-50, 50), max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_normalization_preserves_value_and_cost(self, src, fname, data):
        raw = parse_program(src)
        normalized = typecheck_program(normalize_program(parse_program(src)))
        args = [from_python(data)]
        if fname == "rev_app":
            args = [from_python([]), from_python(data)]
        # the un-normalized program is still evaluable (the interpreter does
        # not require normal form)
        r1 = Interpreter(raw, collect_stats=False).run(fname, list(args))
        r2 = Interpreter(normalized, collect_stats=False).run(fname, list(args))
        assert r1.value == r2.value
        assert r1.cost == pytest.approx(r2.cost)

    def test_compile_program_pipeline(self):
        prog = compile_program(SEMANTIC_SOURCES[0][0])
        result = evaluate(prog, "length", [from_python([1, 2, 3, 4])])
        assert result.value == 4
        assert result.cost == 4.0
