"""The first-order AARA language: syntax, semantics, and normalization.

The canonical pipeline is :func:`compile_program`:

>>> from repro.lang import compile_program, evaluate
>>> from repro.lang.values import from_python
>>> prog = compile_program('''
... let rec length xs =
...   match xs with
...   | [] -> 0
...   | hd :: tl -> let _ = Raml.tick 1.0 in 1 + length tl
... ''')
>>> evaluate(prog, "length", [from_python([1, 2, 3])]).cost
3.0
"""

from ..config import parse_caps
from . import ast
from .interp import EvalResult, Interpreter, StatRecord, evaluate, run_on_inputs
from .normalize import normalize_program
from .parser import parse_expr, parse_program
from .types import typecheck_program
from .values import from_python, to_python


def compile_program(source: str, budget=None) -> ast.Program:
    """Parse, share-let-normalize, and type-check a program.

    ``budget`` (an :class:`~repro.config.ExecutionBudget`) caps the
    front end for untrusted source; ``None`` keeps the trusted path.
    """
    program = parse_program(source, **parse_caps(budget))
    program = normalize_program(program)
    return typecheck_program(program)


__all__ = [
    "ast",
    "compile_program",
    "parse_program",
    "parse_expr",
    "normalize_program",
    "typecheck_program",
    "evaluate",
    "run_on_inputs",
    "Interpreter",
    "EvalResult",
    "StatRecord",
    "from_python",
    "to_python",
]
