"""The lint pass manager: one entry point over the pre-normalization AST.

``lint_source`` parses (keeping the parser's lint side-channel), runs the
ordered passes, and returns a sorted :class:`LintResult`.
:func:`run_passes` is the pass loop it shares with the incremental
engine: each pass is timed under a ``lint.<pass>`` telemetry span — the
first dotted component is the stage, so ``trace summary`` buckets all
lint cost under ``lint`` — and contributes to the ``lint.diagnostics``
counter.  :func:`fatal_errors` is the one rule for which diagnostics
stop a program before analysis.

Lexer and parser failures do not abort linting with a traceback: they
become a single ``R001``/``R002`` diagnostic so every front-end finding
flows through one rendering path.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass, field
from typing import Callable, Collection, List, Optional, Sequence, Tuple

from .. import telemetry
from ..config import parse_caps
from ..errors import LexError, ParseError
from ..lang.parser import ParseResult, parse_program_ex
from .deadcode import deadcode_diagnostics
from .diagnostics import Diagnostic, from_source_error
from .recursion import recursion_diagnostics
from .resolve import resolve_diagnostics
from .statlint import statlint_diagnostics
from .usage import usage_diagnostics


@dataclass
class LintResult:
    path: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    source: Optional[str] = None

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def notes(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "note"]

    def clean(self) -> bool:
        """No errors and no warnings (notes do not spoil cleanliness)."""
        return not self.errors() and not self.warnings()


#: ordered pass registry: (name, runner(parse_result, entry, path) -> diags)
PASSES: Tuple[Tuple[str, Callable], ...] = (
    ("resolve", lambda pr, entry, path: resolve_diagnostics(pr.functions, path)),
    ("usage", lambda pr, entry, path: usage_diagnostics(pr.functions, path)),
    (
        "deadcode",
        lambda pr, entry, path: deadcode_diagnostics(
            pr.functions, pr.match_records, entry=entry, path=path
        ),
    ),
    (
        "statlint",
        lambda pr, entry, path: statlint_diagnostics(pr.functions, entry=entry, path=path),
    ),
    ("recursion", lambda pr, entry, path: recursion_diagnostics(pr.functions, path)),
)


def lint_source(
    source: str, path: str = "<input>", entry: Optional[str] = None, budget=None
) -> LintResult:
    """Run every lint pass over one program source.

    ``budget`` (an :class:`~repro.config.ExecutionBudget`) caps source
    size, token count, and nesting depth for untrusted input; breaches
    surface as ordinary diagnostics (R001/R004), never exceptions.
    """
    try:
        with telemetry.span("lint.parse", path=path):
            parsed = parse_program_ex(source, **parse_caps(budget))
    except (LexError, ParseError) as exc:
        return LintResult(
            path=path, diagnostics=[from_source_error(exc, path)], source=source
        )
    return LintResult(path=path, diagnostics=run_passes(parsed, entry, path), source=source)


def diag_order(d: Diagnostic) -> Tuple:
    """A total order over diagnostics, so cache-assembled and freshly
    computed lists agree even among same-position ties."""
    return (*d.sort_key(), d.severity, d.message, d.function or "", d.notes)


def run_passes(parsed: ParseResult, entry: Optional[str], path: str) -> List[Diagnostic]:
    """Every lint pass over one parse, sorted by :func:`diag_order`."""
    diags: List[Diagnostic] = []
    for name, runner in PASSES:
        with telemetry.span(f"lint.{name}", path=path):
            found = runner(parsed, entry, path)
        if found:
            telemetry.counter("lint.diagnostics", len(found), lint_pass=name)
        diags.extend(found)
    diags.sort(key=diag_order)
    return diags


#: the recursion-shape predictions: ``unboundable`` is the conventional
#: analyzer's verdict to make, and the data-driven methods can still
#: measure such programs, so these errors never stop a program
SHAPE_CODES = ("R042", "R043")


def fatal_errors(
    diagnostics: Sequence[Diagnostic], members: Optional[Collection[str]] = None
) -> List[Diagnostic]:
    """The errors that stop a program before analysis: every error but the
    shape predictions; with ``members``, only those inside these functions
    or at program level."""
    members = None if members is None else set(members)
    return [
        d
        for d in diagnostics
        if d.severity == "error"
        and d.code not in SHAPE_CODES
        and (members is None or d.function is None or d.function in members)
    ]


# ---------------------------------------------------------------------------
# Embedded-program extraction (examples/*.py carry sources as str constants)
# ---------------------------------------------------------------------------


def _const_str(node: pyast.AST, consts: dict) -> Optional[str]:
    """Evaluate a restricted constant-string expression, else None."""
    if isinstance(node, pyast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, pyast.Name):
        return consts.get(node.id)
    if isinstance(node, pyast.BinOp) and isinstance(node.op, pyast.Add):
        left = _const_str(node.left, consts)
        right = _const_str(node.right, consts)
        if left is not None and right is not None:
            return left + right
        return None
    if (
        isinstance(node, pyast.Call)
        and isinstance(node.func, pyast.Attribute)
        and node.func.attr == "replace"
        and len(node.args) == 2
        and not node.keywords
    ):
        base = _const_str(node.func.value, consts)
        old = _const_str(node.args[0], consts)
        new = _const_str(node.args[1], consts)
        if base is not None and old is not None and new is not None:
            return base.replace(old, new)
    return None


def extract_embedded_sources(py_source: str) -> List[Tuple[str, str]]:
    """``(name, program_source)`` for resource-language programs embedded
    as module-level string constants of a Python file.

    A constant counts as a program if it contains a top-level ``let``
    definition.  Assignments are folded left-to-right, so constants built
    from earlier ones (concatenation, ``.replace``) are resolved too.
    """
    tree = pyast.parse(py_source)
    consts: dict = {}
    programs: List[Tuple[str, str]] = []
    for node in tree.body:
        targets = []
        value = None
        if isinstance(node, pyast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, pyast.Name)]
            value = node.value
        elif isinstance(node, pyast.AnnAssign) and isinstance(node.target, pyast.Name):
            targets = [node.target.id]
            value = node.value
        if not targets or value is None:
            continue
        text = _const_str(value, consts)
        if text is None:
            continue
        for name in targets:
            consts[name] = text
        if "let " in text:
            for name in targets:
                programs.append((name, text))
    return programs


def lint_embedded(
    py_source: str, path: str = "<input>"
) -> List[LintResult]:
    """Lint every embedded program of a Python source file."""
    results = []
    for name, text in extract_embedded_sources(py_source):
        results.append(lint_source(text, path=f"{path}#{name}"))
    return results
