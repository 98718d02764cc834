"""Between-stage IR verifier for the normalizer (``repro.analysis.verify_ir``).

The normalizer promises three invariants, one per stage:

* after **uniquify** every binder name is bound exactly once (``V001``),
* after **anf** constructors/destructors/calls take variables (``V002``),
* after **share** every variable is consumed at most once, branches
  counting as alternatives (``V003``).

The operand and use-count walks are the normalizer's own
(:func:`~repro.lang.normalize.atomic_operands`,
:func:`~repro.lang.normalize.use_counts`), so this verifier and
``normalize_program``'s final check agree on what the invariants mean.

``check_expr`` is wired into :func:`repro.lang.normalize.normalize_expr`
behind the ``REPRO_VERIFY_IR`` environment variable (the test suite turns
it on; production runs pay nothing).  Violations are reported as
diagnostics wrapped in :class:`repro.errors.IRVerificationError` — not
asserts — so the harness records them with ``failure_stage="normalize"``
and the CLI can render them like any other finding.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..errors import IRVerificationError
from ..lang import ast as A
from ..lang.normalize import atomic_operands, use_counts
from .diagnostics import Diagnostic, Span

#: environment variable that enables verification inside normalize
ENV_FLAG = "REPRO_VERIFY_IR"


def verification_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def _span(pos: Optional[A.Pos]) -> Optional[Span]:
    if pos is None or pos.line <= 0:
        return None
    return Span(pos.line, pos.col, 1)


def _binders(expr: A.Expr):
    """(name, pos) for every binder introduced by ``expr`` itself."""
    if isinstance(expr, A.Let):
        return [(expr.name, expr.pos)]
    if isinstance(expr, A.Share):
        return [(expr.name1, expr.pos), (expr.name2, expr.pos)]
    if isinstance(expr, A.MatchList):
        return [(expr.head_var, expr.pos), (expr.tail_var, expr.pos)]
    if isinstance(expr, A.MatchSum):
        return [(expr.left_var, expr.pos), (expr.right_var, expr.pos)]
    if isinstance(expr, A.MatchTuple):
        return [(name, expr.pos) for name in expr.names]
    return []


def _check_unique_binders(expr: A.Expr, context: str) -> List[Diagnostic]:
    seen: Dict[str, int] = {}
    diags: List[Diagnostic] = []
    for node in expr.walk():
        for name, pos in _binders(node):
            seen[name] = seen.get(name, 0) + 1
            if seen[name] == 2:
                diags.append(
                    Diagnostic(
                        code="V001",
                        severity="error",
                        message=f"binder '{name}' is bound more than once",
                        span=_span(pos),
                        function=context or None,
                    )
                )
    return diags


def _check_atomic(expr: A.Expr, context: str) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for node in expr.walk():
        for operand in atomic_operands(node):
            if isinstance(operand, A.Var):
                continue
            diags.append(
                Diagnostic(
                    code="V002",
                    severity="error",
                    message=(
                        f"{type(node).__name__} has a non-variable operand "
                        f"({type(operand).__name__}) after ANF"
                    ),
                    span=_span(operand.pos or node.pos),
                    function=context or None,
                )
            )
    return diags


def _check_affine(expr: A.Expr, context: str) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    counts = use_counts(expr)
    for var in sorted(v for v, k in counts.items() if k > 1):
        diags.append(
            Diagnostic(
                code="V003",
                severity="error",
                message=(
                    f"variable '{var}' is used {counts[var]} times after "
                    "share insertion (must be affine)"
                ),
                span=_span(expr.pos),
                function=context or None,
            )
        )
    return diags


#: which invariants hold after each normalize stage
_STAGE_CHECKS = {
    "uniquify": (_check_unique_binders,),
    "anf": (_check_unique_binders, _check_atomic),
    "share": (_check_unique_binders, _check_atomic, _check_affine),
}


def verify_expr(expr: A.Expr, stage: str, context: str = "") -> List[Diagnostic]:
    """Diagnostics for every invariant violated at ``stage`` (no raise)."""
    checks = _STAGE_CHECKS.get(stage)
    if checks is None:
        raise ValueError(f"unknown normalize stage {stage!r}")
    diags: List[Diagnostic] = []
    for check in checks:
        diags.extend(check(expr, context))
    return diags


def check_expr(expr: A.Expr, stage: str, context: str = "") -> None:
    """Raise :class:`IRVerificationError` if ``stage`` invariants fail."""
    diags = verify_expr(expr, stage, context)
    if not diags:
        return
    where = f" in '{context}'" if context else ""
    summary = "; ".join(d.message for d in diags[:3])
    if len(diags) > 3:
        summary += f"; and {len(diags) - 3} more"
    raise IRVerificationError(
        f"IR verification failed after {stage}{where}: {summary}",
        diagnostics=diags,
    )
