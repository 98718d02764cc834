"""Exception hierarchy for the Hybrid AARA reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  The hierarchy mirrors the pipeline stages:
lexing/parsing, simple typing, evaluation, static analysis, LP solving, and
Bayesian inference.
"""

from __future__ import annotations

#: process exit code for a run stopped by graceful shutdown (SIGINT/SIGTERM).
#: Distinct from 0 (clean), 1 (failed cells) and 2 (ReproError) so scripts
#: and CI can tell "interrupted, resume me" apart from genuine failure;
#: 75 is the sysexits.h EX_TEMPFAIL convention ("temporary failure, retry").
EXIT_INTERRUPTED = 75


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SourceError(ReproError):
    """An error attached to a position in a source program."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col if col is not None else '?'}: {message}"
        super().__init__(message)


class LexError(SourceError):
    """Raised when the lexer encounters an invalid token."""


class ParseError(SourceError):
    """Raised when the parser cannot build an AST."""


class NestingDepthError(ParseError):
    """Raised when a program nests expressions or patterns deeper than the
    parser's depth cap.  A :class:`ParseError` subclass so existing callers
    keep working, but distinguishable so the linter can render it as its
    own diagnostic (R004) instead of a generic syntax error."""


class TypeMismatchError(SourceError):
    """Raised by the simple type checker for ill-typed programs."""


class EvalError(ReproError):
    """Raised by the interpreter (e.g. ``error`` builtin, bad application)."""


class BudgetExceededError(EvalError):
    """Raised when an interpreter run exhausts its execution budget
    (step fuel, call depth, or constructed-value size).

    Carries which cap tripped so failure reports can say *why* a hostile
    run was aborted, not just that it was."""

    def __init__(self, message: str, kind: str = "steps", limit: int | None = None):
        self.kind = kind  # 'steps' | 'call-depth' | 'value-size'
        self.limit = limit
        super().__init__(message)


class StaticAnalysisError(ReproError):
    """Base class for conventional-AARA failures."""


class LintError(StaticAnalysisError):
    """Raised when ``repro.analysis`` rejects a program before analysis.

    Carries the error-severity :class:`~repro.analysis.Diagnostic` list so
    callers (CLI, eval harness) can re-render with carets/JSON/SARIF.
    """

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        super().__init__(message)


class IRVerificationError(ReproError):
    """Raised by the between-stage IR verifier (``repro.analysis.verify_ir``)
    when a ``normalize`` pass breaks a uniquify/ANF/share invariant."""

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        super().__init__(message)


class UnanalyzableError(StaticAnalysisError):
    """The program uses a construct that is opaque to static analysis.

    This reproduces the paper's "Cannot Analyze" verdict for benchmarks
    that contain code fragments such as OCaml's polymorphic comparator.
    """


class InfeasibleError(StaticAnalysisError):
    """The AARA linear program has no solution at the requested degree."""


class ResourceLimitError(StaticAnalysisError):
    """Constraint generation exceeded the configured LP size budget
    (variables/constraints).  An honest "the analysis itself would be too
    expensive" verdict for adversarial recursion shapes, reported as the
    ``resource-limit`` status rather than an infeasibility or a crash."""

    def __init__(self, message: str, kind: str = "variables", limit: int | None = None):
        self.kind = kind  # 'variables' | 'constraints'
        self.limit = limit
        super().__init__(message)


class LPError(ReproError):
    """Raised when the LP backend fails unexpectedly."""


class InferenceError(ReproError):
    """Raised when Bayesian inference cannot be run (e.g. empty polytope)."""


class SamplerDivergenceError(InferenceError):
    """Raised when an MCMC chain stays fully divergent after every
    self-healing restart (NaN log-densities, exploding trajectories)."""


class DatasetError(ReproError):
    """Raised for malformed or empty runtime-cost datasets."""


class TaskTimeoutError(ReproError):
    """Raised/recorded when a task overruns its wall-clock deadline: the
    batch watchdog (``--task-timeout``) or a daemon request's deadline."""


def failure_stage(exc: BaseException) -> str:
    """Pipeline stage responsible for an exception (error provenance).

    Used by the evaluation harness to record *where* a grid cell failed
    (``lp``, ``sampler``, ``static``, ``runner``, …) alongside the error
    class, so partial reports can footnote failures precisely.  The order
    of the checks matters: subclasses must be tested before their bases
    (e.g. ``InfeasibleError`` before ``StaticAnalysisError``).
    """
    if isinstance(exc, TaskTimeoutError):
        return "runner"
    if isinstance(exc, (LPError, InfeasibleError)):
        return "lp"
    if isinstance(exc, SamplerDivergenceError):
        return "sampler"
    if isinstance(exc, LintError):
        return "lint"
    if isinstance(exc, IRVerificationError):
        return "normalize"
    if isinstance(exc, ResourceLimitError):
        return "resource-limit"
    if isinstance(exc, StaticAnalysisError):
        return "static"
    if isinstance(exc, DatasetError):
        return "data"
    if isinstance(exc, InferenceError):
        return "inference"
    if isinstance(exc, SourceError):
        return "frontend"
    if isinstance(exc, BudgetExceededError):
        return "eval-budget"
    if isinstance(exc, EvalError):
        return "eval"
    if isinstance(exc, ReproError):
        return "analysis"
    return "worker"
