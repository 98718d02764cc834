"""Top-level drivers for (conventional and hybrid-skeleton) AARA analysis.

:func:`build_analysis` assembles the LP for a program's root function;
:func:`solve_analysis` runs the staged objective of Section 6.1 (data-gap
sums first, then root coefficients by descending degree) and extracts a
:class:`~repro.aara.bound.ResourceBound`.  :func:`run_conventional`
reproduces the paper's "Conventional AARA" column: it returns either a
bound or a verdict explaining the failure ("Cannot Analyze" for programs
with statically intractable fragments, infeasibility at the requested
degree otherwise).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .annot import coeffs_by_degree, equate, instantiate, zero_annotation
from .bound import ResourceBound
from .signatures import FunSignature
from .typecheck import ConstraintGenerator, GenStats, StatHandler
from .. import telemetry
from ..errors import (
    InfeasibleError,
    ResourceLimitError,
    StaticAnalysisError,
    UnanalyzableError,
)
from ..lang import ast as A
from ..lp import LPProblem, LPSolution, LinExpr, solve_lexicographic


@dataclass
class Analysis:
    """An assembled (unsolved) AARA linear program for a root function."""

    program: A.Program
    fname: str
    degree: int
    lp: LPProblem
    signature: FunSignature
    generator: ConstraintGenerator

    def root_objectives(self, mode: str = "sum") -> List[LinExpr]:
        """Objective stages minimizing root input coefficients + p0.

        ``mode='sum'`` uses one stage (sum of all coefficients), ``'degree'``
        minimizes higher degrees with higher priority (Section 6.1 gives the
        user both choices).
        """
        by_degree: Dict[int, LinExpr] = {}
        for ann in self.signature.params:
            for deg, coeff in coeffs_by_degree(ann):
                by_degree[deg] = by_degree.get(deg, LinExpr()) + coeff
        if mode == "sum":
            total = LinExpr.total(by_degree.values()) + self.signature.p0
            return [total]
        stages = [by_degree[d] for d in sorted(by_degree, reverse=True)]
        stages.append(self.signature.p0)
        return stages


def _snap(value: float, tol: float = 1e-7) -> float:
    """Remove numerical dust from LP solutions (values within tol of an int)."""
    nearest = round(value)
    if abs(value - nearest) < tol:
        return float(nearest)
    return value


def signature_bound(fname: str, sig: FunSignature, solution: LPSolution) -> ResourceBound:
    """The bound ``solution`` gives ``sig``, numerical dust removed.

    Only the signature's own variables are read (and snapped), not every
    LP variable: the bound is a function of those alone.
    """
    snapped = {
        name: _snap(solution[name])
        for param in sig.params
        for coeff in param.coefficients()
        for name in coeff.coeffs
    }
    return ResourceBound(
        fname=fname,
        params=tuple(instantiate(p, snapped) for p in sig.params),
        p0=_snap(solution.value(sig.p0)),
    )


@dataclass
class AARAResult:
    bound: ResourceBound
    solution: LPSolution
    signature: FunSignature
    lp: LPProblem
    gen_stats: GenStats
    runtime_seconds: float = 0.0


def build_analysis(
    program: A.Program,
    fname: str,
    degree: int,
    stat_handler: Optional[StatHandler] = None,
    stat_mode: str = "handler",
    lp: Optional[LPProblem] = None,
    budget=None,
) -> Analysis:
    """Generate the full constraint system for ``fname`` at ``degree``,
    the root's output annotation and ``q0`` pinned to 0.

    ``budget`` (an :class:`~repro.config.ExecutionBudget`) caps the LP's
    variable/constraint counts: adversarial recursion shapes that would
    make constraint generation blow up raise
    :class:`~repro.errors.ResourceLimitError` mid-build instead.
    """
    if fname not in program:
        raise StaticAnalysisError(f"unknown function {fname!r}")
    if lp is None and budget is not None:
        lp = LPProblem(
            "aara",
            max_variables=getattr(budget, "lp_variables", None),
            max_constraints=getattr(budget, "lp_constraints", None),
        )
    with telemetry.span(
        "aara.build", fname=fname, degree=degree, stat_mode=stat_mode
    ) as tspan:
        generator = ConstraintGenerator(
            program, degree, lp=lp, stat_handler=stat_handler, stat_mode=stat_mode
        )
        signature = generator.instantiate(fname, costful=True)
        zero = zero_annotation(program[fname].fun_type.result, degree)
        equate(signature.result, zero, generator.lp, note="root output pinned to 0")
        generator.lp.add_eq(signature.q0, 0, note="root q0 pinned to 0")
        tspan.set(constraints=len(generator.lp.constraints), variables=generator.lp.num_vars)
        telemetry.counter("aara.builds", 1)
        telemetry.counter("aara.constraints", len(generator.lp.constraints))
    return Analysis(program, fname, degree, generator.lp, signature, generator)


def solve_analysis(
    analysis: Analysis,
    extra_objectives: Sequence[LinExpr] = (),
    objective_mode: str = "sum",
) -> AARAResult:
    """Solve with staged objectives and extract the numeric bound."""
    start = time.perf_counter()
    objectives = list(extra_objectives) + analysis.root_objectives(objective_mode)
    solution = solve_lexicographic(
        analysis.lp, objectives, context=f"AARA {analysis.fname} degree {analysis.degree}"
    )
    sig = analysis.signature
    bound = signature_bound(analysis.fname, sig, solution)
    elapsed = time.perf_counter() - start
    return AARAResult(bound, solution, sig, analysis.lp, analysis.generator.stats, elapsed)


def analyze_program(
    program: A.Program,
    fname: str,
    degree: int,
    stat_handler: Optional[StatHandler] = None,
    stat_mode: str = "handler",
    extra_objectives: Sequence[LinExpr] = (),
    budget=None,
) -> AARAResult:
    """Build and solve in one call."""
    analysis = build_analysis(program, fname, degree, stat_handler, stat_mode, budget=budget)
    return solve_analysis(analysis, extra_objectives)


def run_conventional_function(
    functions: Sequence[A.FunDef],
    fname: str,
    max_degree: int = 3,
    budget=None,
) -> "ConventionalVerdict":
    """Conventional verdict for one function of a parsed (surface) program.

    The per-function entry point of the incremental pipeline: the program
    is restricted to ``fname``'s call-graph cone *before* normalization
    and type checking, so the verdict — constraint system, staged LP
    solve, everything — is a pure function of the cone's source text.
    That is exactly what the incremental artifact cache keys on (see
    :mod:`repro.analysis.fingerprint`), making cached verdicts
    byte-identical to a cold analysis of the same cone.
    """
    from ..analysis.callgraph import call_graph, reachable
    from ..lang.normalize import normalize_program
    from ..lang.types import typecheck_program

    functions = list(functions)
    live = reachable(call_graph(functions), [fname])
    cone = A.Program([f for f in functions if f.name in live])
    if fname not in cone:
        raise StaticAnalysisError(f"unknown function {fname!r}")
    program = typecheck_program(normalize_program(cone))
    return run_conventional(program, fname, max_degree=max_degree, budget=budget)


# ---------------------------------------------------------------------------
# Conventional AARA verdicts (Table 1, "Conventional AARA" column)
# ---------------------------------------------------------------------------


@dataclass
class ConventionalVerdict:
    """Outcome of running purely static AARA on a benchmark program."""

    #: 'bound' | 'cannot-analyze' | 'infeasible' | 'unboundable' |
    #: 'resource-limit', or (incremental artifacts only) 'front-end-error'
    status: str
    bound: Optional[ResourceBound] = None
    degree: int = 0
    detail: str = ""
    runtime_seconds: float = 0.0
    feasible_degrees: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def succeeded(self) -> bool:
        return self.status == "bound"

    def to_json(self, artifact: bool = False) -> Dict[str, Any]:
        """The verdict's JSON record, as a task outcome (and the daemon's
        fast path) carries it; with ``artifact``, as an incremental artifact
        stores it: no timing, since artifacts are byte-identical across
        runs, and the bound's rendering added."""
        from ..inference.serialize import bound_to_json

        doc = {
            "status": self.status,
            "degree": self.degree,
            "detail": self.detail,
            "runtime_seconds": self.runtime_seconds,
            "feasible_degrees": list(self.feasible_degrees),
            "bound": None if self.bound is None else bound_to_json(self.bound),
        }
        if artifact:
            del doc["runtime_seconds"]
            doc["describe"] = None if self.bound is None else self.bound.describe()
        return doc

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ConventionalVerdict":
        """The verdict of either record :meth:`to_json` writes."""
        from ..inference.serialize import bound_from_json

        return cls(
            status=data["status"],
            bound=None if data.get("bound") is None else bound_from_json(data["bound"]),
            degree=int(data.get("degree", 0)),
            detail=data.get("detail", ""),
            runtime_seconds=float(data.get("runtime_seconds", 0.0)),
            feasible_degrees=tuple(data.get("feasible_degrees", ())),
        )


def run_conventional(
    program: A.Program, fname: str, max_degree: int = 3, budget=None
) -> ConventionalVerdict:
    """Try conventional AARA at degrees 1..max_degree (stat is transparent).

    Returns the lowest-degree feasible bound; ``cannot-analyze`` when the
    program contains statically intractable code, ``infeasible`` when no
    tried degree admits a bound, ``resource-limit`` when ``budget`` caps
    the LP size and constraint generation exceeds it (an honest "the
    analysis itself would be too expensive", not a solver failure).

    Before touching the LP, the recursion-shape lint pass runs over the
    reachable call graph: when it proves the LP infeasible at *every*
    degree (``R042``/``R043``), the verdict is ``unboundable`` with the
    lint explanation as detail — same Table 1 cell, but a diagnosis
    instead of a bare solver failure, at a fraction of the cost.
    """
    start = time.perf_counter()
    with telemetry.span("lint.recursion", fname=fname, guard="conventional"):
        from ..analysis.callgraph import call_graph, reachable
        from ..analysis.engine import SHAPE_CODES
        from ..analysis.recursion import recursion_diagnostics

        functions = list(program)
        live = reachable(call_graph(functions), [fname])
        shape = [
            d
            for d in recursion_diagnostics([f for f in functions if f.name in live])
            if d.code in SHAPE_CODES
        ]
    if shape:
        first = shape[0]
        where = f" (at {first.span.line}:{first.span.col})" if first.span else ""
        return ConventionalVerdict(
            "unboundable",
            detail=f"[{first.code}] {first.message}{where}",
            runtime_seconds=time.perf_counter() - start,
        )
    feasible: List[int] = []
    first_result: Optional[AARAResult] = None
    for degree in range(1, max_degree + 1):
        try:
            result = analyze_program(
                program, fname, degree, stat_mode="transparent", budget=budget
            )
        except UnanalyzableError as exc:
            return ConventionalVerdict(
                "cannot-analyze", detail=str(exc), runtime_seconds=time.perf_counter() - start
            )
        except ResourceLimitError as exc:
            return ConventionalVerdict(
                "resource-limit",
                detail=str(exc),
                degree=degree,
                runtime_seconds=time.perf_counter() - start,
                feasible_degrees=tuple(feasible),
            )
        except (InfeasibleError, StaticAnalysisError) as exc:
            last_detail = str(exc)
            continue
        feasible.append(degree)
        if first_result is None:
            first_result = result
    if first_result is None:
        return ConventionalVerdict(
            "infeasible",
            detail=f"no bound at degrees 1..{max_degree}",
            runtime_seconds=time.perf_counter() - start,
        )
    return ConventionalVerdict(
        "bound",
        bound=first_result.bound,
        degree=feasible[0],
        runtime_seconds=time.perf_counter() - start,
        feasible_degrees=tuple(feasible),
    )
