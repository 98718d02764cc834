"""Hybrid AARA: the typing rules H:Opt, H:BayesWC, H:BayesPC (Section 6).

This module is the engine for *all six* analysis configurations of the
paper's evaluation.  A fully data-driven analysis is the special case
where the whole function body is a single ``stat`` expression (the
benchmark programs are written exactly that way, mirroring Appendix C),
so Opt / BayesWC / BayesPC and their Hybrid counterparts share one code
path:

* **Opt / Hybrid Opt** — the H:Opt rule (Eq. 6.2) adds, for every runtime
  measurement, the constraint ``p0 + Φ(V:Γ) ≥ q0 + Φ(v:a) + c`` to the
  conventional AARA LP; the staged objective first minimizes the total
  cost gap (Opt-LP), then the root coefficients.
* **BayesWC / Hybrid BayesWC** — observed costs are replaced by symbolic
  per-size worst-case variables that are *pinned* to posterior simulations
  from the survival model, producing the M joint LPs of Fig. 3a.
* **BayesPC / Hybrid BayesPC** — the first pass builds the constraint set
  C0 with H:Opt; reflective HMC then samples the BayesPC posterior
  restricted to C0's polytope (Eq. 6.3); each draw pins the stat-site
  coefficients and re-solves the LP (Eqs. 6.4–6.5, Fig. 3b).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bayespc import BayesPCDensity, LikelihoodRow
from .bayeswc import WorstCaseSamples, infer_worst_case_samples
from .dataset import RuntimeDataset, StatDataset
from .hyperparams import resolve_bayespc_hyperparams
from .posterior import PosteriorResult
from .. import telemetry
from ..aara.analyze import Analysis, build_analysis, signature_bound, solve_analysis
from ..aara.annot import AnnType, make_template, potential_of_env, potential_of_value
from ..aara.bound import ResourceBound
from ..aara.typecheck import StatSite
from ..config import AnalysisConfig
from ..errors import InfeasibleError, InferenceError
from ..lang import ast as A
from ..lp import LinExpr, solve_lexicographic
from ..stats.hmc import HMCConfig
from ..stats.polytope import low_norm_interior_point, polytope_from_lp
from ..stats.reflective_hmc import (
    diagonal_preconditioner,
    map_estimate,
    reflective_hmc_chains,
    rescale_problem,
)

SizeKey = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Site bookkeeping shared by the three rules
# ---------------------------------------------------------------------------


@dataclass
class SiteOccurrence:
    """One application of a data-driven typing rule during constraint gen."""

    label: str
    ctx: Dict[str, AnnType]
    p_in: LinExpr
    result_ann: AnnType
    q0: LinExpr
    costful: bool
    #: per-observation symbolic worst-case costs (costful occurrences only)
    rows: List[LikelihoodRow] = field(default_factory=list)

    def judgment_vars(self) -> List[str]:
        names: set = set()
        for ann in self.ctx.values():
            for coeff in ann.coefficients():
                names.update(coeff.variables())
        names.update(self.p_in.variables())
        for coeff in self.result_ann.coefficients():
            names.update(coeff.variables())
        names.update(self.q0.variables())
        return sorted(names)


@dataclass
class SiteCollector:
    """Accumulates data constraints, the gap objective, and w-variables."""

    occurrences: List[SiteOccurrence] = field(default_factory=list)
    gap_objective: LinExpr = field(default_factory=LinExpr)
    #: (label, size key) -> worst-case variable name (BayesWC mode)
    wvars: Dict[Tuple[str, SizeKey], str] = field(default_factory=dict)

    def site_vars(self) -> List[str]:
        names: set = set()
        for occ in self.occurrences:
            names.update(occ.judgment_vars())
        return sorted(names)

    def likelihood_rows(self) -> List[LikelihoodRow]:
        rows: List[LikelihoodRow] = []
        for occ in self.occurrences:
            if occ.costful:
                rows.extend(occ.rows)
        return rows


def make_data_handler(
    dataset: RuntimeDataset,
    collector: SiteCollector,
    cost_mode: str = "const",
):
    """Build a stat handler implementing H:Opt (``const``) or the symbolic
    worst-case-cost variant used by H:BayesWC (``wvar``)."""
    if cost_mode not in ("const", "wvar"):
        raise InferenceError(f"unknown cost mode {cost_mode!r}")

    def handler(site: StatSite) -> Tuple[AnnType, LinExpr]:
        ds: StatDataset = dataset[site.label]
        lp = site.lp
        result_ann = make_template(site.result_type, site.degree, lp, hint=f"st.{site.label}")
        q0 = lp.fresh(f"st.{site.label}.q0")
        occ = SiteOccurrence(site.label, dict(site.ctx), site.p_in, result_ann, q0, site.costful)
        collector.occurrences.append(occ)

        max_costs = ds.max_costs()
        # group observations whose potential expressions coincide
        groups: Dict[Tuple, List] = {}
        for obs in ds.observations:
            phi_env = potential_of_env(obs.env_dict(), site.ctx)
            phi_out = potential_of_value(obs.value, result_ann)
            key = (phi_env, phi_out, obs.size_key())
            groups.setdefault(key, []).append(obs)

        for (phi_env, phi_out, size_key), members in groups.items():
            count = len(members)
            cmax = max_costs[size_key]
            lhs = site.p_in + phi_env
            base_rhs = q0 + phi_out
            if not site.costful:
                # cost-free derivations pass potential but pay nothing
                lp.add_ge(lhs, base_rhs, note=f"H:cf {site.label}")
                continue
            if cost_mode == "const":
                cost_term: LinExpr | float = cmax
            else:
                wname = collector.wvars.get((site.label, size_key))
                if wname is None:
                    wexpr = lp.fresh(f"wc.{site.label}")
                    wname = wexpr.variables()[0]
                    collector.wvars[(site.label, size_key)] = wname
                cost_term = LinExpr.var(wname)
            lp.add_ge(lhs, base_rhs + cost_term, note=f"H:data {site.label}")
            gap = (lhs - base_rhs - cost_term) * count
            collector.gap_objective = collector.gap_objective + gap
            occ.rows.append(
                LikelihoodRow(expr=lhs - base_rhs, cost=cmax, count=count)
            )
        return result_ann, q0

    return handler


# ---------------------------------------------------------------------------
# Opt and Hybrid Opt (Section 5.1 / rule H:Opt)
# ---------------------------------------------------------------------------


def classify_mode(program: A.Program, fname: str) -> str:
    """'data-driven' when the root body is a single stat expression."""
    body = program[fname].body
    if isinstance(body, A.Stat):
        return "data-driven"
    return "hybrid"


def run_opt(
    program: A.Program,
    fname: str,
    dataset: RuntimeDataset,
    config: AnalysisConfig,
) -> PosteriorResult:
    """Optimization-based analysis (Opt-LP embedded in AARA via H:Opt)."""
    start = time.perf_counter()
    collector = SiteCollector()
    handler = make_data_handler(dataset, collector, cost_mode="const")
    analysis = build_analysis(
        program, fname, config.degree, stat_handler=handler, budget=config.budget
    )
    result = solve_analysis(
        analysis,
        extra_objectives=[collector.gap_objective],
        objective_mode=config.objective,
    )
    elapsed = time.perf_counter() - start
    return PosteriorResult(
        method="opt",
        mode=classify_mode(program, fname),
        bounds=[result.bound],
        runtime_seconds=elapsed,
        diagnostics={
            "gap": result.solution.objective_values[0],
            "lp_fallbacks": float(result.solution.fallbacks),
        },
    )


# ---------------------------------------------------------------------------
# BayesWC and Hybrid BayesWC (Section 5.2 / rule H:BayesWC, Fig. 3a)
# ---------------------------------------------------------------------------


def run_bayeswc(
    program: A.Program,
    fname: str,
    dataset: RuntimeDataset,
    config: AnalysisConfig,
    rng: Optional[np.random.Generator] = None,
) -> PosteriorResult:
    start = time.perf_counter()
    rng = rng if rng is not None else np.random.default_rng(config.seed)

    collector = SiteCollector()
    handler = make_data_handler(dataset, collector, cost_mode="wvar")
    analysis = build_analysis(
        program, fname, config.degree, stat_handler=handler, budget=config.budget
    )
    objectives = [collector.gap_objective] + analysis.root_objectives(config.objective)

    # survival inference per label actually used by the analysis
    labels = sorted({occ.label for occ in collector.occurrences})
    wc: Dict[str, WorstCaseSamples] = {}
    with telemetry.span("posterior.survival", labels=len(labels)):
        for label in labels:
            wc[label] = infer_worst_case_samples(dataset[label], config, rng)

    bounds: List[ResourceBound] = []
    failures = 0
    lp_fallbacks = 0
    sig = analysis.signature
    with telemetry.span(
        "posterior.resolve", method="bayeswc", samples=config.num_posterior_samples
    ) as tspan:
        for j in range(config.num_posterior_samples):
            pinned = {}
            for (label, size_key), wname in collector.wvars.items():
                pinned[wname] = float(wc[label].samples[size_key][j])
            try:
                solution = solve_lexicographic(
                    analysis.lp, objectives, context=f"BayesWC sample {j}", pinned=pinned
                )
            except InfeasibleError:
                failures += 1
                continue
            lp_fallbacks += solution.fallbacks
            bounds.append(signature_bound(fname, sig, solution))
        tspan.set(failures=failures, lp_fallbacks=lp_fallbacks)
    elapsed = time.perf_counter() - start
    diagnostics: Dict[str, float] = {}
    chain_diagnostics: List[Dict[str, float]] = []
    for label in labels:
        diagnostics[f"accept_rate[{label}]"] = wc[label].accept_rate
        diagnostics[f"divergences[{label}]"] = float(wc[label].divergences)
        diagnostics[f"sampler_retries[{label}]"] = float(wc[label].retries)
        chain_diagnostics.extend(wc[label].chain_diagnostics)
    diagnostics["lp_fallbacks"] = float(lp_fallbacks)
    return PosteriorResult(
        method="bayeswc",
        mode=classify_mode(program, fname),
        bounds=bounds,
        runtime_seconds=elapsed,
        failures=failures,
        diagnostics=diagnostics,
        chain_diagnostics=chain_diagnostics,
    )


# ---------------------------------------------------------------------------
# BayesPC and Hybrid BayesPC (Section 5.3 / Section 6.2, Fig. 3b)
# ---------------------------------------------------------------------------


def run_bayespc(
    program: A.Program,
    fname: str,
    dataset: RuntimeDataset,
    config: AnalysisConfig,
    rng: Optional[np.random.Generator] = None,
) -> PosteriorResult:
    start = time.perf_counter()
    rng = rng if rng is not None else np.random.default_rng(config.seed)

    # First pass: conventional AARA + H:Opt => constraint set C0 (Fig. 3b)
    collector = SiteCollector()
    handler = make_data_handler(dataset, collector, cost_mode="const")
    analysis = build_analysis(
        program, fname, config.degree, stat_handler=handler, budget=config.budget
    )

    # Preliminary Opt solve: feasibility check + empirical Bayes (App. B)
    opt_solution = solve_lexicographic(
        analysis.lp,
        [collector.gap_objective] + analysis.root_objectives(config.objective),
        context="BayesPC preliminary Opt",
    )
    opt_gaps = [
        row.expr.evaluate(opt_solution.assignment) - row.cost
        for row in collector.likelihood_rows()
    ]
    hyper = resolve_bayespc_hyperparams(config.bayespc, analysis, opt_solution, opt_gaps)

    # Build the polytope over C0 and the constrained density (Eq. 6.3)
    with telemetry.span("posterior.polytope") as tspan:
        reduced = polytope_from_lp(analysis.lp)
        tspan.set(dim=int(reduced.polytope.dim), facets=int(reduced.polytope.A.shape[0]))
    density = BayesPCDensity(
        reduced.names,
        collector.likelihood_rows(),
        hyper,
        collector.site_vars(),
        nuisance_factor=config.bayespc.nuisance_scale_factor,
        truncation_floor=config.bayespc.truncation_floor,
    )
    logdensity_z = density.reduced_density(reduced)

    sampler = config.sampler
    # Warm start at the (convex) MAP and precondition by the local curvature;
    # the raw interior point can be 10^5 nats from the typical set.
    with telemetry.span("posterior.warmstart", dim=int(reduced.polytope.dim)):
        interior = low_norm_interior_point(reduced)
        mode = map_estimate(logdensity_z, reduced.polytope, interior)
        scales = diagonal_preconditioner(logdensity_z, mode, reduced.polytope)
        scaled = rescale_problem(logdensity_z, reduced.polytope, scales)
        base_start = scaled.from_z(mode)
    starts = []
    slack = scaled.polytope.slack(base_start) if scaled.polytope.dim else np.zeros(0)
    margin = float(max(slack.min(), 0.0)) if slack.size else 1.0
    for _ in range(sampler.n_chains):
        jitter = rng.normal(size=scaled.polytope.dim) * min(0.1, 0.2 * margin)
        candidate = base_start + jitter
        if scaled.polytope.dim == 0 or scaled.polytope.contains(candidate, tol=-1e-10):
            starts.append(candidate)
        else:
            starts.append(base_start)
    M = config.num_posterior_samples
    per_chain = max(32, int(np.ceil(M / sampler.n_chains)))
    hmc_config = HMCConfig(
        n_samples=per_chain,
        n_warmup=sampler.n_warmup,
        n_leapfrog=sampler.n_leapfrog,
        initial_step_size=sampler.initial_step_size,
        target_accept=sampler.target_accept,
    )
    # precompiled batched density: the embedding, rescale and likelihood
    # matrices are folded once here instead of re-applied per step
    fused_density = density.scaled_reduced_density(reduced, scales)
    chain_result = reflective_hmc_chains(
        fused_density, scaled.polytope, starts, hmc_config, rng,
        fault_key=fname,
    )
    draws_scaled = chain_result.samples
    idx = np.linspace(0, draws_scaled.shape[0] - 1, M).astype(int)
    draws = draws_scaled[idx] * scales[None, :]

    # Per-draw: pin the sampled stat-judgment coefficients, re-solve (Eq. 6.5)
    site_vars = collector.site_vars()
    sig = analysis.signature
    root_objectives = analysis.root_objectives(config.objective)
    bounds: List[ResourceBound] = []
    failures = 0
    lp_fallbacks = opt_solution.fallbacks
    with telemetry.span(
        "posterior.resolve", method="bayespc", samples=int(draws.shape[0])
    ) as tspan:
        for j in range(draws.shape[0]):
            assignment_x = reduced.assignment(draws[j])
            pinned = {name: max(0.0, assignment_x.get(name, 0.0)) for name in site_vars}
            try:
                solution = solve_lexicographic(
                    analysis.lp,
                    root_objectives,
                    context=f"BayesPC sample {j}",
                    pinned=pinned,
                    pin_slack=1e-6,
                )
            except InfeasibleError:
                failures += 1
                continue
            lp_fallbacks += solution.fallbacks
            bounds.append(signature_bound(fname, sig, solution))
        tspan.set(failures=failures, lp_fallbacks=lp_fallbacks)
    elapsed = time.perf_counter() - start
    return PosteriorResult(
        method="bayespc",
        mode=classify_mode(program, fname),
        bounds=bounds,
        runtime_seconds=elapsed,
        failures=failures,
        diagnostics={
            "accept_rate": chain_result.accept_rate,
            "gamma0": hyper.gamma0,
            "theta1": hyper.theta1,
            "polytope_dim": float(reduced.polytope.dim),
            "divergences": float(chain_result.divergences),
            "sampler_retries": float(chain_result.retries),
            "lp_fallbacks": float(lp_fallbacks),
        },
        chain_diagnostics=list(chain_result.chain_diagnostics),
    )


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


METHODS = {
    "opt": run_opt,
    "bayeswc": run_bayeswc,
    "bayespc": run_bayespc,
}


def run_analysis(
    program: A.Program,
    fname: str,
    dataset: RuntimeDataset,
    config: AnalysisConfig,
    method: str,
    rng: Optional[np.random.Generator] = None,
) -> PosteriorResult:
    """Run one of {opt, bayeswc, bayespc} on a (possibly hybrid) program."""
    if method not in METHODS:
        raise InferenceError(f"unknown analysis method {method!r}")
    if method == "opt":
        return run_opt(program, fname, dataset, config)
    return METHODS[method](program, fname, dataset, config, rng=rng)
