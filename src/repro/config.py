"""Analysis configuration (mirrors the paper artifact's config files).

Each analysis run of the prototype takes a program, a list of inputs, and
a configuration: polynomial degree, the data-driven technique, the
probabilistic model's hyperparameters, and sampler settings (Section 7,
"Implementation").  Hyperparameters left at ``None`` are determined by the
empirical-Bayes procedure of Appendix B.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class SamplerConfig:
    """HMC settings shared by BayesWC (plain) and BayesPC (reflective)."""

    n_warmup: int = 400
    n_leapfrog: int = 20
    initial_step_size: float = 0.05
    target_accept: float = 0.8
    n_chains: int = 2
    #: sampler for BayesWC's unconstrained posterior: 'hmc' or 'nuts'
    #: (BayesPC always uses reflective HMC, which NUTS does not support)
    algorithm: str = "hmc"


@dataclass(frozen=True)
class BayesWCConfig:
    """Survival model of Eq. (5.12) / Appendix B.1."""

    gamma0: float = 5.0  # prior scale for (β0, β…, σ)
    noise: str = "gumbel"  # 'gumbel' | 'normal' | 'logistic' (ablation knob)
    cost_shift: float = 1.0  # log-model offset so zero costs are supported


@dataclass(frozen=True)
class BayesPCConfig:
    """Constrained polynomial-coefficient model of Eqs. (5.14–5.16) / App. B.2."""

    gamma0: Optional[float] = None  # None => empirical Bayes (Eq. B.5)
    theta0: float = 1.0  # Weibull shape (paper uses 1.0–1.5 per benchmark)
    theta1: Optional[float] = None  # None => empirical Bayes (Eq. B.9)
    nuisance_scale_factor: float = 20.0  # weak prior scale multiplier for ε vars
    #: censoring resolution for the truncation normalizer F(c'): avoids the
    #: integrable density singularity at c' -> 0 for zero-cost observations
    truncation_floor: float = 0.1


@dataclass(frozen=True)
class ExecutionBudget:
    """Resource caps for analyzing untrusted program source.

    Every stage that executes or elaborates user source (lexer, parser,
    interpreter, constraint generation, LP) consults its cap; ``None``
    disables that cap (the trusted-suite default).  Budgets can only
    *abort* an analysis — they never change what a successful analysis
    computes — so they are execution knobs, excluded from result-cache
    keys alongside ``jobs``/``task_timeout``.
    """

    #: lexer: maximum source length in characters
    max_source_chars: Optional[int] = None
    #: lexer: maximum number of tokens produced
    max_tokens: Optional[int] = None
    #: parser: maximum expression/pattern nesting depth
    max_nesting_depth: Optional[int] = None
    #: interpreter: maximum eval steps per top-level run (fuel)
    eval_steps: Optional[int] = None
    #: interpreter: maximum user-function call depth
    eval_call_depth: Optional[int] = None
    #: interpreter: maximum constructed value size (list/tuple cells)
    eval_value_size: Optional[int] = None
    #: LP: maximum declared variables
    lp_variables: Optional[int] = None
    #: LP: maximum registered constraints
    lp_constraints: Optional[int] = None

    @classmethod
    def untrusted(cls) -> "ExecutionBudget":
        """Tight defaults for source submitted by unauthenticated tenants.

        Generous enough that every suite benchmark analyzes unchanged
        (verified by the source↔benchmark equivalence tests), tight
        enough that the hostile corpus terminates in well under a second
        per stage.
        """
        return cls(
            max_source_chars=256_000,
            max_tokens=100_000,
            max_nesting_depth=100,
            eval_steps=2_000_000,
            eval_call_depth=10_000,
            eval_value_size=1_000_000,
            lp_variables=200_000,
            lp_constraints=200_000,
        )


def parse_caps(budget: Optional[ExecutionBudget]) -> Dict[str, Optional[int]]:
    """The parser's keyword caps under ``budget`` (all ``None`` without one)."""
    return {
        "max_chars": getattr(budget, "max_source_chars", None),
        "max_tokens": getattr(budget, "max_tokens", None),
        "max_depth": getattr(budget, "max_nesting_depth", None),
    }


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything one analysis run needs besides program + data."""

    degree: int = 1
    num_posterior_samples: int = 100  # the paper's M (1000 in the artifact)
    seed: int = 0
    #: root LP objective after the data-gap stage (Section 6.1): 'sum'
    #: minimizes the sum of the root coefficients, 'degree' minimizes
    #: higher-degree coefficients with higher priority.  The paper's
    #: prototype offers both; 'sum' lets rare extreme observations land in
    #: high-degree coefficients, which is what makes e.g. Hybrid QuickSelect
    #: sound at large sizes.
    objective: str = "sum"
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    bayeswc: BayesWCConfig = field(default_factory=BayesWCConfig)
    bayespc: BayesPCConfig = field(default_factory=BayesPCConfig)
    #: execution knobs for the evaluation harness (never part of the
    #: result-cache key — they cannot change what an analysis computes):
    #: worker processes for the task runner (1 = in-process)
    jobs: int = 1
    #: on-disk result cache directory for the task runner (None = off)
    cache_dir: Optional[str] = None
    #: per-task wall-clock watchdog in seconds (None = no watchdog)
    task_timeout: Optional[float] = None
    #: False aborts the whole run on the first failed cell (--fail-fast)
    keep_going: bool = True
    #: resource caps for untrusted source (None = uncapped trusted path).
    #: An execution knob like the others: budgets abort, never alter, a
    #: successful analysis, and aborted (non-ok) outcomes are never cached.
    budget: Optional[ExecutionBudget] = None

    def with_(self, **kwargs) -> "AnalysisConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = AnalysisConfig()
