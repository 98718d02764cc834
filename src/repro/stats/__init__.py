"""Bayesian inference substrate: distributions, HMC, polytope samplers."""

from .batched import spawn_streams
from .densities import BatchedDensity, LoopDensity, as_batched
from .diagnostics import effective_sample_size, percentile_bands, split_rhat
from .distributions import (
    GumbelMin,
    HalfNormal,
    Logistic,
    Normal,
    Weibull,
    sample_truncated,
    truncated_logpdf,
)
from .hmc import HMCConfig, HMCResult, hmc_sample, hmc_sample_chains
from .nuts import nuts_sample, nuts_sample_chains
from .polytope import (
    AffineMap,
    Polytope,
    ReducedPolytope,
    chebyshev_center,
    interior_point,
    polytope_from_lp,
    random_interior_points,
)
from .reflective_hmc import (
    ReflectiveHMCResult,
    reflective_hmc_chains,
    reflective_hmc_sample,
)

__all__ = [
    "BatchedDensity",
    "LoopDensity",
    "as_batched",
    "spawn_streams",
    "effective_sample_size",
    "percentile_bands",
    "split_rhat",
    "GumbelMin",
    "HalfNormal",
    "Logistic",
    "Normal",
    "Weibull",
    "sample_truncated",
    "truncated_logpdf",
    "HMCConfig",
    "HMCResult",
    "hmc_sample",
    "hmc_sample_chains",
    "nuts_sample",
    "nuts_sample_chains",
    "AffineMap",
    "Polytope",
    "ReducedPolytope",
    "chebyshev_center",
    "interior_point",
    "polytope_from_lp",
    "random_interior_points",
    "ReflectiveHMCResult",
    "reflective_hmc_chains",
    "reflective_hmc_sample",
]
