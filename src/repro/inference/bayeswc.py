"""BayesWC — Bayesian inference on worst-case costs (Section 5.2).

The generative model (Eq. 5.12) is a log-location-scale survival model:

    β0, β, σ ~ Normal(0, γ0)            (i.i.d. prior)
    ε_i ~ g_noise(0, 1)                  (Gumbel-min by default)
    y_i = β0 + β·φ(V_i, v_i) + |σ|·ε_i
    c_i = exp(y_i) − shift

The ``shift`` (default 1) extends the paper's model to cost observations
that are exactly zero, which occur in benchmarks such as ZAlgorithm.
Posterior inference runs our HMC on the 2+F-dimensional unconstrained
posterior (features are standardized internally for good conditioning).

Given posterior draws θ_j, worst-case costs are simulated from the noise
model *truncated to lie above the observed maximum* at each size key
(Eqs. 5.10–5.11), which yields the soundness-with-respect-to-data and
robustness properties of Eq. (5.7) (Proposition 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
from scipy.special import erf, erfinv

from .dataset import StatDataset
from ..config import AnalysisConfig, BayesWCConfig, SamplerConfig
from ..errors import InferenceError
from ..stats.densities import BatchedDensity, rowmat
from ..stats.distributions import GumbelMin, Logistic, Normal
from ..stats.hmc import HMCConfig, hmc_sample_chains

SizeKey = Tuple[int, ...]


class _StdNormalNoise:
    @staticmethod
    def logpdf(z):
        return -0.5 * (z * z) - 0.5 * math.log(2.0 * math.pi)

    @staticmethod
    def dlogpdf(z):
        return -z

    @staticmethod
    def logpdf_and_dlogpdf(z):
        return _StdNormalNoise.logpdf(z), -z

    @staticmethod
    def cdf(z):
        return 0.5 * (1.0 + erf(z / math.sqrt(2.0)))

    @staticmethod
    def ppf(u):
        return math.sqrt(2.0) * erfinv(2.0 * np.asarray(u, dtype=float) - 1.0)


class _GumbelMinNoise:
    _dist = GumbelMin()

    @staticmethod
    def logpdf(z):
        return z - np.exp(np.minimum(z, 700.0))

    @staticmethod
    def dlogpdf(z):
        return 1.0 - np.exp(np.minimum(z, 700.0))

    @staticmethod
    def logpdf_and_dlogpdf(z):
        # share the exp — it dominates the batched survival density
        ez = np.exp(np.minimum(z, 700.0))
        return z - ez, 1.0 - ez

    @staticmethod
    def cdf(z):
        return 1.0 - np.exp(-np.exp(z))

    @staticmethod
    def ppf(u):
        return _GumbelMinNoise._dist.ppf(u)


class _LogisticNoise:
    _dist = Logistic()

    @staticmethod
    def logpdf(z):
        return _LogisticNoise._dist.logpdf(z)

    @staticmethod
    def dlogpdf(z):
        return -np.tanh(np.asarray(z) / 2.0)

    @staticmethod
    def logpdf_and_dlogpdf(z):
        return _LogisticNoise.logpdf(z), _LogisticNoise.dlogpdf(z)

    @staticmethod
    def cdf(z):
        return _LogisticNoise._dist.cdf(z)

    @staticmethod
    def ppf(u):
        return _LogisticNoise._dist.ppf(u)


NOISE_MODELS = {
    "gumbel": _GumbelMinNoise,
    "normal": _StdNormalNoise,
    "logistic": _LogisticNoise,
}


@dataclass
class SurvivalModel:
    """The per-label survival regression, ready for HMC."""

    features: np.ndarray  # (n_obs, F) standardized
    log_costs: np.ndarray  # (n_obs,)
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    gamma0: float
    noise: type
    shift: float

    @property
    def dim(self) -> int:
        return self.features.shape[1] + 2  # β0, β_1..F, σ

    def unpack(self, theta: np.ndarray):
        beta0 = theta[0]
        betas = theta[1:-1]
        sigma = abs(theta[-1])
        return beta0, betas, sigma

    def logdensity_and_grad(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        beta0, betas, sigma_raw = theta[0], theta[1:-1], theta[-1]
        sigma = abs(sigma_raw)
        if sigma < 1e-8 or not np.all(np.abs(theta) < 1e150):
            return -np.inf, np.zeros_like(theta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu = beta0 + self.features @ betas
            z = (self.log_costs - mu) / sigma
            loglik = float(np.sum(self.noise.logpdf(z))) - self.log_costs.size * math.log(sigma)
            logprior = float(-0.5 * np.sum(theta**2) / self.gamma0**2)
            if not np.isfinite(loglik):
                return -np.inf, np.zeros_like(theta)
            dz = self.noise.dlogpdf(z)
            grad = np.zeros_like(theta)
            grad[0] = float(np.sum(-dz / sigma))
            grad[1:-1] = -(self.features.T @ dz) / sigma
            dsigma = float(np.sum(-z * dz / sigma) - self.log_costs.size / sigma)
            grad[-1] = dsigma * (1.0 if sigma_raw >= 0 else -1.0)
            grad += -theta / self.gamma0**2
        if not np.all(np.isfinite(grad)):
            return -np.inf, np.zeros_like(theta)
        return loglik + logprior, grad

    def batched_density(self) -> "SurvivalDensity":
        """Precompiled batched log-density for the lockstep sampler."""
        return SurvivalDensity(self)

    def standardize(self, raw_features: np.ndarray) -> np.ndarray:
        return (raw_features - self.feature_mean) / self.feature_scale

    def location(self, theta: np.ndarray, size_key: SizeKey) -> float:
        beta0, betas, _sigma = self.unpack(theta)
        x = self.standardize(np.asarray(size_key, dtype=float))
        return float(beta0 + x @ betas)


class SurvivalDensity(BatchedDensity):
    """Fused batched survival log-density: one call per sampler step.

    Evaluates a whole ``(rows, dim)`` batch of parameter vectors with a
    fixed count of numpy dispatches — the per-step cost of the samplers
    is dispatch-bound at these data sizes, so fusing the model into one
    batched evaluation (instead of one scalar closure call per chain) is
    where the lockstep sampler's speedup comes from.  All reductions are
    last-axis sums over precomputed transposed factors, keeping every row
    bit-stable under batching (see :mod:`repro.stats.densities`); the
    row-loop scalar method :meth:`SurvivalModel.logdensity_and_grad` is
    retained for finite-difference tests but no longer drives sampling.
    """

    def __init__(self, model: SurvivalModel):
        self.model = model
        # (F, n_obs) so per-feature sums over observations are last-axis
        self.features_t = np.ascontiguousarray(model.features.T)
        self.log_costs = model.log_costs
        self.n_obs = model.log_costs.size
        self.inv_gamma_sq = 1.0 / model.gamma0**2
        self.noise = model.noise

    def batched(self, Theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        sigma_raw = Theta[:, -1]
        sigma = np.abs(sigma_raw)
        # overflow-sized coefficients propagate to a non-finite loglik or
        # gradient and are caught by the `good` mask at the end, so the
        # only up-front validity gate the math needs is a usable sigma
        ok = sigma >= 1e-8
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            betas = Theta[:, 1:-1]
            # mu[r, i] = beta0_r + features[i] · betas_r
            mu = Theta[:, 0][:, None] + rowmat(self.model.features, betas)
            inv_sigma = np.where(ok, 1.0 / sigma, 0.0)
            neg_inv_sigma = -inv_sigma
            z = (self.log_costs[None, :] - mu) * inv_sigma[:, None]
            lp_z, dz = self.noise.logpdf_and_dlogpdf(z)
            loglik = lp_z.sum(axis=-1) - self.n_obs * np.log(sigma)
            logprior = -0.5 * (Theta * Theta).sum(axis=-1) * self.inv_gamma_sq
            g0 = dz.sum(axis=-1) * neg_inv_sigma
            gbetas = rowmat(self.features_t, dz) * neg_inv_sigma[:, None]
            dsigma = (z * dz).sum(axis=-1) * neg_inv_sigma - self.n_obs * inv_sigma
            gsigma = np.where(sigma_raw >= 0, dsigma, -dsigma)
            full = np.concatenate(
                [g0[:, None], gbetas, gsigma[:, None]], axis=-1
            ) - Theta * self.inv_gamma_sq
            good = ok & np.isfinite(loglik) & np.all(np.isfinite(full), axis=-1)
            logp = np.where(good, loglik + logprior, -np.inf)
            grad = np.where(good[:, None], full, 0.0)
        return logp, grad


def build_survival_model(ds: StatDataset, config: BayesWCConfig) -> SurvivalModel:
    if not len(ds):
        raise InferenceError(f"no observations for label {ds.label!r}")
    raw = np.array(ds.size_keys(), dtype=float)
    costs = np.array([obs.cost for obs in ds.observations], dtype=float)
    if np.any(costs + config.cost_shift <= 0):
        raise InferenceError("costs must satisfy cost + shift > 0")
    log_costs = np.log(costs + config.cost_shift)
    mean = raw.mean(axis=0)
    scale = raw.std(axis=0)
    scale[scale < 1e-9] = 1.0
    features = (raw - mean) / scale
    noise = NOISE_MODELS.get(config.noise)
    if noise is None:
        raise InferenceError(f"unknown noise model {config.noise!r}")
    return SurvivalModel(
        features, log_costs, mean, scale, config.gamma0, noise, config.cost_shift
    )


@dataclass
class WorstCaseSamples:
    """M posterior batches of simulated worst-case costs per size key (Eq. 5.8)."""

    label: str
    samples: Dict[SizeKey, np.ndarray]  # each array has length M
    theta_draws: np.ndarray
    accept_rate: float
    divergences: int = 0
    retries: int = 0
    chain_diagnostics: List[Dict[str, float]] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        key = next(iter(self.samples))
        return self.samples[key].size

    def batch(self, j: int) -> Dict[SizeKey, float]:
        """The j-th list c'_j = (c'_{n,j} ; n ∈ N_D)."""
        return {key: float(values[j]) for key, values in self.samples.items()}


def infer_worst_case_samples(
    ds: StatDataset,
    config: AnalysisConfig,
    rng: np.random.Generator,
) -> WorstCaseSamples:
    """Posterior worst-case-cost simulation for one stat label.

    Runs HMC on the survival posterior, thins to M draws, then simulates
    one worst-case cost above the observed max per (draw, size key).
    """
    model = build_survival_model(ds, config.bayeswc)
    sampler: SamplerConfig = config.sampler
    M = config.num_posterior_samples
    per_chain = max(64, math.ceil(M / sampler.n_chains))
    hmc_config = HMCConfig(
        n_samples=per_chain,
        n_warmup=sampler.n_warmup,
        n_leapfrog=sampler.n_leapfrog,
        initial_step_size=max(sampler.initial_step_size, 0.02),
        target_accept=sampler.target_accept,
    )
    initials = []
    # moment-based starting points: regression through the data + jitter
    y_mean = float(model.log_costs.mean())
    y_std = float(model.log_costs.std() or 1.0)
    for _ in range(sampler.n_chains):
        start = np.zeros(model.dim)
        start[0] = y_mean + rng.normal(0, 0.1)
        start[-1] = max(y_std, 0.1) * math.exp(rng.normal(0, 0.1))
        initials.append(start)
    if sampler.algorithm == "nuts":
        from ..stats.nuts import nuts_sample_chains

        result = nuts_sample_chains(
            model.logdensity_and_grad, initials, hmc_config, rng, fault_key=ds.label
        )
    else:
        # precompiled batched density: one fused evaluation per sampler
        # step for the whole chain batch (the NUTS tree is inherently
        # scalar, so that path keeps the per-point closure)
        result = hmc_sample_chains(
            model.batched_density(), initials, hmc_config, rng, fault_key=ds.label
        )
    draws = result.samples
    idx = np.linspace(0, draws.shape[0] - 1, M).astype(int)
    thetas = draws[idx]

    max_costs = ds.max_costs()
    shift = model.shift
    samples: Dict[SizeKey, np.ndarray] = {}
    for key, cmax in max_costs.items():
        low_y = math.log(cmax + shift)
        out = np.empty(M)
        for j, theta in enumerate(thetas):
            _b0, _b, sigma = model.unpack(theta)
            mu = model.location(theta, key)
            z_low = (low_y - mu) / sigma
            u_low = float(model.noise.cdf(z_low))
            u = rng.uniform(u_low, 1.0)
            u = min(max(u, u_low), 1.0 - 1e-12)
            y = mu + sigma * float(model.noise.ppf(u))
            # numerical guard: the simulated worst case can never be below
            # the observed maximum (Eq. 5.7, left)
            out[j] = max(math.exp(min(y, 700.0)) - shift, cmax)
        samples[key] = out
    return WorstCaseSamples(
        ds.label,
        samples,
        thetas,
        result.accept_rate,
        divergences=result.divergences,
        retries=result.retries,
        chain_diagnostics=list(result.chain_diagnostics),
    )
