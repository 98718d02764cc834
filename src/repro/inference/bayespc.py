"""BayesPC — Bayesian inference on polynomial coefficients (Sections 5.3, 6.2).

The generative model of Eqs. (5.14)–(5.16) places truncated-normal priors
on the resource coefficients, defines the symbolic worst-case cost
``c'_i = p0 + Φ(V_i:Γ) − q0 − Φ(v_i:a)`` (a *linear* function of the
coefficients), and models observed costs as ``c_i = c'_i − ε_i`` with
``ε_i ~ Weibull(θ0, θ1)`` truncated to ``[0, c'_i]``.

The posterior is therefore a smooth density **restricted to the convex
polytope** cut out by the data constraints plus — in Hybrid BayesPC — the
conventional-AARA constraint set C0 (Eq. 6.3).  We sample it with
reflective HMC after eliminating equality constraints (Remark 5.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .hyperparams import BayesPCHyperparams
from ..errors import InferenceError
from ..lp import LinExpr
from ..stats.densities import BatchedDensity, rowmat
from ..stats.polytope import ReducedPolytope


@dataclass
class LikelihoodRow:
    """One observation's symbolic worst-case cost c'_i = w·x + o."""

    expr: LinExpr
    cost: float
    count: int = 1


class BayesPCDensity:
    """Log-density (and gradient) of the BayesPC posterior over x-space.

    * prior: HalfNormal(γ0) on the stat-judgment coefficient variables,
      HalfNormal(γ0 · nuisance_factor) on all remaining (nuisance ε)
      variables — a proper, weakly-informative stand-in for the paper's
      uninformative prior that keeps the posterior integrable when C0 is
      unbounded;
    * likelihood: truncated-Weibull cost gaps, including the truncation
      normalizer 1/F(c'_i) whose gradient pushes c'_i away from zero.
    """

    def __init__(
        self,
        names: Sequence[str],
        rows: Sequence[LikelihoodRow],
        hyper: BayesPCHyperparams,
        site_vars: Sequence[str],
        nuisance_factor: float = 20.0,
        truncation_floor: float = 0.1,
    ):
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        site_set = set(site_vars)
        scales = np.full(n, hyper.gamma0 * nuisance_factor)
        for name in site_set:
            if name in self.index:
                scales[self.index[name]] = hyper.gamma0
        self.prior_inv_var = 1.0 / scales**2
        self.theta0 = hyper.theta0
        self.theta1 = hyper.theta1
        #: the truncation interval endpoint is censored below at this value;
        #: without it the normalizer 1/F(c') has an (integrable) singularity
        #: at c' = 0 wherever a zero-cost observation allows c' -> 0, which
        #: creates boundary density spikes no sampler can traverse
        self.truncation_floor = truncation_floor

        # vectorize c'_i = W x + o
        W = np.zeros((len(rows), n))
        offsets = np.zeros(len(rows))
        costs = np.zeros(len(rows))
        counts = np.zeros(len(rows))
        for i, row in enumerate(rows):
            for name, coef in row.expr.coeffs.items():
                if name not in self.index:
                    raise InferenceError(f"likelihood references unknown variable {name!r}")
                W[i, self.index[name]] = coef
            offsets[i] = row.expr.const
            costs[i] = row.cost
            counts[i] = row.count
        self.W = W
        self.offsets = offsets
        self.costs = costs
        self.counts = counts

    # -- density ---------------------------------------------------------------

    def logdensity_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        k, lam = self.theta0, self.theta1
        logp = float(-0.5 * np.sum(self.prior_inv_var * x * x))
        grad = -self.prior_inv_var * x
        if self.W.shape[0] == 0:
            return logp, grad

        cprime = self.W @ x + self.offsets
        eps = cprime - self.costs
        if np.any(eps < 0.0) or np.any(cprime < 0.0):
            return -np.inf, grad
        if k > 1.0 and np.any(eps <= 1e-12):
            # the Weibull log-pdf diverges to -inf at eps = 0 for shape > 1
            return -np.inf, grad
        eps_safe = np.maximum(eps, 1e-12)

        t_eps = (eps_safe / lam) ** k
        log_pdf = math.log(k) - k * math.log(lam) + (k - 1.0) * np.log(eps_safe) - t_eps
        # truncation normalizer: -log F(c') with F the Weibull CDF; the
        # endpoint is censored below at truncation_floor (see __init__)
        cp_cens = np.maximum(cprime, self.truncation_floor)
        t_cp = (cp_cens / lam) ** k
        log_cdf = np.log(-np.expm1(-t_cp))
        loglik = float(np.sum(self.counts * (log_pdf - log_cdf)))

        # gradients w.r.t. c' (both eps and the normalizer move with c')
        dlog_pdf = (k - 1.0) / eps_safe - (k / lam) * (eps_safe / lam) ** (k - 1.0)
        # d/dc' [-log F] = -f(c')/F(c'), zero in the censored region
        pdf_cp = (k / lam) * (cp_cens / lam) ** (k - 1.0) * np.exp(-t_cp)
        cdf_cp = -np.expm1(-t_cp)
        hazard = np.where(
            cprime > self.truncation_floor,
            pdf_cp / np.maximum(cdf_cp, 1e-300),
            0.0,
        )
        row_grad = self.counts * (dlog_pdf - hazard)
        grad = grad + self.W.T @ row_grad
        return logp + loglik, grad

    def reduced_density(self, reduced: ReducedPolytope):
        """The density pulled back to the equality-reduced z-space."""
        if reduced.names != self.names:
            raise InferenceError("variable order mismatch between density and polytope")
        affine = reduced.affine

        def logdensity_and_grad_z(z: np.ndarray) -> Tuple[float, np.ndarray]:
            x = affine.embed(z)
            logp, grad_x = self.logdensity_and_grad(x)
            if not np.isfinite(logp):
                return -np.inf, np.zeros(affine.reduced_dim)
            return logp, affine.pull_gradient(grad_x)

        return logdensity_and_grad_z

    def scaled_reduced_density(
        self, reduced: ReducedPolytope, scales: np.ndarray
    ) -> "ScaledReducedDensity":
        """Fused, precompiled batched density over preconditioned y-space.

        Composes the equality-reduction embedding ``x = x0 + N z``, the
        preconditioner rescale ``z = scales · y`` and the likelihood's
        ``c' = W x + o`` into two constant matrices, so one sampler step
        costs two batched matvecs in and two out — for the whole chain
        batch — instead of a chain of per-chain closure calls.
        """
        if reduced.names != self.names:
            raise InferenceError("variable order mismatch between density and polytope")
        return ScaledReducedDensity(self, reduced.affine, np.asarray(scales, float))

    # -- posterior worst-case costs (for Fig. 2c-style reporting) ---------------

    def worst_case_costs(self, x: np.ndarray) -> np.ndarray:
        """c'_i values at a coefficient draw."""
        return self.W @ x + self.offsets


class ScaledReducedDensity(BatchedDensity):
    """Batched BayesPC posterior in the sampler's (reduced, scaled) coords.

    Semantically ``scaled_density ∘ reduced_density`` from the closures
    above, but evaluated for a whole ``(rows, dim)`` batch with the
    affine maps folded into precomputed effective matrices:

        x  = x0 + Neff·y        (Neff = N · diag(scales))
        c' = Weff·y + ceff      (Weff = W·Neff, ceff = W·x0 + offsets)
        ∇y = Neffᵀ·∇x_prior + Weffᵀ·row_grad

    All matvecs go through :func:`repro.stats.densities.rowmat` so every
    row is bit-stable under batching — the lockstep sampler's contract.
    """

    def __init__(self, density: BayesPCDensity, affine, scales: np.ndarray):
        self.density = density
        self.neff = affine.N * scales[None, :]
        self.neff_t = np.ascontiguousarray(self.neff.T)
        self.x0 = affine.x0
        self.n_x = affine.N.shape[0]
        self.weff = density.W @ self.neff
        self.weff_t = np.ascontiguousarray(self.weff.T)
        self.ceff = density.W @ affine.x0 + density.offsets
        # stacked operators: one batched matvec maps y -> (x - x0, c' - ceff)
        # and one maps (prior grad, likelihood row grad) -> grad_y, halving
        # the dispatch count of the sampler's hottest call
        self.m_in = np.ascontiguousarray(np.vstack([self.neff, self.weff]))
        self.m_out = np.ascontiguousarray(np.hstack([self.neff_t, self.weff_t]))
        # multiplying by an all-ones count vector is the identity bit for
        # bit, so it can be skipped outright in the common case
        self.uniform_counts = bool(np.all(density.counts == 1.0))

    def batched(self, Y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        d = self.density
        k, lam = d.theta0, d.theta1
        if d.W.shape[0] == 0:
            X = self.x0[None, :] + rowmat(self.neff, Y)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                pivX = d.prior_inv_var[None, :] * X
                logp = -0.5 * (pivX * X).sum(axis=-1)
                return logp, rowmat(self.neff_t, -pivX)
        fused = rowmat(self.m_in, Y)
        X = self.x0[None, :] + fused[:, : self.n_x]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pivX = d.prior_inv_var[None, :] * X
            logp = -0.5 * (pivX * X).sum(axis=-1)
            cprime = fused[:, self.n_x :] + self.ceff[None, :]
            eps = cprime - d.costs[None, :]
            eps_min = eps.min(axis=-1)
            bad = np.minimum(eps_min, cprime.min(axis=-1)) < 0.0
            if k > 1.0:
                # the Weibull log-pdf diverges to -inf at eps = 0 for shape > 1
                bad = bad | (eps_min <= 1e-12)
            eps_safe = np.maximum(eps, 1e-12)
            cp_cens = np.maximum(cprime, d.truncation_floor)
            if k == 1.0:
                # exponential noise — the paper's default shape θ0 = 1:
                # every pdf term collapses to a linear expression, so this
                # lane runs no pow / log / exp besides one expm1 per row
                t_eps = eps_safe / lam
                log_pdf = (-math.log(lam)) - t_eps
                em = np.expm1(-(cp_cens / lam))
                pdf_cp = (1.0 + em) / lam
                dlog_pdf = -1.0 / lam  # scalar, broadcast into row_grad
            else:
                r = eps_safe / lam
                t_eps = r**k
                log_pdf = (
                    math.log(k) - k * math.log(lam) + (k - 1.0) * np.log(eps_safe) - t_eps
                )
                dlog_pdf = (k - 1.0) / eps_safe - (k / lam) * (t_eps / r)
                r_cp = cp_cens / lam
                t_cp = r_cp**k
                em = np.expm1(-t_cp)
                # exp(-t) == expm1(-t) + 1, reusing the expensive transcendental
                pdf_cp = (k / lam) * (t_cp / r_cp) * (1.0 + em)
            cdf_cp = -em
            log_cdf = np.log(cdf_cp)
            hazard = np.where(
                cprime > d.truncation_floor,
                pdf_cp / np.maximum(cdf_cp, 1e-300),
                0.0,
            )
            if self.uniform_counts:
                loglik = (log_pdf - log_cdf).sum(axis=-1)
                row_grad = dlog_pdf - hazard
            else:
                loglik = (d.counts[None, :] * (log_pdf - log_cdf)).sum(axis=-1)
                row_grad = d.counts[None, :] * (dlog_pdf - hazard)
            full = rowmat(self.m_out, np.concatenate([-pivX, row_grad], axis=1))
        good = ~bad & np.isfinite(loglik) & np.all(np.isfinite(full), axis=-1)
        out_logp = np.where(good, logp + loglik, -np.inf)
        out_grad = np.where(good[:, None], full, np.zeros(1))
        return out_logp, out_grad
