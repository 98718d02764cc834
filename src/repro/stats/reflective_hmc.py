"""Reflective Hamiltonian Monte Carlo over convex polytopes.

Implements the sampler BayesPC needs (Remark 5.3 / Section 6.2): leapfrog
trajectories whose position updates reflect off the facets of
``{z : A z ≤ b}`` (Afshar & Domke 2015; Chalkis et al. 2023 — the
algorithm behind the Volesti library the paper uses).  Between
reflections the dynamics are standard HMC, so the stationary distribution
is the target density restricted to the polytope.

Sampling is the lockstep sampler of :mod:`repro.stats.batched` with a
:class:`~repro.stats.batched.BatchedDriftEngine` for the polytope:
:func:`reflective_hmc_sample` runs one chain as a batch of one and
:func:`reflective_hmc_chains` advances all chains of a cell in one
lockstep batch.  The warm-start helpers below (:func:`map_estimate` etc.)
don't sample at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import batched
from .base import HMCConfig, LogDensityAndGrad, ReflectiveHMCResult
from .densities import as_batched
from .polytope import Polytope


def reflective_hmc_sample(
    logdensity_and_grad: LogDensityAndGrad,
    polytope: Polytope,
    initial: np.ndarray,
    config: HMCConfig,
    rng: np.random.Generator,
    checkpoint_key: Optional[str] = None,
) -> ReflectiveHMCResult:
    """Sample the target restricted to ``polytope`` starting from an interior point.

    Checkpoints chain state at iteration boundaries when
    :mod:`repro.checkpoint` is active; the drift engine is rebuilt
    deterministically from the polytope, but the step clamp (derived from
    the rng-consuming initial-step search) is part of the snapshot.
    """
    return batched.single(
        as_batched(logdensity_and_grad),
        batched.BatchedDriftEngine(polytope),
        np.asarray(initial, dtype=float),
        config,
        rng,
        checkpoint_key,
    )


def map_estimate(
    logdensity_and_grad: LogDensityAndGrad,
    polytope: Polytope,
    initial: np.ndarray,
    taus=(10.0, 1.0, 0.1, 0.01),
    maxiter: int = 400,
) -> np.ndarray:
    """Approximate MAP inside the polytope via an interior-point method.

    Maximizes ``logp(z) + τ·Σ log slack_i(z)`` with L-BFGS-B for a
    decreasing barrier schedule τ.  The log-barrier keeps iterates strictly
    interior (where the BayesPC density and its gradient are finite) and
    regularizes the narrow channels near facets that defeat plain
    projected/backtracking ascent.
    """
    from scipy.optimize import minimize

    A, b = polytope.A, polytope.b
    z = np.asarray(initial, dtype=float).copy()
    best_z, best_logp = z.copy(), logdensity_and_grad(z)[0]
    if not np.isfinite(best_logp):
        return z

    for tau in taus:

        def objective(point):
            slack = b - A @ point
            bad = slack <= 0
            if np.any(bad):
                # a sloped penalty so the line search can find its way back
                violation = float(np.sum(-slack[bad]))
                return 1e8 * (1.0 + violation), 1e8 * (A.T @ bad.astype(float))
            logp, grad = logdensity_and_grad(point)
            if not np.isfinite(logp):
                return 1e8, np.zeros_like(point)
            value = -(logp + tau * float(np.sum(np.log(slack))))
            gradient = -(grad - tau * (A.T @ (1.0 / slack)))
            return value, gradient

        result = minimize(
            objective,
            z,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": maxiter, "maxcor": 30},
        )
        candidate = result.x
        if polytope.contains(candidate, tol=-1e-12):
            logp, _ = logdensity_and_grad(candidate)
            if np.isfinite(logp):
                z = candidate
                if logp > best_logp:
                    best_logp, best_z = logp, candidate.copy()
    return best_z


def diagonal_preconditioner(
    logdensity_and_grad: LogDensityAndGrad,
    point: np.ndarray,
    polytope: Polytope,
    fd_step: float = 1e-5,
    cap: float = 1e8,
) -> np.ndarray:
    """Per-coordinate scales 1/sqrt(curvature) from a finite-difference
    diagonal Hessian of the negative log-density at ``point``."""
    dim = point.size
    scales = np.ones(dim)
    _logp0, grad0 = logdensity_and_grad(point)
    for i in range(dim):
        for step in (fd_step, 10 * fd_step, 100 * fd_step):
            probe = point.copy()
            probe[i] += step
            if not polytope.contains(probe, tol=-1e-12):
                probe = point.copy()
                probe[i] -= step
                if not polytope.contains(probe, tol=-1e-12):
                    continue
                logp, grad = logdensity_and_grad(probe)
                if np.isfinite(logp):
                    curvature = (grad0[i] - grad[i]) / step
                    break
                continue
            logp, grad = logdensity_and_grad(probe)
            if np.isfinite(logp):
                curvature = (grad[i] - grad0[i]) / step
                break
        else:
            curvature = -1.0
        curvature = -curvature  # negative log-density curvature
        curvature = min(max(curvature, 1.0 / cap), cap)
        scales[i] = 1.0 / math.sqrt(curvature)
    return scales


@dataclass
class ScaledProblem:
    """A coordinate-rescaled target: y = z / scales."""

    polytope: Polytope
    logdensity_and_grad: LogDensityAndGrad
    scales: np.ndarray

    def to_z(self, y: np.ndarray) -> np.ndarray:
        return self.scales * y

    def from_z(self, z: np.ndarray) -> np.ndarray:
        return z / self.scales


def rescale_problem(
    logdensity_and_grad: LogDensityAndGrad,
    polytope: Polytope,
    scales: np.ndarray,
) -> ScaledProblem:
    """Re-parameterize so every coordinate has comparable curvature."""
    A_scaled = polytope.A * scales[None, :]
    scaled_polytope = Polytope(A_scaled, polytope.b.copy(), list(polytope.names))

    def scaled_density(y: np.ndarray) -> Tuple[float, np.ndarray]:
        logp, grad = logdensity_and_grad(scales * y)
        return logp, scales * grad

    return ScaledProblem(scaled_polytope, scaled_density, scales)


def reflective_hmc_chains(
    logdensity_and_grad: LogDensityAndGrad,
    polytope: Polytope,
    initial_points: List[np.ndarray],
    config: HMCConfig,
    rng: np.random.Generator,
    fault_key: str = "bayespc",
) -> ReflectiveHMCResult:
    """Several self-healing chains, concatenated draws.

    See :func:`repro.stats.batched.sample_chains`.
    """
    return batched.sample_chains(
        logdensity_and_grad, polytope, initial_points, config, rng, fault_key
    )
