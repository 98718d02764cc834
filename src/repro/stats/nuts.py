"""No-U-Turn Sampler (Hoffman & Gelman 2014, Algorithm 3).

An optional drop-in replacement for plain HMC in BayesWC's unconstrained
survival posterior (the paper's "innovations from the sampling algorithm
literature").  Implements the slice-variant recursive tree doubling with
dual-averaging step-size adaptation during warmup.

NUTS is the one sampler the lockstep core does not stack: the recursive
tree consumes the rng a data-dependent number of times per iteration, so
chains cannot share a batched density evaluation without changing their
bit-streams.  Its chains run one after another, over the same per-chain
rng streams (:func:`repro.stats.batched.spawn_streams`) that HMC and
reflective HMC use, so a cell's chain ``i`` sees the same stream
regardless of algorithm choice.  The initial step search is the lockstep
core's, run as a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import (
    HMCConfig,
    HMCResult,
    LogDensityAndGrad,
    _DualAveraging,
    combine_chains,
    sample_with_healing,
)
from .batched import _find_initial_step_row, spawn_streams
from .densities import CountingDensity, as_batched
from .. import checkpoint, faultinject, telemetry
from ..errors import InferenceError

#: maximum tree depth (2^10 = 1024 leapfrog steps per iteration at most)
MAX_TREE_DEPTH = 10
#: slice boundary tolerance (Hoffman & Gelman's Δ_max)
DELTA_MAX = 1000.0


@dataclass
class _Tree:
    q_minus: np.ndarray
    p_minus: np.ndarray
    g_minus: np.ndarray
    q_plus: np.ndarray
    p_plus: np.ndarray
    g_plus: np.ndarray
    q_proposal: np.ndarray
    logp_proposal: float
    g_proposal: np.ndarray
    n_valid: int
    keep_going: bool
    alpha: float
    n_alpha: int


def _leapfrog_one(q, p, g, eps, logdensity_and_grad):
    with np.errstate(over="ignore", invalid="ignore"):
        p_half = p + 0.5 * eps * g
        q_new = q + eps * p_half
        if not np.all(np.isfinite(q_new)):
            return q_new, p_half, -np.inf, g
        logp, g_new = logdensity_and_grad(q_new)
        if not np.isfinite(logp) or not np.all(np.isfinite(g_new)):
            return q_new, p_half, -np.inf, g_new
        p_new = p_half + 0.5 * eps * g_new
    return q_new, p_new, logp, g_new


def _build_tree(q, p, g, log_u, direction, depth, eps, h0, logdensity_and_grad, rng):
    if depth == 0:
        q1, p1, logp1, g1 = _leapfrog_one(q, p, g, direction * eps, logdensity_and_grad)
        joint = logp1 - 0.5 * float(p1 @ p1) if np.isfinite(logp1) else -np.inf
        n_valid = int(log_u <= joint)
        keep_going = log_u < joint + DELTA_MAX
        alpha = min(1.0, math.exp(min(0.0, joint - h0))) if np.isfinite(joint) else 0.0
        return _Tree(q1, p1, g1, q1, p1, g1, q1, logp1, g1, n_valid, keep_going, alpha, 1)

    half = _build_tree(q, p, g, log_u, direction, depth - 1, eps, h0, logdensity_and_grad, rng)
    if not half.keep_going:
        return half
    if direction == -1:
        other = _build_tree(
            half.q_minus, half.p_minus, half.g_minus, log_u, direction, depth - 1, eps, h0, logdensity_and_grad, rng
        )
        q_minus, p_minus, g_minus = other.q_minus, other.p_minus, other.g_minus
        q_plus, p_plus, g_plus = half.q_plus, half.p_plus, half.g_plus
    else:
        other = _build_tree(
            half.q_plus, half.p_plus, half.g_plus, log_u, direction, depth - 1, eps, h0, logdensity_and_grad, rng
        )
        q_minus, p_minus, g_minus = half.q_minus, half.p_minus, half.g_minus
        q_plus, p_plus, g_plus = other.q_plus, other.p_plus, other.g_plus

    total = half.n_valid + other.n_valid
    if other.n_valid > 0 and rng.uniform() < other.n_valid / max(total, 1):
        proposal = (other.q_proposal, other.logp_proposal, other.g_proposal)
    else:
        proposal = (half.q_proposal, half.logp_proposal, half.g_proposal)

    span = q_plus - q_minus
    no_u_turn = (span @ p_minus) >= 0 and (span @ p_plus) >= 0
    return _Tree(
        q_minus,
        p_minus,
        g_minus,
        q_plus,
        p_plus,
        g_plus,
        proposal[0],
        proposal[1],
        proposal[2],
        total,
        other.keep_going and no_u_turn,
        half.alpha + other.alpha,
        half.n_alpha + other.n_alpha,
    )


def nuts_sample(
    logdensity_and_grad: LogDensityAndGrad,
    initial: np.ndarray,
    config: HMCConfig,
    rng: np.random.Generator,
    checkpoint_key: Optional[str] = None,
) -> HMCResult:
    """Run one NUTS chain; warmup adapts the step size via dual averaging.

    Checkpoints at iteration boundaries when :mod:`repro.checkpoint` is
    active — tree building consumes the rng heavily inside one
    iteration, but the per-iteration state (position, step, adapter, rng
    bit-generator) is all a resumed chain needs to replay identically.
    """
    density = as_batched(logdensity_and_grad)
    q = np.asarray(initial, dtype=float).copy()
    dim = q.size
    cursor = checkpoint.chain_cursor(checkpoint_key, config, q)
    saved = cursor.load() if cursor is not None else None
    if saved is not None and saved["status"] == "done":
        checkpoint.restore_rng(rng, saved["rng"])
        return HMCResult(
            np.asarray(saved["samples"], dtype=float).reshape(config.n_samples, dim),
            saved["accept_rate"],
            saved["step_size"],
            np.asarray(saved["logdensities"], dtype=float),
            divergences=saved["divergences"],
        )

    samples = np.empty((config.n_samples, dim))
    logdensities = np.empty(config.n_samples)
    start_iteration = 0
    if saved is not None:
        q = np.asarray(saved["position"], dtype=float)
        logp = float(saved["logp"])
        g = np.asarray(saved["grad"], dtype=float)
        step = float(saved["step_size"])
        adapter = _DualAveraging(config.initial_step_size, config.target_accept)
        adapter.restore(saved["adapter"])
        collected = int(saved["collected"])
        if collected:
            samples[:collected] = np.asarray(saved["samples"], dtype=float).reshape(
                collected, dim
            )
            logdensities[:collected] = np.asarray(saved["logdensities"], dtype=float)
        accept_stat = saved["accept_stat"]
        divergences = saved["divergences"]
        start_iteration = int(saved["iteration"])
        checkpoint.restore_rng(rng, saved["rng"])
    else:
        logp, g = density(q)
        if not np.isfinite(logp):
            raise InferenceError("NUTS initial position has zero density")
        step = _find_initial_step_row(
            density, None, q, logp, g, rng, config.initial_step_size
        )
        adapter = _DualAveraging(step, config.target_accept)
        accept_stat = 0.0
        divergences = 0

    n_total = config.n_warmup + config.n_samples
    for iteration in range(start_iteration, n_total):
        if cursor is not None and cursor.due(iteration):
            collected = max(0, iteration - config.n_warmup)
            cursor.save(
                {
                    "status": "running",
                    "iteration": iteration,
                    "position": q.tolist(),
                    "logp": logp,
                    "grad": g.tolist(),
                    "step_size": step,
                    "adapter": adapter.state(),
                    "collected": collected,
                    "samples": samples[:collected].tolist(),
                    "logdensities": logdensities[:collected].tolist(),
                    "accept_stat": accept_stat,
                    "divergences": divergences,
                    "rng": checkpoint.rng_state(rng),
                }
            )
        p0 = rng.normal(size=dim)
        joint0 = logp - 0.5 * float(p0 @ p0)
        log_u = joint0 - rng.exponential()

        q_minus = q.copy()
        q_plus = q.copy()
        p_minus = p0.copy()
        p_plus = p0.copy()
        g_minus = g.copy()
        g_plus = g.copy()
        n_valid = 1
        keep_going = True
        depth = 0
        alpha, n_alpha = 0.0, 1

        while keep_going and depth < MAX_TREE_DEPTH:
            direction = 1 if rng.uniform() < 0.5 else -1
            if direction == -1:
                tree = _build_tree(
                    q_minus, p_minus, g_minus, log_u, direction, depth, step, joint0, density, rng
                )
                q_minus, p_minus, g_minus = tree.q_minus, tree.p_minus, tree.g_minus
            else:
                tree = _build_tree(
                    q_plus, p_plus, g_plus, log_u, direction, depth, step, joint0, density, rng
                )
                q_plus, p_plus, g_plus = tree.q_plus, tree.p_plus, tree.g_plus

            if tree.keep_going and tree.n_valid > 0:
                if rng.uniform() < tree.n_valid / max(n_valid, 1):
                    q, logp, g = tree.q_proposal, tree.logp_proposal, tree.g_proposal
            n_valid += tree.n_valid
            span = q_plus - q_minus
            keep_going = (
                tree.keep_going and (span @ p_minus) >= 0 and (span @ p_plus) >= 0
            )
            alpha, n_alpha = tree.alpha, tree.n_alpha
            depth += 1

        accept_prob = alpha / max(n_alpha, 1)
        if iteration < config.n_warmup:
            step = min(adapter.update(accept_prob), config.max_step_size)
            if iteration == config.n_warmup - 1:
                step = min(adapter.final(), config.max_step_size)
        else:
            idx = iteration - config.n_warmup
            samples[idx] = q
            logdensities[idx] = logp
            accept_stat += accept_prob
            if accept_prob == 0.0:
                divergences += 1

    accept_rate = accept_stat / max(1, config.n_samples)
    if cursor is not None:
        cursor.save(
            {
                "status": "done",
                "iteration": n_total,
                "samples": samples.tolist(),
                "logdensities": logdensities.tolist(),
                "accept_rate": accept_rate,
                "step_size": step,
                "divergences": divergences,
                "rng": checkpoint.rng_state(rng),
            }
        )
    return HMCResult(
        samples,
        accept_rate,
        step,
        logdensities,
        divergences=divergences,
    )


def nuts_sample_chains(
    logdensity_and_grad: LogDensityAndGrad,
    initial_points,
    config: HMCConfig,
    rng: np.random.Generator,
    fault_key: str = "nuts",
) -> HMCResult:
    """Several self-healing NUTS chains, run one after another; concatenated draws."""
    density = as_batched(faultinject.wrap_logdensity(logdensity_and_grad, fault_key))
    grad_evals = None
    if telemetry.enabled():
        grad_evals = [0]
        density = CountingDensity(density, grad_evals)
    with telemetry.span(
        "sampler.nuts", n_samples=config.n_samples, n_warmup=config.n_warmup
    ) as tspan:
        starts = [np.asarray(p, float) for p in initial_points]
        streams = spawn_streams(rng, len(starts))
        results = [
            sample_with_healing(
                lambda cfg, r, _start=start, _key=f"nuts/{fault_key}/chain{i}": nuts_sample(
                    density, _start, cfg, r, checkpoint_key=_key
                ),
                config,
                streams[i],
            )
            for i, start in enumerate(starts)
        ]
        return combine_chains("nuts", results, grad_evals, tspan)
