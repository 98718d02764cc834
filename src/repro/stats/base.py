"""Shared sampler substrate: configs, results, healing, chain aggregation.

Split out so that the lockstep core (:mod:`repro.stats.batched`) and the
per-sampler modules (``hmc.py``, ``nuts.py``, ``reflective_hmc.py``) can
share the config/result dataclasses, the self-healing restart schedule and
the multi-chain aggregation without a circular import.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..errors import InferenceError, SamplerDivergenceError

LogDensityAndGrad = Callable[[np.ndarray], Tuple[float, np.ndarray]]


@dataclass
class HMCConfig:
    n_samples: int = 1000
    n_warmup: int = 500
    n_leapfrog: int = 24
    initial_step_size: float = 0.1
    target_accept: float = 0.8
    max_step_size: float = 2.0
    jitter_steps: bool = True
    #: self-healing: restart a divergent chain with a halved initial step
    #: at most this many times …
    max_restarts: int = 3
    #: … when more than this fraction of post-warmup draws diverged
    divergence_tolerance: float = 0.25
    #: which self-healing attempt this config belongs to (0 = first try);
    #: distinguishes checkpoint fingerprints between restart attempts
    restart_index: int = 0


@dataclass
class HMCResult:
    samples: np.ndarray  # (n_samples, dim)
    accept_rate: float
    step_size: float
    logdensities: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: post-warmup iterations whose proposal was rejected outright
    #: (non-finite trajectory or an energy error past float underflow)
    divergences: int = 0
    #: self-healing restarts spent producing this result
    retries: int = 0
    #: total leapfrog integration steps taken (warmup included)
    leapfrog_steps: int = 0
    #: per-chain diagnostics when this result aggregates several chains
    chain_diagnostics: List[Dict[str, float]] = field(default_factory=list)


@dataclass
class ReflectiveHMCResult(HMCResult):
    #: wall reflections, summed over iterations (and chains)
    n_reflections: int = 0


class _DualAveraging:
    """Nesterov dual averaging of log step size (Hoffman & Gelman 2014).

    Scalar variant, used by the NUTS chain loop; the lockstep sampler uses
    the vectorized :class:`repro.stats.batched._BatchedDualAveraging`.
    """

    def __init__(self, initial_step: float, target: float):
        self.mu = math.log(10.0 * initial_step)
        self.target = target
        self.log_step = math.log(initial_step)
        self.log_step_bar = 0.0
        self.h_bar = 0.0
        self.gamma = 0.05
        self.t0 = 10.0
        self.kappa = 0.75
        self.iteration = 0

    def update(self, accept_prob: float) -> float:
        self.iteration += 1
        m = self.iteration
        eta = 1.0 / (m + self.t0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - accept_prob)
        self.log_step = self.mu - math.sqrt(m) / self.gamma * self.h_bar
        weight = m**-self.kappa
        self.log_step_bar = weight * self.log_step + (1.0 - weight) * self.log_step_bar
        return math.exp(self.log_step)

    def final(self) -> float:
        return math.exp(self.log_step_bar)

    def state(self) -> Dict[str, float]:
        """JSON-safe snapshot of the adapter (for chain checkpoints)."""
        return {
            "mu": self.mu,
            "target": self.target,
            "log_step": self.log_step,
            "log_step_bar": self.log_step_bar,
            "h_bar": self.h_bar,
            "gamma": self.gamma,
            "t0": self.t0,
            "kappa": self.kappa,
            "iteration": self.iteration,
        }

    def restore(self, state: Dict[str, float]) -> None:
        for name, value in state.items():
            setattr(self, name, value)


def sample_with_healing(sample_fn, config, rng):
    """Run one chain with bounded self-healing restarts.

    ``sample_fn(cfg, rng)`` runs the chain and returns a result with
    ``divergences`` / ``retries`` attributes (HMCResult, NUTSResult or
    ReflectiveHMCResult).  When the chain raises :class:`InferenceError`
    or more than ``config.divergence_tolerance × config.n_samples`` of
    its draws diverged, it is restarted with a halved initial step, at
    most ``config.max_restarts`` times.  The happy path calls
    ``sample_fn`` exactly once with the unmodified config, so fault-free
    runs consume the rng stream identically to the pre-healing code.

    The lockstep sampler runs attempt 0 for all chains in one batch and
    feeds each chain's outcome to :func:`heal_continue`, which applies
    the identical restart schedule — so a chain heals the same in a
    batch as alone (each restart's checkpoint fingerprint is keyed by
    the config's ``restart_index``; see
    :func:`repro.checkpoint.chain_cursor`).

    Raises :class:`SamplerDivergenceError` when every restart still
    produced a fully divergent (or crashing) chain.
    """
    result = None
    error: Optional[InferenceError] = None
    try:
        result = sample_fn(config, rng)
    except SamplerDivergenceError:
        raise
    except InferenceError as exc:
        error = exc
    return heal_continue(sample_fn, config, rng, result, error)


def heal_continue(sample_fn, config, rng, result, error):
    """The restart schedule of :func:`sample_with_healing`, continued from
    a pre-computed attempt-0 outcome (``result`` or ``error``)."""
    step = config.initial_step_size
    retries = 0
    best = None
    last_error: Optional[InferenceError] = error
    while True:
        if result is not None:
            if result.divergences <= config.divergence_tolerance * config.n_samples:
                result.retries = retries
                return result
            if best is None or result.divergences < best.divergences:
                best = result
        if retries >= config.max_restarts:
            break
        retries += 1
        step *= 0.5
        cfg = dataclasses.replace(config, initial_step_size=step, restart_index=retries)
        result = None
        try:
            result = sample_fn(cfg, rng)
        except SamplerDivergenceError:
            raise
        except InferenceError as exc:
            last_error = exc
    if best is not None and best.divergences < config.n_samples:
        # degraded but usable: some draws are real; surface the retry count
        best.retries = retries
        return best
    raise SamplerDivergenceError(
        f"chain fully divergent after {retries} restart(s)"
        + (f": {last_error}" if last_error is not None else "")
    )


def combine_chains(kind: str, results, grad_evals, tspan):
    """Concatenate per-chain results into one result for the cell.

    Also reports the run on ``tspan`` and as ``sampler.*`` telemetry
    (``sampler=kind``); ``grad_evals`` is a one-element count list, or
    None when telemetry is off.
    """
    divergences = sum(r.divergences for r in results)
    retries = sum(r.retries for r in results)
    leapfrog_steps = sum(r.leapfrog_steps for r in results)
    accept_rate = float(np.mean([r.accept_rate for r in results]))
    diagnostics = [
        {
            "chain": float(chain_index),
            "divergences": float(r.divergences),
            "retries": float(r.retries),
            "step_size": float(r.step_size),
            "accept_rate": float(r.accept_rate),
        }
        for chain_index, r in enumerate(results)
    ]
    combined = type(results[0])(
        np.concatenate([r.samples for r in results], axis=0),
        accept_rate,
        0.0,
        np.concatenate([r.logdensities for r in results]),
        divergences=divergences,
        retries=retries,
        leapfrog_steps=leapfrog_steps,
        chain_diagnostics=diagnostics,
    )
    attrs = {"chains": len(results), "divergences": divergences, "retries": retries}
    reflections = 0
    if isinstance(combined, ReflectiveHMCResult):
        reflections = combined.n_reflections = sum(r.n_reflections for r in results)
        attrs["reflections"] = reflections
    tspan.set(**attrs)
    telemetry.gauge("sampler.accept_rate", round(accept_rate, 4), sampler=kind)
    if leapfrog_steps:
        telemetry.counter("sampler.leapfrog_steps", leapfrog_steps, sampler=kind)
    if grad_evals is not None and grad_evals[0]:
        telemetry.counter("sampler.gradient_evals", grad_evals[0], sampler=kind)
    if divergences:
        telemetry.counter("sampler.divergences", divergences, sampler=kind)
    if retries:
        telemetry.counter("sampler.healing_restarts", retries, sampler=kind)
    if reflections:
        telemetry.counter("sampler.reflections", reflections, sampler=kind)
    return combined
