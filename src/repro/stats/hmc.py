"""Hamiltonian Monte Carlo with dual-averaging step-size adaptation.

Used for the unconstrained posterior of BayesWC's survival model
(Eq. 5.12).  Plain leapfrog HMC with a diagonal unit mass matrix and the
Hoffman–Gelman dual-averaging schedule for the step size during warmup.

Both entry points are thin calls into the lockstep sampler
(:mod:`repro.stats.batched`) in free flight: a single chain runs as a
batch of one, and :func:`hmc_sample_chains` advances all chains of a cell
in one lockstep batch.  The shared dataclasses live in
:mod:`repro.stats.base` and are re-exported here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import batched
from .base import HMCConfig, HMCResult, LogDensityAndGrad
from .densities import as_batched


def hmc_sample(
    logdensity_and_grad: LogDensityAndGrad,
    initial: np.ndarray,
    config: HMCConfig,
    rng: np.random.Generator,
    checkpoint_key: Optional[str] = None,
) -> HMCResult:
    """Run one HMC chain; warmup iterations adapt the step size and are discarded.

    With checkpointing active (see :mod:`repro.checkpoint`) and a
    ``checkpoint_key``, the chain periodically snapshots its full state —
    position, step size, adapter, collected draws and the rng
    bit-generator — and transparently resumes mid-chain on rerun,
    producing draws identical to an uninterrupted chain.
    """
    return batched.single(
        as_batched(logdensity_and_grad),
        None,
        np.asarray(initial, dtype=float),
        config,
        rng,
        checkpoint_key,
    )


def hmc_sample_chains(
    logdensity_and_grad: LogDensityAndGrad,
    initial_points,
    config: HMCConfig,
    rng: np.random.Generator,
    fault_key: str = "hmc",
) -> HMCResult:
    """Run several self-healing chains from different starts; concatenates draws.

    See :func:`repro.stats.batched.sample_chains`.
    """
    return batched.sample_chains(
        logdensity_and_grad, None, initial_points, config, rng, fault_key
    )
