"""Lockstep equivalence: a batch of chains ≡ each chain alone, bit for bit.

The lockstep sampler (:mod:`repro.stats.batched`) stacks all chains of a
cell into one ``(n_chains, dim)`` batch.  The contract is *bit-identity*:
chain ``i`` of the batch must emit exactly the draws, log-densities,
accept statistics and rng bit-stream it emits when run alone, as a batch
of one, on its spawned stream — batching is a pure execution-layout
choice, never a numerical one.

These tests sweep all three samplers (HMC, NUTS, reflective HMC) over
dims × chain counts × seeds, including the fused inference densities
(BayesWC's :class:`SurvivalDensity`, BayesPC's
:class:`ScaledReducedDensity`), mid-chain checkpoint resume, self-healing
restarts and zero-density starts.  NUTS never batches its chains; its
cases pin down that its chains wrapper derives the same streams.
"""

import dataclasses

import numpy as np
import pytest

from repro import checkpoint
from repro.config import BayesWCConfig
from repro.errors import SamplerDivergenceError
from repro.inference.bayespc import BayesPCDensity, LikelihoodRow
from repro.inference.bayeswc import build_survival_model
from repro.inference.dataset import Observation, StatDataset
from repro.inference.hyperparams import BayesPCHyperparams
from repro.lp import LinExpr
from repro.stats import batched, spawn_streams
from repro.stats.base import sample_with_healing
from repro.stats.densities import as_batched
from repro.stats.hmc import HMCConfig, hmc_sample, hmc_sample_chains
from repro.stats.nuts import nuts_sample, nuts_sample_chains
from repro.stats.polytope import AffineMap, Polytope, ReducedPolytope
from repro.stats.reflective_hmc import reflective_hmc_chains, reflective_hmc_sample

CFG = HMCConfig(n_samples=25, n_warmup=15, n_leapfrog=6)


def gaussian(dim):
    """Anisotropic unit-mode Gaussian as a plain scalar closure."""
    inv_var = 1.0 / (1.0 + 0.3 * np.arange(dim)) ** 2

    def logdensity_and_grad(x):
        return float(-0.5 * np.sum(inv_var * x * x)), -inv_var * x

    return logdensity_and_grad


def starts_for(dim, n_chains, seed):
    rng = np.random.default_rng(seed + 1000)
    return [rng.normal(size=dim) * 0.1 for _ in range(n_chains)]


def box_polytope(dim, half_width=1.0):
    A = np.vstack([np.eye(dim), -np.eye(dim)])
    b = np.full(2 * dim, float(half_width))
    return Polytope(A, b, [f"x{i}" for i in range(dim)])


def run_chains(sampler, fn, starts, cfg, seed, polytope=None):
    """All chains of a cell through the public chains entry point."""
    rng = np.random.default_rng(seed)
    if sampler == "hmc":
        return hmc_sample_chains(fn, starts, cfg, rng)
    if sampler == "nuts":
        return nuts_sample_chains(fn, starts, cfg, rng)
    return reflective_hmc_chains(fn, polytope, starts, cfg, rng)


def run_alone(sampler, fn, starts, cfg, seed, polytope=None):
    """Each chain alone, as a batch of one with its own healing, on the
    stream the chains entry point spawns for it."""
    streams = spawn_streams(np.random.default_rng(seed), len(starts))
    results = []
    for start, stream in zip(starts, streams):
        if sampler == "hmc":
            def one(cfg_, r, _start=start):
                return hmc_sample(fn, _start, cfg_, r)
        elif sampler == "nuts":
            def one(cfg_, r, _start=start):
                return nuts_sample(fn, _start, cfg_, r)
        else:
            def one(cfg_, r, _start=start):
                return reflective_hmc_sample(fn, polytope, _start, cfg_, r)
        results.append(sample_with_healing(one, cfg, stream))
    return results


def assert_matches_alone(batch, alone):
    """``batch`` (a chains result) is the concatenation of ``alone``."""
    n = len(alone)
    for block, solo in zip(np.split(batch.samples, n), alone):
        assert np.array_equal(block, solo.samples)
    for block, solo in zip(np.split(batch.logdensities, n), alone):
        assert np.array_equal(block, solo.logdensities)
    assert batch.chain_diagnostics == [
        {
            "chain": float(i),
            "divergences": float(solo.divergences),
            "retries": float(solo.retries),
            "step_size": float(solo.step_size),
            "accept_rate": float(solo.accept_rate),
        }
        for i, solo in enumerate(alone)
    ]
    assert batch.accept_rate == float(np.mean([s.accept_rate for s in alone]))
    assert batch.divergences == sum(s.divergences for s in alone)
    assert batch.retries == sum(s.retries for s in alone)
    assert batch.leapfrog_steps == sum(s.leapfrog_steps for s in alone)
    if hasattr(batch, "n_reflections"):
        assert batch.n_reflections == sum(s.n_reflections for s in alone)


SWEEP = [(1, 1, 0), (2, 3, 1), (4, 2, 7), (3, 4, 42)]


class TestBitIdenticalSweep:
    """The headline property: a lockstep batch ≡ its chains run alone."""

    @pytest.mark.parametrize("dim,n_chains,seed", SWEEP)
    def test_hmc(self, dim, n_chains, seed):
        fn = gaussian(dim)
        starts = starts_for(dim, n_chains, seed)
        batch = run_chains("hmc", fn, starts, CFG, seed)
        assert batch.samples.shape == (n_chains * CFG.n_samples, dim)
        assert_matches_alone(batch, run_alone("hmc", fn, starts, CFG, seed))

    @pytest.mark.parametrize("dim,n_chains,seed", SWEEP)
    def test_reflective(self, dim, n_chains, seed):
        fn = gaussian(dim)
        polytope = box_polytope(dim)
        starts = starts_for(dim, n_chains, seed)
        batch = run_chains("reflective", fn, starts, CFG, seed, polytope)
        assert batch.samples.shape == (n_chains * CFG.n_samples, dim)
        assert_matches_alone(
            batch, run_alone("reflective", fn, starts, CFG, seed, polytope)
        )

    # NUTS builds a data-dependent recursive tree, so its chains always
    # run one after another; the sweep still pins down that the chains
    # wrapper (stream spawning, aggregation) matches chains run alone
    @pytest.mark.parametrize("dim,n_chains,seed", [(2, 2, 3), (3, 3, 11)])
    def test_nuts(self, dim, n_chains, seed):
        fn = gaussian(dim)
        starts = starts_for(dim, n_chains, seed)
        batch = run_chains("nuts", fn, starts, CFG, seed)
        assert batch.samples.shape == (n_chains * CFG.n_samples, dim)
        assert_matches_alone(batch, run_alone("nuts", fn, starts, CFG, seed))

    @pytest.mark.parametrize("dim,n_chains,seed", [(2, 3, 5)])
    def test_single_chain_equals_its_row_in_the_batch(self, dim, n_chains, seed):
        """One lockstep attempt over all chains ≡ one attempt per chain.

        This is the batch-size-stability invariant stated on the chain loop
        itself, rng included: after the attempt, every chain's stream
        sits exactly where it sits after running alone.
        """
        density = as_batched(gaussian(dim))
        starts = starts_for(dim, n_chains, seed)
        keys = [None] * n_chains
        streams = spawn_streams(np.random.default_rng(seed), n_chains)
        lockstep = batched.attempt(density, None, starts, CFG, streams, keys)
        solo_streams = spawn_streams(np.random.default_rng(seed), n_chains)
        for start, stream, solo_stream, row in zip(starts, streams, solo_streams, lockstep):
            alone = batched.attempt(density, None, [start], CFG, [solo_stream], [None])[0]
            assert np.array_equal(row.samples, alone.samples)
            assert np.array_equal(row.logdensities, alone.logdensities)
            assert row.leapfrog_steps == alone.leapfrog_steps
            assert checkpoint.rng_state(stream) == checkpoint.rng_state(solo_stream)


class TestNativeInferenceDensities:
    """The fused batched densities used by the real pipeline agree too."""

    def survival_density(self):
        observations = [
            Observation(env=(("n", i),), value=i, cost=0.7 * i + 0.5)
            for i in range(1, 9)
        ]
        model = build_survival_model(StatDataset("t", observations), BayesWCConfig())
        return model.batched_density(), model.dim

    def test_hmc_on_survival_density(self):
        density, dim = self.survival_density()
        starts = [np.full(dim, 0.5), np.full(dim, 0.8), np.full(dim, 1.1)]
        batch = run_chains("hmc", density, starts, CFG, 2)
        assert_matches_alone(batch, run_alone("hmc", density, starts, CFG, 2))
        assert np.all(np.isfinite(batch.samples))

    def scaled_reduced_density(self):
        names = ["a", "b"]
        density = BayesPCDensity(
            names,
            [
                LikelihoodRow(LinExpr({"a": 2.0, "b": 1.0}, 1.0), 0.5),
                LikelihoodRow(LinExpr({"a": 1.0}, 2.0), 1.0),
            ],
            BayesPCHyperparams(gamma0=5.0, theta0=1.0, theta1=1.0),
            site_vars=names,
        )
        # identity reduction: y-space == x-space, unit scales on one axis
        affine = AffineMap(np.zeros(2), np.eye(2))
        polytope = Polytope(
            np.vstack([np.eye(2), -np.eye(2)]),
            np.array([1.0, 1.0, 0.0, 0.0]),
            names,
        )
        reduced = ReducedPolytope(polytope, affine, names)
        fused = density.scaled_reduced_density(reduced, np.array([1.0, 1.0]))
        return fused, polytope

    def test_reflective_on_scaled_reduced_density(self):
        fused, polytope = self.scaled_reduced_density()
        starts = [np.array([0.4, 0.4]), np.array([0.6, 0.55])]
        batch = run_chains("reflective", fused, starts, CFG, 9, polytope)
        assert_matches_alone(
            batch, run_alone("reflective", fused, starts, CFG, 9, polytope)
        )
        # every draw stays inside the truncation polytope
        assert np.all(batch.samples >= -1e-9)
        assert np.all(batch.samples <= 1.0 + 1e-9)


class Interrupter:
    """Log-density wrapper that dies after ``budget`` (row-)evaluations."""

    def __init__(self, fn, budget):
        self.fn = fn
        self.budget = budget
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > self.budget:
            raise KeyboardInterrupt
        return self.fn(x)


@pytest.mark.parametrize("n_chains", [1, 3])
class TestCheckpointEquivalence:
    """Mid-chain kill + resume is bit-identical, for a batch of one and
    for a lockstep batch (which resumes its chains one at a time)."""

    DIM = 2
    SEED = 5

    @pytest.mark.parametrize("sampler", ["hmc", "nuts", "reflective"])
    def test_midchain_resume_is_bit_identical(self, n_chains, sampler, tmp_path):
        fn = gaussian(self.DIM)
        starts = starts_for(self.DIM, n_chains, self.SEED)
        polytope = box_polytope(self.DIM)
        golden = run_chains(sampler, fn, starts, CFG, self.SEED, polytope)
        assert_matches_alone(
            golden, run_alone(sampler, fn, starts, CFG, self.SEED, polytope)
        )
        checkpoint.enable(tmp_path / "ckpt", interval=5)
        with checkpoint.task_scope("cell/equiv"):
            interrupter = Interrupter(fn, 110 * n_chains)
            with pytest.raises(KeyboardInterrupt):
                run_chains(sampler, interrupter, starts, CFG, self.SEED, polytope)
            # the kill must land mid-run, past the first snapshot
            assert interrupter.calls > interrupter.budget
            resumed = run_chains(sampler, fn, starts, CFG, self.SEED, polytope)
        assert np.array_equal(resumed.samples, golden.samples)
        assert np.array_equal(resumed.logdensities, golden.logdensities)
        assert resumed.accept_rate == golden.accept_rate
        assert resumed.chain_diagnostics == golden.chain_diagnostics


def hard_ball(radius):
    """Gaussian truncated to a ball: proposals outside diverge (logp −∞)."""

    def logdensity_and_grad(x):
        if float(x @ x) > radius * radius:
            return -np.inf, np.zeros_like(x)
        return -0.5 * float(x @ x), -x

    return logdensity_and_grad


class TestHealingEquivalence:
    """Self-healing restarts fire — and heal — as they do for chains alone."""

    def test_restarted_chains_are_bit_identical(self):
        # a tight ball plus a large initial step makes early post-warmup
        # proposals overshoot the support, accumulating divergences past
        # the zero-tolerance threshold; healing halves the step until the
        # chain stays inside.  The batch must follow each chain's own
        # restart schedule and emit the same draws.
        fn = hard_ball(1.5)
        cfg = dataclasses.replace(
            CFG, initial_step_size=0.8, divergence_tolerance=0.0, max_restarts=3
        )
        starts = [np.array([0.3, -0.2]), np.array([-0.4, 0.1]), np.array([0.2, 0.2])]
        batch = run_chains("hmc", fn, starts, cfg, 14)
        assert_matches_alone(batch, run_alone("hmc", fn, starts, cfg, 14))
        # the healing path must actually have been exercised
        assert any(d["retries"] > 0 for d in batch.chain_diagnostics)

    def test_zero_density_start_raises_identically(self):
        fn = hard_ball(1.0)
        cfg = dataclasses.replace(CFG, max_restarts=1)
        # the second start is far outside the support
        starts = [np.array([0.1, 0.2]), np.array([5.0, 5.0])]
        with pytest.raises(SamplerDivergenceError) as in_batch:
            run_chains("hmc", fn, starts, cfg, 0)
        streams = spawn_streams(np.random.default_rng(0), 2)
        with pytest.raises(SamplerDivergenceError) as alone:
            sample_with_healing(
                lambda cfg_, r: hmc_sample(fn, starts[1], cfg_, r), cfg, streams[1]
            )
        assert str(in_batch.value) == str(alone.value)

    def test_reflective_healing_is_bit_identical(self):
        # a narrow valley inside the box with zero divergence tolerance:
        # attempt 0's adapted step diverges, the halved restarts settle
        def valley(x):
            v = float(x[0] * x[0] / 0.02 + x[1] * x[1])
            if v > 40.0:
                return -np.inf, np.zeros_like(x)
            return -0.5 * v, -np.array([x[0] / 0.02, x[1]])

        cfg = dataclasses.replace(
            CFG, initial_step_size=0.9, divergence_tolerance=0.0, max_restarts=3
        )
        polytope = box_polytope(2)
        starts = [np.array([0.05, 0.1]), np.array([-0.03, -0.2])]
        batch = run_chains("reflective", valley, starts, cfg, 21, polytope)
        assert_matches_alone(
            batch, run_alone("reflective", valley, starts, cfg, 21, polytope)
        )
