"""HMC and reflective-HMC sampler tests."""

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.stats.hmc import HMCConfig, hmc_sample, hmc_sample_chains
from repro.stats.polytope import Polytope, chebyshev_center
from repro.stats.reflective_hmc import (
    diagonal_preconditioner,
    map_estimate,
    reflective_hmc_sample,
    rescale_problem,
)
from tests.drift_oracle import DriftOracle, reflective_drift

RNG = np.random.default_rng(7)


def std_normal(x):
    return -0.5 * float(x @ x), -x


class TestHMC:
    def test_standard_normal_moments(self):
        result = hmc_sample(std_normal, np.zeros(2), HMCConfig(n_samples=3000, n_warmup=500), RNG)
        assert result.samples.mean(axis=0) == pytest.approx([0, 0], abs=0.1)
        assert result.samples.std(axis=0) == pytest.approx([1, 1], abs=0.12)

    def test_rejects_bad_start(self):
        def bad(x):
            return -np.inf, x

        with pytest.raises(InferenceError):
            hmc_sample(bad, np.zeros(1), HMCConfig(n_samples=10), RNG)

    def test_multichain_concatenates(self):
        cfg = HMCConfig(n_samples=100, n_warmup=50)
        result = hmc_sample_chains(std_normal, [np.zeros(1), np.ones(1)], cfg, RNG)
        assert result.samples.shape == (200, 1)


def box_polytope():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    return Polytope(A, b, ["x", "y"])


class TestReflectiveDrift:
    def test_free_flight_without_walls(self):
        poly = box_polytope()
        q, p, refl, ok = reflective_drift(
            np.array([0.5, 0.5]), np.array([0.1, 0.0]), 1.0, poly
        )
        assert ok and refl == 0
        assert q == pytest.approx([0.6, 0.5])

    def test_single_reflection(self):
        poly = box_polytope()
        q, p, refl, ok = reflective_drift(
            np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1.0, poly
        )
        assert ok and refl == 1
        assert q == pytest.approx([0.5, 0.5])  # 0.5 to the wall, 0.5 back
        assert p == pytest.approx([-1.0, 0.0])

    def test_drift_stays_inside(self):
        poly = box_polytope()
        rng = np.random.default_rng(3)
        engine = DriftOracle(poly)
        q = np.array([0.3, 0.7])
        for _ in range(50):
            p = rng.normal(size=2)
            q, p, _refl, ok = engine.drift(q, p, 0.9)
            assert ok
            assert poly.contains(q, tol=1e-9)

    def test_corner_reflection_budget(self):
        # momentum aimed into a corner still terminates
        poly = box_polytope()
        q, p, refl, ok = reflective_drift(
            np.array([0.999, 0.999]), np.array([5.0, 5.0]), 10.0, poly
        )
        assert refl >= 2


@pytest.mark.slow
class TestReflectiveHMC:
    def test_uniform_box_moments(self):
        poly = box_polytope()
        center, _ = chebyshev_center(poly)

        def flat(x):
            return 0.0, np.zeros(2)

        result = reflective_hmc_sample(
            flat, poly, center, HMCConfig(n_samples=4000, n_warmup=300, n_leapfrog=8, initial_step_size=0.3), RNG
        )
        assert result.samples.mean(axis=0) == pytest.approx([0.5, 0.5], abs=0.05)
        assert result.samples.var(axis=0) == pytest.approx([1 / 12, 1 / 12], abs=0.02)

    def test_truncated_gaussian_mass_inside(self):
        poly = box_polytope()
        center, _ = chebyshev_center(poly)
        result = reflective_hmc_sample(
            std_normal, poly, center, HMCConfig(n_samples=2000, n_warmup=300), RNG
        )
        assert np.all(result.samples >= -1e-9)
        assert np.all(result.samples <= 1 + 1e-9)

    def test_requires_interior_start(self):
        poly = box_polytope()
        with pytest.raises(InferenceError):
            reflective_hmc_sample(
                std_normal, poly, np.array([2.0, 2.0]), HMCConfig(n_samples=10), RNG
            )


class TestWarmStartHelpers:
    def test_map_estimate_improves_density(self):
        poly = box_polytope()

        def target(x):
            diff = x - np.array([0.7, 0.2])
            return -10 * float(diff @ diff), -20 * diff

        start = np.array([0.1, 0.9])
        mode = map_estimate(target, poly, start)
        assert target(mode)[0] > target(start)[0]
        assert mode == pytest.approx([0.7, 0.2], abs=0.02)

    def test_map_estimate_respects_walls(self):
        poly = box_polytope()

        def target(x):
            # mode outside the box: optimizer must stop at the wall
            diff = x - np.array([2.0, 0.5])
            return -float(diff @ diff), -2 * diff

        mode = map_estimate(target, poly, np.array([0.5, 0.5]))
        assert poly.contains(mode, tol=1e-9)
        assert mode[0] > 0.9

    def test_preconditioner_scales_by_curvature(self):
        poly = Polytope(np.zeros((0, 2)), np.zeros(0), ["a", "b"])

        def target(x):
            # curvature 100 along dim 0, curvature 1 along dim 1
            return -50 * x[0] ** 2 - 0.5 * x[1] ** 2, np.array([-100 * x[0], -x[1]])

        scales = diagonal_preconditioner(target, np.array([0.3, 0.3]), poly)
        assert scales[0] == pytest.approx(0.1, rel=0.05)
        assert scales[1] == pytest.approx(1.0, rel=0.05)

    def test_rescale_problem_roundtrip(self):
        poly = box_polytope()
        scales = np.array([2.0, 0.5])
        scaled = rescale_problem(std_normal, poly, scales)
        z = np.array([0.4, 0.6])
        y = scaled.from_z(z)
        assert scaled.to_z(y) == pytest.approx(z)
        logp_direct, _ = std_normal(z)
        logp_scaled, _ = scaled.logdensity_and_grad(y)
        assert logp_scaled == pytest.approx(logp_direct)
