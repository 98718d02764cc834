"""Property tests for the batched reflection kernel (Hypothesis).

The reflective leapfrog of :mod:`repro.stats.batched` is the geometric
heart of BayesPC's sampler.  Three families of invariants pin it down:

* **containment** — a drift never ends outside the polytope (when it
  reports ``inside``), for any interior start, momentum and step;
* **reflection algebra** — bouncing off a facet is a Householder
  reflection in the facet normal: an involution that flips the normal
  component and preserves kinetic energy;
* **integrator structure** — the batched leapfrog is time-reversible
  and near-conserves the Hamiltonian at small steps, and every kernel
  is *batch-size stable*: a row's result is bit-identical whether it is
  integrated alone or stacked with other chains (the property that lets
  a cell's chains run in one lockstep batch).

The scalar :class:`tests.drift_oracle.DriftOracle` serves as the oracle
for trajectories with unambiguous geometry (endpoints well clear of any
facet), since the batched engine resolves grazing contacts through its
convexity direct path rather than the hit-time machinery.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.stats.batched import BatchedDriftEngine, leapfrog_batch
from repro.stats.densities import as_batched
from repro.stats.polytope import Polytope
from tests.drift_oracle import DriftOracle

# geometric tests derive their data from seeded generators: Hypothesis
# shrinks the seeds, while the generated geometry stays non-degenerate
seeds = st.integers(0, 2**31 - 1)
dims = st.integers(1, 5)


def box(dim: int, half: float = 1.0) -> Polytope:
    A = np.vstack([np.eye(dim), -np.eye(dim)])
    b = np.full(2 * dim, half)
    return Polytope(A=A, b=b, names=[f"x{i}" for i in range(dim)])


def random_polytope(dim: int, rng: np.random.Generator) -> Polytope:
    """A bounded polytope containing the origin: a box plus random cuts."""
    base = box(dim)
    m = int(rng.integers(0, 4))
    normals = rng.normal(size=(m, dim))
    offsets = rng.uniform(0.3, 1.5, size=m)  # origin stays strictly inside
    return Polytope(
        A=np.vstack([base.A, normals]),
        b=np.concatenate([base.b, offsets]),
        names=base.names,
    )


def interior_point(poly: Polytope, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample a strictly interior point (origin fallback)."""
    for _ in range(64):
        q = rng.uniform(-0.9, 0.9, size=poly.dim)
        if np.all(poly.A @ q <= poly.b - 1e-6):
            return q
    return np.zeros(poly.dim)


def gaussian_density(dim: int):
    inv_var = 1.0 / (1.0 + 0.25 * np.arange(dim)) ** 2

    def logdensity_and_grad(q):
        return float(-0.5 * np.sum(inv_var * q * q)), -inv_var * q

    return as_batched(logdensity_and_grad)


class TestDriftContainment:
    @given(seed=seeds, dim=dims)
    @settings(max_examples=80, deadline=None)
    def test_drift_stays_inside(self, seed, dim):
        rng = np.random.default_rng(seed)
        poly = random_polytope(dim, rng)
        engine = BatchedDriftEngine(poly)
        rows = int(rng.integers(1, 5))
        Q = np.stack([interior_point(poly, rng) for _ in range(rows)])
        P = rng.normal(size=(rows, dim)) * rng.uniform(0.1, 4.0)
        dt = rng.uniform(0.01, 3.0, size=rows)
        Qd, Pd, refl, ok, inside = engine.drift(Q, P, dt)
        # rows the engine vouches for really are inside (tiny fp slop only)
        for i in np.flatnonzero(ok & inside):
            assert poly.contains(Qd[i], tol=1e-9)
        assert np.all(refl >= 0)

    @given(seed=seeds, dim=dims)
    @settings(max_examples=60, deadline=None)
    def test_inside_flag_matches_zero_tolerance_containment(self, seed, dim):
        rng = np.random.default_rng(seed)
        poly = random_polytope(dim, rng)
        engine = BatchedDriftEngine(poly)
        Q = np.stack([interior_point(poly, rng) for _ in range(3)])
        P = rng.normal(size=(3, dim)) * 2.0
        dt = rng.uniform(0.01, 2.0, size=3)
        Qd, _Pd, _refl, _ok, inside = engine.drift(Q, P, dt)
        np.testing.assert_array_equal(inside, engine.contains(Qd, 0.0))


class TestReflectionAlgebra:
    @given(
        normal=st.lists(st.floats(-4, 4, allow_nan=False, width=64), min_size=2, max_size=5),
        momentum=st.lists(st.floats(-4, 4, allow_nan=False, width=64), min_size=2, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_householder_reflection_is_an_involution(self, normal, momentum):
        n = min(len(normal), len(momentum))
        a = np.asarray(normal[:n])
        p = np.asarray(momentum[:n])
        assume(float(a @ a) > 1e-6)

        def reflect(v):
            return v - (2.0 * (a @ v) / (a @ a)) * a

        r = reflect(p)
        np.testing.assert_allclose(reflect(r), p, rtol=1e-9, atol=1e-12)
        # normal component flips; kinetic energy is preserved
        np.testing.assert_allclose(a @ r, -(a @ p), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(r @ r, p @ p, rtol=1e-9, atol=1e-12)

    @given(seed=seeds, dim=dims)
    @settings(max_examples=60, deadline=None)
    def test_engine_bounce_is_the_householder_reflection(self, seed, dim):
        """One clean wall hit: the engine's momentum update must equal the
        textbook reflection in that facet's normal."""
        rng = np.random.default_rng(seed)
        poly = box(dim)
        engine = BatchedDriftEngine(poly)
        q = np.zeros(dim)
        p = rng.normal(size=dim)
        p[0] = rng.uniform(1.0, 3.0)  # guarantee the +x0 wall is hit
        # time to the +x0 wall is 1/p[0]; stop shortly after the bounce
        # and keep the other coordinates away from their own walls
        dt = 1.0 / p[0] + 0.05
        assume(np.all(np.abs(p[1:] * dt) < 0.95))  # no other wall is reached
        Qd, Pd, refl, ok, inside = engine.drift(q[None, :], p[None, :], np.array([dt]))
        assert ok[0] and inside[0]
        assert refl[0] == 1
        a = poly.A[0]
        expected = p - (2.0 * (a @ p) / (a @ a)) * a
        np.testing.assert_allclose(Pd[0], expected, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(Pd[0] @ Pd[0], p @ p, rtol=1e-9, atol=1e-12)

    @given(seed=seeds, dim=dims)
    @settings(max_examples=60, deadline=None)
    def test_kinetic_energy_survives_any_reflection_sequence(self, seed, dim):
        rng = np.random.default_rng(seed)
        poly = random_polytope(dim, rng)
        engine = BatchedDriftEngine(poly)
        Q = np.stack([interior_point(poly, rng) for _ in range(2)])
        P = rng.normal(size=(2, dim)) * 3.0
        dt = rng.uniform(0.5, 4.0, size=2)
        _Qd, Pd, refl, ok, _inside = engine.drift(Q, P, dt)
        for i in range(2):
            if ok[i]:
                np.testing.assert_allclose(
                    Pd[i] @ Pd[i], P[i] @ P[i], rtol=1e-7, atol=1e-9
                )


class TestScalarOracle:
    @given(seed=seeds, dim=dims)
    @settings(max_examples=60, deadline=None)
    def test_batched_drift_matches_scalar_engine_on_clean_geometry(self, seed, dim):
        rng = np.random.default_rng(seed)
        poly = random_polytope(dim, rng)
        batched_engine = BatchedDriftEngine(poly)
        scalar_engine = DriftOracle(poly)
        q = interior_point(poly, rng)
        p = rng.normal(size=dim) * rng.uniform(0.2, 3.0)
        dt = float(rng.uniform(0.05, 2.0))
        qs, ps, refl_s, ok_s = scalar_engine.drift(q.copy(), p.copy(), dt)
        # restrict to unambiguous geometry: the scalar endpoint must sit
        # well clear of every facet, else grazing-contact tie-breaks may
        # legitimately differ between the two engines
        margin = np.abs(poly.b - poly.A @ qs)
        assume(ok_s and np.all(margin > 1e-7))
        qb, pb, refl_b, ok_b, inside_b = batched_engine.drift(
            q[None, :], p[None, :], np.array([dt])
        )
        assert bool(ok_b[0]) == ok_s
        np.testing.assert_allclose(qb[0], qs, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(pb[0], ps, rtol=1e-9, atol=1e-12)


class TestLeapfrogStructure:
    @given(seed=seeds, dim=dims)
    @settings(max_examples=40, deadline=None)
    def test_leapfrog_is_time_reversible(self, seed, dim):
        density = gaussian_density(dim)
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 4))
        Q0 = rng.normal(size=(rows, dim)) * 0.5
        P0 = rng.normal(size=(rows, dim))
        _lp, G0 = density.batched(Q0)
        step = rng.uniform(0.01, 0.15, size=rows)
        n_steps = rng.integers(1, 8, size=rows)
        q1, p1, _lp1, g1, _r1 = leapfrog_batch(density, None, Q0, P0, G0, step, n_steps)
        # integrating back with reversed momentum returns to the start
        q2, p2, _lp2, _g2, _r2 = leapfrog_batch(density, None, q1, -p1, g1, step, n_steps)
        np.testing.assert_allclose(q2, Q0, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(-p2, P0, rtol=1e-8, atol=1e-10)

    @given(seed=seeds, dim=dims)
    @settings(max_examples=40, deadline=None)
    def test_leapfrog_energy_error_shrinks_with_the_step(self, seed, dim):
        """Velocity Verlet is second order: quartering the step must cut
        the Hamiltonian error by far more than half."""
        density = gaussian_density(dim)
        rng = np.random.default_rng(seed)
        Q0 = rng.normal(size=(1, dim)) * 0.5
        P0 = rng.normal(size=(1, dim))
        lp0, G0 = density.batched(Q0)
        h0 = -lp0[0] + 0.5 * float(P0[0] @ P0[0])

        def energy_error(step, n):
            q, p, lp, _g, _r = leapfrog_batch(
                density, None, Q0, P0, G0, np.array([step]), np.array([n])
            )
            return abs((-lp[0] + 0.5 * float(p[0] @ p[0])) - h0)

        # the pointwise error oscillates, so compare the worst error over
        # matched trajectory times instead of a single endpoint
        times = [1, 2, 3, 4, 5]
        coarse = max(energy_error(0.2, n) for n in times)
        fine = max(energy_error(0.05, 4 * n) for n in times)
        assume(coarse > 1e-10)  # flat region: nothing to compare
        assert fine <= coarse * 0.5 + 1e-12

    @given(seed=seeds, dim=dims)
    @settings(max_examples=40, deadline=None)
    def test_reflective_leapfrog_reversible_without_wall_contact(self, seed, dim):
        density = gaussian_density(dim)
        rng = np.random.default_rng(seed)
        poly = box(dim, half=50.0)  # walls far away: pure leapfrog inside
        drift = BatchedDriftEngine(poly)
        Q0 = rng.normal(size=(2, dim)) * 0.5
        P0 = rng.normal(size=(2, dim))
        _lp, G0 = density.batched(Q0)
        step = rng.uniform(0.01, 0.1, size=2)
        n_steps = rng.integers(1, 6, size=2)
        q1, p1, _l1, g1, refl = leapfrog_batch(density, drift, Q0, P0, G0, step, n_steps)
        assert np.all(refl == 0)
        q2, p2, _l2, _g2, _r2 = leapfrog_batch(density, drift, q1, -p1, g1, step, n_steps)
        np.testing.assert_allclose(q2, Q0, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(-p2, P0, rtol=1e-8, atol=1e-10)


class TestBatchSizeStability:
    """The lockstep contract: a row computes the same bits alone as in a
    stack."""

    @given(seed=seeds, dim=dims)
    @settings(max_examples=60, deadline=None)
    def test_drift_rows_are_batch_size_stable(self, seed, dim):
        rng = np.random.default_rng(seed)
        poly = random_polytope(dim, rng)
        engine = BatchedDriftEngine(poly)
        rows = int(rng.integers(2, 6))
        Q = np.stack([interior_point(poly, rng) for _ in range(rows)])
        P = rng.normal(size=(rows, dim)) * rng.uniform(0.2, 3.0)
        dt = rng.uniform(0.05, 2.5, size=rows)
        Qb, Pb, reflb, okb, insb = engine.drift(Q, P, dt)
        for i in range(rows):
            q1, p1, r1, o1, in1 = engine.drift(Q[i : i + 1], P[i : i + 1], dt[i : i + 1])
            np.testing.assert_array_equal(Qb[i], q1[0])
            np.testing.assert_array_equal(Pb[i], p1[0])
            assert reflb[i] == r1[0]
            assert okb[i] == o1[0]
            assert insb[i] == in1[0]

    @given(seed=seeds, dim=dims)
    @settings(max_examples=30, deadline=None)
    def test_leapfrog_rows_are_batch_size_stable(self, seed, dim):
        density = gaussian_density(dim)
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 5))
        Q0 = rng.normal(size=(rows, dim)) * 0.4
        P0 = rng.normal(size=(rows, dim))
        _lp, G0 = density.batched(Q0)
        step = rng.uniform(0.02, 0.2, size=rows)
        n_steps = rng.integers(1, 9, size=rows)
        qb, pb, lpb, gb, _rb = leapfrog_batch(density, None, Q0, P0, G0, step, n_steps)
        for i in range(rows):
            q1, p1, lp1, g1, _r1 = leapfrog_batch(
                density,
                None,
                Q0[i : i + 1],
                P0[i : i + 1],
                G0[i : i + 1],
                step[i : i + 1],
                n_steps[i : i + 1],
            )
            np.testing.assert_array_equal(qb[i], q1[0])
            np.testing.assert_array_equal(pb[i], p1[0])
            np.testing.assert_array_equal(lpb[i], lp1[0])
            np.testing.assert_array_equal(gb[i], g1[0])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
