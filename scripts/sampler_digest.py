"""Hash the samplers' draws over a fixed sweep.

Runs HMC, reflective HMC and NUTS through their public chains entry
points over dims 1-13 and 1-4 chains, plus the fused survival density,
healing restarts, a zero-density start, a mid-chain checkpoint resume
and a counted ``nan-logdensity`` fault plan, and prints one sha256 over
every result.  Run it at two commits to check that a refactor kept every
draw bit for bit:

    PYTHONPATH=src python scripts/sampler_digest.py [-v]

``-v`` prints one digest per case before the total.
"""

import dataclasses
import hashlib
import sys
import tempfile

import numpy as np

from repro import checkpoint, faultinject
from repro.config import BayesWCConfig
from repro.errors import InferenceError
from repro.inference.bayeswc import build_survival_model
from repro.inference.dataset import Observation, StatDataset
from repro.stats.hmc import HMCConfig, hmc_sample_chains
from repro.stats.nuts import nuts_sample_chains
from repro.stats.polytope import Polytope
from repro.stats.reflective_hmc import reflective_hmc_chains

CFG = HMCConfig(n_samples=30, n_warmup=20, n_leapfrog=8)
NUTS_CFG = dataclasses.replace(CFG, n_samples=12, n_warmup=10)


def gaussian(dim):
    inv_var = 1.0 / (1.0 + 0.3 * np.arange(dim)) ** 2

    def logdensity_and_grad(x):
        return float(-0.5 * np.sum(inv_var * (x - 0.2) ** 2)), -inv_var * (x - 0.2)

    return logdensity_and_grad


def hard_ball(radius):
    def logdensity_and_grad(x):
        if float(x @ x) > radius * radius:
            return -np.inf, np.zeros_like(x)
        return -0.5 * float(x @ x), -x

    return logdensity_and_grad


def valley(x):
    v = float(x[0] * x[0] / 0.02 + x[1] * x[1])
    if v > 40.0:
        return -np.inf, np.zeros_like(x)
    return -0.5 * v, -np.array([x[0] / 0.02, x[1]])


def polytope(dim, rng):
    """A box with two random cuts (some starts may fall outside)."""
    A = np.vstack([np.eye(dim), -np.eye(dim), rng.normal(size=(2, dim))])
    b = np.concatenate([np.ones(2 * dim), rng.uniform(0.3, 1.0, size=2)])
    return Polytope(A, b, [f"x{i}" for i in range(dim)])


class Interrupter:
    """Log-density wrapper that dies after ``budget`` evaluations."""

    def __init__(self, fn, budget):
        self.fn, self.budget, self.calls = fn, budget, 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > self.budget:
            raise KeyboardInterrupt
        return self.fn(x)


def digest(result):
    """Samples and statistics; log-densities and leapfrog steps for HMC
    and NUTS, the reflection count for reflective HMC."""
    h = hashlib.sha256(np.ascontiguousarray(result.samples, dtype=float).tobytes())
    if not hasattr(result, "n_reflections"):
        h.update(np.ascontiguousarray(result.logdensities, dtype=float).tobytes())
        h.update(repr(result.leapfrog_steps).encode())
    for name in ("accept_rate", "step_size", "divergences", "retries", "n_reflections"):
        h.update(repr(getattr(result, name, None)).encode())
    h.update(repr(result.chain_diagnostics).encode())
    return h.hexdigest()


def cases():
    """Yield ``(label, thunk)`` for every case of the sweep."""
    for dim in range(1, 14):
        for n in range(1, 5):
            seed = dim * 10 + n
            srng = np.random.default_rng(seed + 500)
            starts = [srng.normal(size=dim) * 0.05 for _ in range(n)]
            fn = gaussian(dim)
            poly = polytope(dim, srng)
            yield f"hmc d{dim} c{n}", lambda fn=fn, s=starts, seed=seed: hmc_sample_chains(
                fn, s, CFG, np.random.default_rng(seed)
            )
            yield f"refl d{dim} c{n}", lambda fn=fn, p=poly, s=starts, seed=seed: (
                reflective_hmc_chains(fn, p, s, CFG, np.random.default_rng(seed))
            )
            yield f"nuts d{dim} c{n}", lambda fn=fn, s=starts, seed=seed: nuts_sample_chains(
                fn, s, NUTS_CFG, np.random.default_rng(seed)
            )

    observations = [
        Observation(env=(("n", i),), value=i, cost=0.7 * i + 0.5) for i in range(1, 9)
    ]
    model = build_survival_model(StatDataset("t", observations), BayesWCConfig())
    starts = [np.full(model.dim, v) for v in (0.5, 0.8, 1.1)]
    yield "survival", lambda: hmc_sample_chains(
        model.batched_density(), starts, CFG, np.random.default_rng(2)
    )
    yield "survival-nuts", lambda: nuts_sample_chains(
        model.logdensity_and_grad, starts, CFG, np.random.default_rng(2)
    )

    heal = dataclasses.replace(
        CFG, initial_step_size=0.8, divergence_tolerance=0.0, max_restarts=3
    )
    ball_starts = [np.array([0.3, -0.2]), np.array([-0.4, 0.1]), np.array([0.2, 0.2])]
    yield "heal-hmc", lambda: hmc_sample_chains(
        hard_ball(1.5), ball_starts, heal, np.random.default_rng(14)
    )
    box2 = Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4), ["a", "b"])
    heal_refl = dataclasses.replace(
        CFG, initial_step_size=0.9, divergence_tolerance=0.0, max_restarts=3
    )
    valley_starts = [np.array([0.05, 0.1]), np.array([-0.03, -0.2])]
    yield "heal-refl", lambda: reflective_hmc_chains(
        valley, box2, valley_starts, heal_refl, np.random.default_rng(21)
    )
    yield "zero-start", lambda: hmc_sample_chains(
        hard_ball(1.0),
        [np.array([0.1, 0.1]), np.array([5.0, 5.0])],
        dataclasses.replace(CFG, max_restarts=1),
        np.random.default_rng(0),
    )

    resume_starts = [np.full(3, 0.1), np.full(3, -0.1), np.full(3, 0.05)]
    resume_poly = polytope(3, np.random.default_rng(3))
    for sampler in ("hmc", "refl", "nuts"):

        def run(fn, sampler=sampler):
            rng = np.random.default_rng(8)
            if sampler == "hmc":
                return hmc_sample_chains(fn, resume_starts, CFG, rng)
            if sampler == "refl":
                return reflective_hmc_chains(fn, resume_poly, resume_starts, CFG, rng)
            return nuts_sample_chains(fn, resume_starts, CFG, rng)

        def resumed(run=run):
            with tempfile.TemporaryDirectory() as tmp:
                checkpoint.enable(tmp, interval=5)
                try:
                    with checkpoint.task_scope("cell/sweep"):
                        try:
                            run(Interrupter(gaussian(3), 300))
                        except KeyboardInterrupt:
                            pass
                        return run(gaussian(3))
                finally:
                    checkpoint.disable()

        yield f"resume-{sampler}", resumed

    fault_starts = [np.full(2, 0.1), np.full(2, -0.1), np.full(2, 0.05)]
    fault_poly = polytope(2, np.random.default_rng(1))
    for sampler in ("hmc", "refl"):

        def faulted(sampler=sampler):
            plan = "nan-logdensity:match=k:count=300:prob=0.05:seed=3"
            faultinject.install(faultinject.FaultPlan.parse(plan))
            try:
                rng = np.random.default_rng(4)
                if sampler == "hmc":
                    return hmc_sample_chains(gaussian(2), fault_starts, CFG, rng, fault_key="k")
                return reflective_hmc_chains(
                    gaussian(2), fault_poly, fault_starts, CFG, rng, fault_key="k"
                )
            finally:
                faultinject.uninstall()

        yield f"faults-{sampler}", faulted


def main(argv):
    total = hashlib.sha256()
    count = 0
    for label, thunk in cases():
        try:
            value = digest(thunk())
        except InferenceError as exc:
            value = f"error:{type(exc).__name__}:{exc}"
        line = f"{label} {value}"
        total.update((line + "\n").encode())
        count += 1
        if "-v" in argv:
            print(line)
    print(f"cases {count} sweep sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
