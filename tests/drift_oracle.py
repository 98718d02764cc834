"""Scalar reflective drift: the oracle for the batched drift engine.

One chain, one drift at a time, with the same incremental geometry as
:class:`repro.stats.batched.BatchedDriftEngine`: the Gram matrix
``G = A Aᵀ`` turns a reflection off facet ``h`` into an O(m) update of
``A·p`` (by ``-2α·G[:,h]``) and of the slacks, instead of a fresh O(m·n)
matvec.  The samplers never call it; the property tests compare the
batched engine against it.
"""

import numpy as np

from repro.stats.batched import MAX_REFLECTIONS
from repro.stats.polytope import Polytope


class DriftOracle:
    """Precomputed reflection geometry for one polytope (scalar)."""

    def __init__(self, polytope: Polytope):
        self.polytope = polytope
        self.A = polytope.A
        self.b = polytope.b
        m = self.A.shape[0]
        if m:
            self.gram = self.A @ self.A.T
            self.row_sq = np.einsum("ij,ij->i", self.A, self.A)
        else:
            self.gram = np.zeros((0, 0))
            self.row_sq = np.zeros(0)

    def drift(self, q: np.ndarray, p: np.ndarray, dt: float):
        """Advance ``q`` by time ``dt`` along ``p``, reflecting at facets.

        Returns (q', p', #reflections, ok); ``ok`` is False when the
        reflection budget is exhausted (the proposal is then rejected).
        """
        A, b = self.A, self.b
        if A.shape[0] == 0:
            return q + dt * p, p, 0, True
        remaining = dt
        reflections = 0
        Ap = A @ p
        slack = b - A @ q
        while remaining > 1e-14:
            with np.errstate(divide="ignore", invalid="ignore"):
                times = np.where(Ap > 1e-13, slack / Ap, np.inf)
            times = np.where(times >= -1e-12, np.maximum(times, 0.0), np.inf)
            hit = int(np.argmin(times))
            t_hit = float(times[hit])
            if t_hit >= remaining:
                q = q + remaining * p
                return q, p, reflections, True
            # advance to the wall; update q/slack and reflect p incrementally
            q = q + t_hit * p
            slack = slack - t_hit * Ap
            slack[hit] = 0.0
            alpha = 2.0 * Ap[hit] / self.row_sq[hit]
            p = p - alpha * A[hit]
            Ap = Ap - alpha * self.gram[hit]
            remaining -= t_hit
            reflections += 1
            if reflections > MAX_REFLECTIONS:
                return q, p, reflections, False
        return q, p, reflections, True


def reflective_drift(q: np.ndarray, p: np.ndarray, dt: float, polytope: Polytope):
    """One uncached drift through ``polytope``."""
    return DriftOracle(polytope).drift(q, p, dt)
