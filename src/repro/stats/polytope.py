"""Convex polytopes for constrained posterior inference (Section 6.2).

Hybrid BayesPC restricts its probabilistic model to the convex polytope
defined by the AARA constraint set ``C0`` (Eq. 6.3).  This module converts
an :class:`~repro.lp.LPProblem` into an explicit H-representation
``{x : A x ≤ b}`` over the named coefficient variables, eliminating
equality constraints by re-parameterizing over an affine subspace
``x = x0 + N z`` (``N`` a nullspace basis), and computes interior starting
points via the Chebyshev center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from scipy.linalg import null_space

from .. import telemetry
from ..errors import InferenceError
from ..lp import LPProblem
from ..lp.highs import linprog


@dataclass
class Polytope:
    """H-representation ``{x : A x ≤ b}`` with named coordinates."""

    A: np.ndarray  # (m, n)
    b: np.ndarray  # (m,)
    names: List[str]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def contains(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        return bool(np.all(self.A @ x <= self.b + tol))

    def slack(self, x: np.ndarray) -> np.ndarray:
        return self.b - self.A @ x

    def index_of(self, name: str) -> int:
        return self.names.index(name)


@dataclass
class AffineMap:
    """``x = x0 + N z`` — parameterization of an equality subspace."""

    x0: np.ndarray  # (n,)
    N: np.ndarray  # (n, k)

    def embed(self, z: np.ndarray) -> np.ndarray:
        return self.x0 + self.N @ z

    def pull_gradient(self, grad_x: np.ndarray) -> np.ndarray:
        return self.N.T @ grad_x

    @property
    def reduced_dim(self) -> int:
        return self.N.shape[1]


@dataclass
class ReducedPolytope:
    """A polytope over reduced coordinates plus the map back to x-space."""

    polytope: Polytope  # over z
    affine: AffineMap
    names: List[str]  # x-space variable names

    def to_x(self, z: np.ndarray) -> np.ndarray:
        return self.affine.embed(z)

    def assignment(self, z: np.ndarray) -> Dict[str, float]:
        x = self.to_x(z)
        return {name: float(v) for name, v in zip(self.names, x)}


def _solve_lp(kind: str, c, **kwargs):
    """One facial-reduction or warm-start LP, booked to the ``lp`` stage
    (``kind`` says which).  Calls this module's ``linprog`` by name."""
    telemetry.counter("lp.facial_solves", 1, kind=kind)
    with telemetry.span("lp.facial", kind=kind, variables=len(c)):
        return linprog(c, method="highs", **kwargs)


def _reduce_once(A_ub, b_ub, A_eq, b_eq, n):
    """Eliminate equalities; returns (A_z, b_z, x0, N, kept_row_indices)."""
    if A_eq.size:
        x0, *_ = np.linalg.lstsq(A_eq, b_eq, rcond=None)
        if not np.allclose(A_eq @ x0 - b_eq, 0.0, atol=1e-6):
            raise InferenceError("equality constraints are inconsistent")
        N = null_space(A_eq)
        if N.size == 0:
            N = np.zeros((n, 0))
    else:
        x0 = np.zeros(n)
        N = np.eye(n)
    A_z = A_ub @ N
    b_z = b_ub - A_ub @ x0
    row_norms = np.linalg.norm(A_z, axis=1) if A_z.size else np.zeros(0)
    keep = row_norms > 1e-12
    violated = (~keep) & (b_z < -1e-7)
    if np.any(violated):
        raise InferenceError("polytope is empty (fixed directions violate bounds)")
    return A_z[keep], b_z[keep], x0, N, np.where(keep)[0]


def _max_row_slack(A_sparse, b, row_vec, b_row, n):
    """Maximize min(slack_row, 1) over {z : A z ≤ b}; returns (opt, z*)."""
    from scipy.sparse import csr_matrix, hstack as sp_hstack, vstack as sp_vstack

    m = b.size
    # variables: (z, t); maximize t s.t. A z ≤ b, a_row z + t ≤ b_row, t ≤ 1
    c = np.zeros(n + 1)
    c[-1] = -1.0
    extra = csr_matrix(np.concatenate([row_vec, [1.0]]).reshape(1, -1))
    A_lp = sp_vstack([sp_hstack([A_sparse, csr_matrix((m, 1))]), extra], format="csr")
    b_lp = np.concatenate([b, [b_row]])
    bounds = [(None, None)] * n + [(None, 1.0)]
    result = _solve_lp("row_slack", c, A_ub=A_lp, b_ub=b_lp, bounds=bounds)
    if result.status == 2:
        raise InferenceError("polytope is empty")
    if result.status != 0 or result.x is None:
        raise InferenceError(f"slack LP failed: {result.message}")
    return float(result.x[-1]), result.x[:n]


def _max_sum_slack(A_sparse, b, rows, n, cap: float = 1.0):
    """Maximize Σ_i min(slack_i, cap) over ``rows`` — bulk-clears every row
    that is not an implied equality in a single LP."""
    from scipy.sparse import csr_matrix, hstack as sp_hstack, vstack as sp_vstack

    m = b.size
    k = len(rows)
    rows_arr = np.asarray(rows)
    # variables: (z, t_1..t_k); max Σt  s.t.  A z ≤ b,  a_i z + t_i ≤ b_i
    c = np.concatenate([np.zeros(n), -np.ones(k)])
    sel = csr_matrix((np.ones(k), (np.arange(k), rows_arr)), shape=(k, m))
    eye_k = csr_matrix((np.ones(k), (np.arange(k), np.arange(k))), shape=(k, k))
    extra = sp_hstack([sel @ A_sparse, eye_k], format="csr")
    base = sp_hstack([A_sparse, csr_matrix((m, k))], format="csr")
    A_lp = sp_vstack([base, extra], format="csr")
    b_lp = np.concatenate([b, b[rows_arr]])
    bounds = [(None, None)] * n + [(0.0, cap)] * k
    result = _solve_lp("sum_slack", c, A_ub=A_lp, b_ub=b_lp, bounds=bounds)
    if result.status == 2:
        raise InferenceError("polytope is empty")
    if result.status != 0 or result.x is None:
        return None
    return result.x[:n]


def find_implied_equalities(A, b, tol: float = 1e-9):
    """Facial reduction: inequality rows that hold with equality everywhere.

    A bulk pass first maximizes the capped slack sum, giving positive slack
    to (and thereby clearing) every jointly-relaxable row at once; the
    per-row certification LPs then only run for the remaining suspects,
    which are mostly the genuinely implied equalities.  Returns
    (implied_row_indices, relative_interior_point or None).
    """
    from scipy.sparse import csr_matrix

    m, n = A.shape
    if m == 0:
        return [], None
    A_sparse = csr_matrix(A)
    unknown = set(range(m))
    implied = []
    points = []

    z_bulk = _max_sum_slack(A_sparse, b, sorted(unknown), n)
    if z_bulk is not None:
        points.append(z_bulk)
        slack = b - A @ z_bulk
        unknown -= {i for i in range(m) if slack[i] > tol}

    while unknown:
        row = next(iter(unknown))
        opt, z = _max_row_slack(A_sparse, b, A[row], b[row], n)
        if opt <= tol:
            implied.append(row)
            unknown.discard(row)
            continue
        points.append(z)
        slack = b - A @ z
        cleared = {i for i in unknown if slack[i] > tol}
        cleared.add(row)
        unknown -= cleared
    interior = np.mean(points, axis=0) if points else None
    return sorted(implied), interior


def polytope_from_lp(problem: LPProblem) -> ReducedPolytope:
    """Convert an LP's feasible region (its variables non-negative) into a
    *full-dimensional* polytope.

    Equality constraints are eliminated exactly (``x = x0 + N z`` with
    ``N`` a nullspace basis).  Inequalities that hold with equality on the
    whole feasible region — AARA constraint systems produce many, e.g.
    chains forced to zero by the pinned root output — are detected by
    facial reduction and promoted to equalities, until the reduced
    polytope has nonempty interior.  This matches the preprocessing that
    polytope samplers such as Volesti perform before reflective HMC.
    """
    A_ub, b_ub, A_eq, b_eq, index = problem.to_matrices()
    # C0 is small (the suite's largest is a few thousand rows by a few
    # hundred columns), and the reduction below is dense linear algebra
    # (lstsq, null_space, row norms)
    A_ub, A_eq = A_ub.toarray(), A_eq.toarray()
    names = [None] * len(index)
    for name, col in index.items():
        names[col] = name
    n = len(names)
    A_ub = np.vstack([A_ub, -np.eye(n)]) if A_ub.size else -np.eye(n)
    b_ub = np.concatenate([b_ub, np.zeros(n)]) if b_ub.size else np.zeros(n)

    for _round in range(4):  # facial-reduction rounds before giving up
        A_z, b_z, x0, N, kept = _reduce_once(A_ub, b_ub, A_eq, b_eq, n)
        if N.shape[1] == 0:
            reduced = Polytope(np.zeros((0, 0)), np.zeros(0), [])
            return ReducedPolytope(reduced, AffineMap(x0, N), names)
        implied, _interior = find_implied_equalities(A_z, b_z)
        if not implied:
            break
        # promote implied-equality rows (in original x-space) to equalities
        original_rows = kept[implied]
        A_eq = np.vstack([A_eq, A_ub[original_rows]]) if A_eq.size else A_ub[original_rows]
        b_eq = np.concatenate([b_eq, b_ub[original_rows]]) if b_eq.size else b_ub[original_rows]
        mask = np.ones(A_ub.shape[0], dtype=bool)
        mask[original_rows] = False
        A_ub, b_ub = A_ub[mask], b_ub[mask]
    else:
        raise InferenceError("facial reduction did not converge")

    reduced = Polytope(A_z, b_z, [f"z{i}" for i in range(N.shape[1])])
    return ReducedPolytope(reduced, AffineMap(x0, N), names)


def chebyshev_center(polytope: Polytope, radius_cap: float = 1e6):
    """Center and radius of the largest inscribed ball (LP).

    For unbounded polytopes the radius is capped so the LP stays bounded.
    Returns ``(center, radius)``; raises when the polytope is empty.
    """
    A, b = polytope.A, polytope.b
    m, n = A.shape
    if m == 0:
        return np.zeros(n), float(radius_cap)
    norms = np.linalg.norm(A, axis=1)
    # variables: (x ∈ R^n, r ≥ 0); maximize r s.t. A x + norms r ≤ b
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_lp = np.hstack([A, norms.reshape(-1, 1)])
    bounds = [(None, None)] * n + [(0, radius_cap)]
    result = _solve_lp("chebyshev", c, A_ub=A_lp, b_ub=b, bounds=bounds)
    if result.status != 0 or result.x is None:
        raise InferenceError(f"Chebyshev center LP failed: {result.message}")
    center = result.x[:n]
    radius = float(result.x[-1])
    if radius <= 1e-10:
        raise InferenceError("polytope has empty interior")
    return center, radius


def interior_point(polytope: Polytope) -> np.ndarray:
    center, _radius = chebyshev_center(polytope)
    return center


def max_min_slack(polytope: Polytope, cap: float = 1.0, absolute: bool = False):
    """Largest achievable minimum slack t ≤ cap; returns (t*, witness point).

    With ``absolute=False`` slack is measured in Euclidean distance
    (normalized by row norms); with ``absolute=True`` it is measured in raw
    inequality units ``b_i − a_i·x`` — the natural units for constraints
    that encode cost gaps.
    """
    A, b = polytope.A, polytope.b
    m, n = A.shape
    if m == 0:
        return cap, np.zeros(n)
    norms = np.ones(m) if absolute else np.linalg.norm(A, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_lp = np.hstack([A, norms.reshape(-1, 1)])
    bounds = [(None, None)] * n + [(0, cap)]
    result = _solve_lp("min_slack", c, A_ub=A_lp, b_ub=b, bounds=bounds)
    if result.status != 0 or result.x is None:
        raise InferenceError(f"slack LP failed: {result.message}")
    return float(result.x[-1]), result.x[:n]


def low_norm_interior_point(
    reduced: "ReducedPolytope", margin: float = 1e-6
) -> np.ndarray:
    """An interior point whose x-space coordinates are small.

    The Chebyshev center of an *unbounded* polytope can sit arbitrarily far
    out along the recession cone, which puts HMC chains in regions of
    astronomically low posterior density.  Instead we (1) compute the best
    achievable normalized slack t*, (2) minimize the sum of the
    (non-negative) x-coordinates over the polytope shrunk by a *small
    absolute* Euclidean margin from every facet.  The result is strictly
    interior yet close to the prior mode — a good HMC starting point.
    """
    polytope = reduced.polytope
    A, b = polytope.A, polytope.b
    n = polytope.dim
    if n == 0:
        return np.zeros(0)
    # margin is measured in raw inequality units so that data-constraint
    # slacks (= cost gaps ε_i) stay comfortably positive at the start
    t_star, witness = max_min_slack(polytope, cap=10.0 * margin, absolute=True)
    if t_star <= 1e-12:
        raise InferenceError("polytope has empty interior")
    distance = min(margin, 0.5 * t_star)
    b_shrunk = b - distance
    # minimize 1ᵀ x = 1ᵀ(x0 + N z): linear in z, bounded below since x ≥ 0
    c = reduced.affine.N.sum(axis=0)
    result = _solve_lp("low_norm", c, A_ub=A, b_ub=b_shrunk, bounds=[(None, None)] * n)
    if result.status != 0 or result.x is None:
        return witness
    return result.x


def random_interior_points(
    polytope: Polytope, count: int, rng: np.random.Generator, scale: float = 0.3
) -> List[np.ndarray]:
    """A few interior points near the Chebyshev center (chain starts)."""
    center, radius = chebyshev_center(polytope)
    points = [center]
    attempts = 0
    while len(points) < count and attempts < 100 * count:
        attempts += 1
        direction = rng.normal(size=polytope.dim)
        norm = np.linalg.norm(direction)
        if norm == 0:
            continue
        candidate = center + direction / norm * radius * scale * rng.uniform()
        if polytope.contains(candidate, tol=-1e-9):
            points.append(candidate)
    while len(points) < count:
        points.append(center)
    return points
