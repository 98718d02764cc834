"""Batched log-density protocol for the lockstep sampler.

The lockstep sampler (:mod:`repro.stats.batched`) evaluates the target
on a ``(rows, dim)`` matrix of positions at once.  A *batched density*
is any object with

    ``batched(Q) -> (logp, grad)``   # ``(rows,)`` and ``(rows, dim)``

whose row ``i`` depends only on ``Q[i]`` — **batch-size stability**: the
result of a row must be bit-identical whether it is evaluated alone or
stacked with other rows.  That property is what makes a chain's draws
the same in a lockstep batch as alone, so native implementations must
avoid rank-dependent reduction orders (no BLAS matvecs over the batch;
use broadcast-multiply + last-axis sums).

:func:`as_batched` adapts any legacy scalar ``f(q) -> (logp, grad)``
closure via a row loop — trivially batch-stable, and it preserves the
scalar call order that fault-injection clause counters depend on.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

LogDensityAndGrad = Callable[[np.ndarray], Tuple[float, np.ndarray]]


class BatchedDensity:
    """Base class: scalar calls route through the batched path."""

    def __call__(self, q: np.ndarray) -> Tuple[float, np.ndarray]:
        logp, grad = self.batched(np.asarray(q, dtype=float)[None, :])
        return float(logp[0]), grad[0]

    def batched(self, Q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class LoopDensity(BatchedDensity):
    """Row-loop adapter over a scalar log-density closure."""

    def __init__(self, fn: LogDensityAndGrad):
        self.fn = fn

    def __call__(self, q: np.ndarray) -> Tuple[float, np.ndarray]:
        return self.fn(q)

    def batched(self, Q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        rows = Q.shape[0]
        logp = np.empty(rows)
        grad = np.empty_like(Q, dtype=float)
        for i in range(rows):
            value, g = self.fn(Q[i])
            logp[i] = value
            grad[i] = np.asarray(g, dtype=float)
        return logp, grad


class CountingDensity(BatchedDensity):
    """Observation-only wrapper counting evaluated rows (telemetry).

    Rows, not calls: one lockstep call on ``k`` active chains counts the
    same as ``k`` per-chain calls, so gradient-eval counters do not depend
    on how chains are batched.
    """

    def __init__(self, base: BatchedDensity, counts):
        self.base = base
        self.counts = counts

    def __call__(self, q: np.ndarray) -> Tuple[float, np.ndarray]:
        self.counts[0] += 1
        return self.base(q)

    def batched(self, Q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        self.counts[0] += Q.shape[0]
        return self.base.batched(Q)


def as_batched(fn) -> BatchedDensity:
    """Adapt ``fn`` to the batched protocol (no-op for native objects)."""
    if isinstance(fn, BatchedDensity):
        return fn
    if hasattr(fn, "batched"):
        return fn
    return LoopDensity(fn)


# Operator size (elements of M) above which a per-row dgemv loop beats a
# single einsum.  The choice only depends on M's shape — identical for every
# batch size of the same model — so a chain takes the same path in a
# lockstep batch as alone.
_ROWMAT_BLAS_CUTOVER = 8192


def rowmat(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Batch-stable matvec: ``rowmat(M, X)[i] == M @ X[i]``, each row's bits
    independent of the batch size.  Two batch-stable implementations:

    * ``einsum`` computes each output element with its own sequential
      sum-of-products, so row results never depend on the batch size
      (unlike a single dgemm over the batch, whose blocking differs with
      operand rank) — and it skips the ``(rows, m, dim)`` broadcast
      temporary a multiply-then-sum needs.  Best for small operators.
    * a per-row dgemv loop: one BLAS call *per row* sees only that row,
      so its bits cannot depend on what else is in the batch.  BLAS wins
      by ~2x once ``M`` is large enough to amortise the loop dispatch.
    """
    if M.size >= _ROWMAT_BLAS_CUTOVER:
        out = np.empty((X.shape[0], M.shape[0]))
        for i in range(X.shape[0]):
            np.matmul(M, X[i], out=out[i])
        return out
    return np.einsum("rd,md->rm", X, M)
