"""Lockstep sampler core: one leapfrog kernel and one chain loop.

BayesWC's survival posterior is sampled with plain HMC (Eq. 5.12) and
BayesPC's polytope with reflective HMC (Remark 5.3): the same leapfrog
algorithm, without and with facets.  Both run here.  The kernel
(:func:`leapfrog_batch`) and the chain loop (:func:`attempt`) take an
optional :class:`BatchedDriftEngine`; ``None`` means free flight, which
is plain HMC.

All chains of a cell are stacked into ``(n_chains, dim)`` state arrays and
advanced together: momentum draws, leapfrog integration, reflection off
polytope facets, Metropolis accepts and dual-averaging step-size
adaptation all run as batched array ops, and the log-density + gradient
closure is evaluated once per step for the whole batch (see
:mod:`repro.stats.densities`).

**Batch-size stability.**  A chain's draws must not depend on what else
sits in its batch: chain ``i`` of a lockstep batch is bit-identical to the
same chain run alone as a batch of one.  Everything here is therefore
built from batch-size-stable primitives only:

* elementwise ufuncs and per-row gathers/scatters — trivially stable;
* reductions always along the **last** axis (``(x * y).sum(axis=-1)``),
  whose pairwise summation order per row is independent of the number of
  rows — verified by property tests;
* no BLAS in any value-producing path (``A @ x`` for 1-D ``x`` dispatches
  dgemv while the 2-D batch would use dgemm, and the two may disagree in
  the last ulp — enough to flip a wall-contact sign test);
* chains never share randomness: each chain owns a private Generator
  stream (:func:`spawn_streams`) and draws from it in a fixed
  per-iteration order, so the per-stream bit consumption is independent
  of batch grouping.

Masks (``np.where``) freeze chains that finish a jittered trajectory (or
fail it) early; a frozen row passes through the remaining substeps
bit-unchanged, so lockstep iteration count never leaks between rows.

Checkpoint snapshots are saved per chain at iteration boundaries.  A
batch that finds *any* saved snapshot on entry resumes its chains one at
a time (batch size one) — resumption is rare, and per-chain resume is
bit-identical to lockstep by the property above.  Fault-injected
densities run their chains in order, each chain's attempt 0 and healing
restarts before the next chain starts, so injected-clause counters fire
in chain order (:func:`sample_chains`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .base import (
    HMCConfig,
    HMCResult,
    ReflectiveHMCResult,
    combine_chains,
    heal_continue,
    sample_with_healing,
)
from .densities import BatchedDensity, CountingDensity, LoopDensity, as_batched, rowmat
from .polytope import Polytope
from .. import checkpoint, faultinject, telemetry
from ..errors import InferenceError

#: maximum wall reflections within a single leapfrog position update
MAX_REFLECTIONS = 64


def spawn_streams(rng: np.random.Generator, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent per-chain generators from ``rng``.

    Uses :meth:`numpy.random.Generator.spawn` (child streams keyed off the
    parent's seed sequence; the parent's bit stream is untouched).  For
    generators without a spawnable seed sequence — e.g. one rebuilt from a
    raw bit-generator state — falls back to seeding children from parent
    draws, which is equally deterministic.

    Called once per cell before any chain runs, so chain ``i`` sees the
    same stream however the chains are grouped, and whichever sampler
    (HMC, reflective HMC, NUTS) runs the cell.
    """
    if n <= 0:
        return []
    try:
        return list(rng.spawn(n))
    except (AttributeError, TypeError, ValueError):
        seeds = rng.integers(0, 2**63 - 1, size=(n, 4))
        return [np.random.default_rng([int(s) for s in row]) for row in seeds]


class _BatchedDualAveraging:
    """Vectorized Nesterov dual averaging — one adapter row per chain.

    Mirrors the scalar :class:`repro.stats.base._DualAveraging` that NUTS
    uses, elementwise over the chain axis.  The iteration counter is
    shared — lockstep batches always update all rows at every warmup
    iteration.
    """

    _KEYS = ("mu", "target", "log_step", "log_step_bar", "h_bar")

    def __init__(self, initial_step: np.ndarray, target: float):
        self.mu = np.log(10.0 * initial_step)
        self.target = target
        self.log_step = np.log(initial_step)
        self.log_step_bar = np.zeros_like(self.mu)
        self.h_bar = np.zeros_like(self.mu)
        self.gamma = 0.05
        self.t0 = 10.0
        self.kappa = 0.75
        self.iteration = 0

    def update(self, accept_prob: np.ndarray) -> np.ndarray:
        self.iteration += 1
        m = self.iteration
        eta = 1.0 / (m + self.t0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - accept_prob)
        self.log_step = self.mu - math.sqrt(m) / self.gamma * self.h_bar
        weight = m**-self.kappa
        self.log_step_bar = weight * self.log_step + (1.0 - weight) * self.log_step_bar
        return np.exp(self.log_step)

    def final(self) -> np.ndarray:
        return np.exp(self.log_step_bar)

    def state(self, row: int) -> dict:
        """Per-chain JSON snapshot, schema-compatible with the scalar class."""
        return {
            "mu": float(self.mu[row]),
            "target": float(self.target),
            "log_step": float(self.log_step[row]),
            "log_step_bar": float(self.log_step_bar[row]),
            "h_bar": float(self.h_bar[row]),
            "gamma": self.gamma,
            "t0": self.t0,
            "kappa": self.kappa,
            "iteration": self.iteration,
        }

    def restore(self, row: int, state: dict) -> None:
        for key in self._KEYS:
            if key == "target":
                self.target = float(state[key])
            else:
                getattr(self, key)[row] = float(state[key])
        self.gamma = float(state["gamma"])
        self.t0 = float(state["t0"])
        self.kappa = float(state["kappa"])
        self.iteration = int(state["iteration"])


class BatchedDriftEngine:
    """Reflection geometry for one polytope, batched over chains.

    Caches the Gram matrix ``A Aᵀ`` so that, inside a drift, a reflection
    off facet ``h`` is an O(m) update of ``A·p`` and the slacks instead of
    a fresh O(m·n) matvec; rows that finish their drift early are frozen
    by masks.  ``tests/drift_oracle.py`` keeps a scalar twin that the
    property tests check this engine against.
    """

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
        self._const_cache = {}

    def _consts(self, rows: int):
        """Shared ``(zeros, ones)`` rows-sized results for the no-reflection
        exits.  Callers must treat drift results as read-only (they do)."""
        cached = self._const_cache.get(rows)
        if cached is None:
            cached = (np.zeros(rows, int), np.ones(rows, bool))
            self._const_cache[rows] = cached
        return cached

    def contains(self, Q: np.ndarray, tol: float) -> np.ndarray:
        """Row-wise ``A q ≤ b + tol`` via the batch-stable matvec."""
        if self.A.shape[0] == 0:
            return np.ones(Q.shape[0], dtype=bool)
        return np.all(rowmat(self.A, Q) <= self.b[None, :] + tol, axis=-1)

    def drift(self, Q: np.ndarray, P: np.ndarray, dt: np.ndarray):
        """Advance each row by its ``dt`` along ``P``, reflecting at facets.

        Returns ``(Q', P', reflections, ok, inside)``: ``ok[i]`` is False
        when row ``i`` exhausted the reflection budget (its proposal is
        rejected) and ``inside`` is the zero-tolerance containment of the
        returned positions, saving callers a separate matvec.  Results may
        alias the inputs or engine-owned constants — treat them read-only.
        """
        rows = Q.shape[0]
        zeros_i, ones_b = self._consts(rows)
        if self.A.shape[0] == 0:
            return Q + dt[:, None] * P, P, zeros_i, ones_b, ones_b
        remaining = np.asarray(dt, dtype=float)
        # direct path, decided PER ROW so one reflecting chain cannot
        # change another's trajectory: the polytope is convex, so the
        # straight segment between two interior points never crosses a
        # facet — a row whose full-step endpoint lies inside drifts right
        # there.  (Any facet "hit" the time machinery would report for
        # such a segment is tolerance fuzz from a grazing contact.)
        Q_direct = Q + remaining[:, None] * P
        direct = (rowmat(self.A, Q_direct) <= self.b[None, :]).all(axis=-1)
        if bool(direct.all()):
            return Q_direct, P, zeros_i, ones_b, ones_b
        refl = np.zeros(rows, int)
        ok = np.ones(rows, bool)
        inside = direct.copy()
        # reflecting rows run a scalar incremental loop ONE ROW AT A TIME:
        # reflections desynchronize the chains (one row may bounce dozens
        # of times while its batch-mate coasts), so masked lockstep would
        # spend full-batch dispatches per bounce on mostly-frozen rows.
        # A per-row computation is trivially batch-size stable — the row's
        # result cannot depend on what else sits in the batch.
        Qout = Q_direct.copy()
        Pout = P.copy()
        for i in np.flatnonzero(~direct):
            q, p, n_refl, row_ok = self._drift_row(Q[i], P[i], float(remaining[i]))
            Qout[i] = q
            Pout[i] = p
            refl[i] = n_refl
            ok[i] = row_ok
            inside[i] = bool(np.all(self.A @ q <= self.b))
        return Qout, Pout, refl, ok, inside

    def _drift_row(self, q: np.ndarray, p: np.ndarray, remaining: float):
        """One row's reflective drift (incremental O(m) slack/Ap updates)."""
        A, b = self.A, self.b
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
                return q + remaining * p, p, reflections, True
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


def _advance(drift: Optional[BatchedDriftEngine], Q, P, dt):
    """One position update: ``(Q', P', reflections, moved)``.

    Free flight (``drift is None``) moves straight along ``P`` and keeps
    rows whose position stays finite.  A reflective drift keeps rows that
    stayed within the reflection budget and ended inside the polytope:
    accepting a state even marginally outside wedges the chain.
    """
    if drift is None:
        Q = Q + dt[:, None] * P
        return Q, P, 0, np.isfinite(Q).all(axis=-1)
    Q, P, refl, ok, inside = drift.drift(Q, P, dt)
    return Q, P, refl, ok & inside


def leapfrog_batch(
    density: BatchedDensity,
    drift: Optional[BatchedDriftEngine],
    Q0: np.ndarray,
    P0: np.ndarray,
    G0: np.ndarray,
    step: np.ndarray,
    n_steps: np.ndarray,
):
    """Batched leapfrog with per-row step counts; returns
    ``(Q, P, logp, G, reflections)``.

    Position updates go through :func:`_advance` — free flight, or a drift
    reflecting off the facets of ``drift``'s polytope.  A row whose update
    fails, or whose density is non-finite, reports ``logp = -inf`` (its
    positions/momenta are then discarded by the accept step).  The density
    is evaluated only on rows still integrating, so gradient-eval counts
    match per-chain execution.
    """
    q = Q0.copy()
    rows = q.shape[0]
    refl_total = np.zeros(rows, int)
    with np.errstate(over="ignore", invalid="ignore"):
        p = P0 + 0.5 * step[:, None] * G0
        g = G0.copy()
        logp = np.full(rows, -np.inf)
        alive = np.ones(rows, bool)
        alive_all = True
        max_steps = int(n_steps.max())
        min_steps = int(n_steps.min())
        # kick_all[s] == np.where(s == n_steps - 1, 0.5, 1.0) * step
        kick_all = (
            np.where(np.arange(max_steps)[:, None] == (n_steps - 1)[None, :], 0.5, 1.0)
            * step[None, :]
        )
        for s in range(max_steps):
            # fast path: every row is still integrating, so the act masks
            # are all-true and np.where(mask, new, old) == new bit for bit
            # — update the whole batch and skip the mask machinery
            if alive_all and s < min_steps:
                q, p, refl, moved = _advance(drift, q, p, step)
                refl_total = refl_total + refl
                if moved.all():
                    l_rows, g_rows = density.batched(q)
                    ok_rows = np.isfinite(l_rows) & np.isfinite(g_rows).all(axis=-1)
                    if ok_rows.all():
                        logp = l_rows
                        g = g_rows
                        p = p + kick_all[s][:, None] * g
                        continue
                    logp = np.where(ok_rows, l_rows, -np.inf)
                    g = np.where(ok_rows[:, None], g_rows, g)
                    alive = ok_rows.copy()
                    alive_all = False
                    p = np.where(alive[:, None], p + kick_all[s][:, None] * g, p)
                    continue
                alive = moved.copy()
                alive_all = False
                act = alive.copy()
            else:
                act = alive & (s < n_steps)
                if not act.any():
                    break
                idx = np.flatnonzero(act)
                qd, pd, refl, moved = _advance(drift, q[idx], p[idx], step[idx])
                q[idx] = qd
                p[idx] = pd
                refl_total[idx] += refl
                alive[idx[~moved]] = False
                alive_all = False
                act = act & alive
            idx = np.flatnonzero(act)
            if idx.size:
                l_rows, g_rows = density.batched(q[idx])
                ok_rows = np.isfinite(l_rows) & np.all(np.isfinite(g_rows), axis=-1)
                logp[idx] = np.where(ok_rows, l_rows, -np.inf)
                good = idx[ok_rows]
                g[good] = g_rows[ok_rows]
                alive[idx[~ok_rows]] = False
                act = act & alive
            p = np.where(act[:, None], p + kick_all[s][:, None] * g, p)
    logp = np.where(alive, logp, -np.inf)
    return q, p, logp, g, refl_total


def _find_initial_step_row(
    density: BatchedDensity,
    drift: Optional[BatchedDriftEngine],
    q: np.ndarray,
    logp: float,
    grad: np.ndarray,
    rng: np.random.Generator,
    start: float,
) -> float:
    """Stan's heuristic, per chain: scale the step so one leapfrog step
    accepts ≈ 1/2.  Runs through the batched kernel with a single row, so
    its arithmetic does not depend on the batch the chain runs in."""
    step = start
    momentum = rng.normal(size=q.size)
    h0 = -logp + 0.5 * float((momentum * momentum).sum())
    one = np.ones(1, dtype=int)

    def accept_prob(step_size: float) -> float:
        _qn, pn, lpn, _gn, _r = leapfrog_batch(
            density, drift, q[None, :], momentum[None, :], grad[None, :],
            np.array([step_size]), one,
        )
        if not np.isfinite(lpn[0]):
            return 0.0
        h1 = -float(lpn[0]) + 0.5 * float((pn[0] * pn[0]).sum())
        return math.exp(min(0.0, h0 - h1))

    a = accept_prob(step)
    direction = 1 if a > 0.5 else -1
    for _ in range(60):
        step_next = step * (2.0 if direction == 1 else 0.5)
        a_next = accept_prob(step_next)
        if (direction == 1 and a_next < 0.5) or (direction == -1 and a_next > 0.5):
            return step_next if direction == -1 else step
        step = step_next
        if step < 1e-14 or step > 1e6:
            break
    return step


def _uniform_rows(streams: Sequence[np.random.Generator]) -> np.ndarray:
    return np.array([stream.uniform() for stream in streams])


def _normal_rows(streams: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    out = np.empty((len(streams), dim))
    for i, stream in enumerate(streams):
        out[i] = stream.normal(size=dim)
    return out


def _jitter_rows(
    streams: Sequence[np.random.Generator], config: HMCConfig
) -> np.ndarray:
    if not config.jitter_steps:
        return np.full(len(streams), config.n_leapfrog, dtype=int)
    return np.array(
        [
            max(1, int(round(config.n_leapfrog * stream.uniform(0.6, 1.4))))
            for stream in streams
        ],
        dtype=int,
    )


def _chain_result(drift, n_reflections, **fields):
    """One chain's result: HMCResult in free flight, else ReflectiveHMCResult."""
    if drift is None:
        return HMCResult(**fields)
    return ReflectiveHMCResult(**fields, n_reflections=n_reflections)


#: chain-result fields a finished chain's snapshot carries
_DONE_KEYS = (
    "accept_rate", "step_size", "divergences", "leapfrog_steps", "n_reflections"
)


def attempt(
    density: BatchedDensity,
    drift: Optional[BatchedDriftEngine],
    starts: Sequence[np.ndarray],
    config: HMCConfig,
    streams: Sequence[np.random.Generator],
    keys: Sequence[Optional[str]],
) -> List[object]:
    """One healing attempt of (reflective) HMC over a batch of chains.

    Returns one outcome per chain: a chain result, or the
    :class:`InferenceError` a chain run alone would have raised — a start
    outside the polytope or with zero density.  Other exceptions
    propagate.
    """
    starts = [np.asarray(s, dtype=float).copy() for s in starts]
    n_chains = len(starts)
    dim = starts[0].size
    cursors = [
        checkpoint.chain_cursor(key, config, s) for key, s in zip(keys, starts)
    ]
    loads = [cur.load() if cur is not None else None for cur in cursors]
    if n_chains > 1 and any(saved is not None for saved in loads):
        # some chain has a snapshot: resume chains one at a time (batch
        # size one is bit-identical to lockstep, and resumption is rare)
        return [
            attempt(density, drift, [s], config, [r], [k])[0]
            for s, r, k in zip(starts, streams, keys)
        ]
    saved = loads[0] if n_chains == 1 else None
    if saved is not None and saved["status"] == "done":
        # the whole chain already ran; replay its result and leave the rng
        # exactly where the uninterrupted chain would have left it
        checkpoint.restore_rng(streams[0], saved["rng"])
        samples = np.asarray(saved["samples"], dtype=float)
        return [
            _chain_result(
                drift,
                samples=samples.reshape(config.n_samples, dim),
                logdensities=np.asarray(saved["logdensities"], dtype=float),
                **{key: saved[key] for key in _DONE_KEYS},
            )
        ]

    outcomes: List[object] = [None] * n_chains
    start_iteration = 0
    if saved is not None:
        live = [0]
        Q = np.asarray(saved["position"], dtype=float)[None, :]
        logp = np.array([float(saved["logp"])])
        G = np.asarray(saved["grad"], dtype=float)[None, :]
        step = np.array([float(saved["step_size"])])
        step_floor = np.array([float(saved["step_floor"])])
        step_cap = np.array([float(saved["step_cap"])])
        adapter = _BatchedDualAveraging(
            np.full(1, config.initial_step_size), config.target_accept
        )
        adapter.restore(0, saved["adapter"])
        samples = np.empty((1, config.n_samples, dim))
        logdens = np.empty((1, config.n_samples))
        collected = int(saved["collected"])
        if collected:
            samples[0, :collected] = np.asarray(saved["samples"], dtype=float).reshape(
                collected, dim
            )
            logdens[0, :collected] = np.asarray(saved["logdensities"], dtype=float)
        accepted = np.array([float(saved["accepted"])])
        divergences = np.array([int(saved["divergences"])])
        lf_steps = np.array([int(saved["leapfrog_steps"])])
        n_reflections = np.array([int(saved["n_reflections"])])
        start_iteration = int(saved["iteration"])
        checkpoint.restore_rng(streams[0], saved["rng"])
    else:
        Q_all = np.stack(starts)
        if drift is None:
            live = list(range(n_chains))
            zero_density = "HMC initial position has zero density"
        else:
            interior = drift.contains(Q_all, 1e-9)
            for c in np.flatnonzero(~interior):
                outcomes[c] = InferenceError(
                    "reflective HMC must start from an interior point"
                )
            live = [c for c in range(n_chains) if interior[c]]
            zero_density = "initial point has zero density"
        if not live:
            return outcomes
        logp_in, G_in = density.batched(Q_all[live])
        bad = ~np.isfinite(logp_in)
        for i in np.flatnonzero(bad):
            outcomes[live[i]] = InferenceError(zero_density)
        keep = np.flatnonzero(~bad)
        live = [live[i] for i in keep]
        if not live:
            return outcomes
        Q = Q_all[live]
        logp = logp_in[keep]
        G = G_in[keep]
        step = np.array(
            [
                _find_initial_step_row(
                    density, drift, Q[i], float(logp[i]), G[i], streams[c],
                    config.initial_step_size,
                )
                for i, c in enumerate(live)
            ]
        )
        rows = len(live)
        if drift is None:
            step_floor = np.zeros(rows)
            step_cap = np.full(rows, config.max_step_size)
        else:
            # clamp adaptation so one burst of hard rejections (e.g. a corner
            # of the polytope) cannot spiral the step size into oblivion
            step_floor = step * 1e-4
            step_cap = np.minimum(step * 1e4, config.max_step_size)
        adapter = _BatchedDualAveraging(step.copy(), config.target_accept)
        samples = np.empty((rows, config.n_samples, dim))
        logdens = np.empty((rows, config.n_samples))
        accepted = np.zeros(rows)
        divergences = np.zeros(rows, dtype=int)
        lf_steps = np.zeros(rows, dtype=int)
        n_reflections = np.zeros(rows, dtype=int)

    row_streams = [streams[c] for c in live]
    row_cursors = [cursors[c] for c in live]
    rows = len(live)
    n_total = config.n_warmup + config.n_samples
    for iteration in range(start_iteration, n_total):
        for i in range(rows):
            cur = row_cursors[i]
            if cur is not None and cur.due(iteration):
                collected = max(0, iteration - config.n_warmup)
                cur.save(
                    {
                        "status": "running",
                        "iteration": iteration,
                        "position": Q[i].tolist(),
                        "logp": float(logp[i]),
                        "grad": G[i].tolist(),
                        "step_size": float(step[i]),
                        "step_floor": float(step_floor[i]),
                        "step_cap": float(step_cap[i]),
                        "adapter": adapter.state(i),
                        "collected": collected,
                        "samples": samples[i, :collected].tolist(),
                        "logdensities": logdens[i, :collected].tolist(),
                        "accepted": float(accepted[i]),
                        "divergences": int(divergences[i]),
                        "leapfrog_steps": int(lf_steps[i]),
                        "n_reflections": int(n_reflections[i]),
                        "rng": checkpoint.rng_state(row_streams[i]),
                    }
                )
        P = _normal_rows(row_streams, dim)
        current_h = -logp + 0.5 * (P * P).sum(axis=-1)
        n_steps = _jitter_rows(row_streams, config)
        lf_steps = lf_steps + n_steps
        Qn, Pn, logp_n, Gn, refl = leapfrog_batch(density, drift, Q, P, G, step, n_steps)
        n_reflections = n_reflections + refl
        finite = np.isfinite(logp_n)
        with np.errstate(over="ignore", invalid="ignore"):
            proposal_h = -logp_n + 0.5 * (Pn * Pn).sum(axis=-1)
            accept_prob = np.where(
                finite, np.exp(np.minimum(0.0, current_h - proposal_h)), 0.0
            )
        accept = _uniform_rows(row_streams) < accept_prob
        Q = np.where(accept[:, None], Qn, Q)
        logp = np.where(accept, logp_n, logp)
        G = np.where(accept[:, None], Gn, G)
        if iteration < config.n_warmup:
            step = np.clip(adapter.update(accept_prob), step_floor, step_cap)
            if iteration == config.n_warmup - 1:
                step = np.clip(adapter.final(), step_floor, step_cap)
        else:
            idx = iteration - config.n_warmup
            samples[:, idx] = Q
            logdens[:, idx] = logp
            accepted = accepted + accept_prob
            divergences = divergences + (accept_prob == 0.0)

    for i, c in enumerate(live):
        fields = {
            "accept_rate": float(accepted[i]) / max(1, config.n_samples),
            "step_size": float(step[i]),
            "divergences": int(divergences[i]),
            "leapfrog_steps": int(lf_steps[i]),
            "n_reflections": int(n_reflections[i]),
        }
        cur = row_cursors[i]
        if cur is not None:
            cur.save(
                {
                    "status": "done",
                    "iteration": n_total,
                    "samples": samples[i].tolist(),
                    "logdensities": logdens[i].tolist(),
                    **fields,
                    "rng": checkpoint.rng_state(row_streams[i]),
                }
            )
        outcomes[c] = _chain_result(
            drift, samples=samples[i], logdensities=logdens[i], **fields
        )
    return outcomes


def single(
    density: BatchedDensity,
    drift: Optional[BatchedDriftEngine],
    start: np.ndarray,
    config: HMCConfig,
    rng: np.random.Generator,
    key: Optional[str],
):
    """One chain as a batch of one; raises the chain's InferenceError."""
    out = attempt(density, drift, [start], config, [rng], [key])[0]
    if isinstance(out, InferenceError):
        raise out
    return out


def run_chains(
    density: BatchedDensity,
    drift: Optional[BatchedDriftEngine],
    starts: Sequence[np.ndarray],
    config: HMCConfig,
    streams: Sequence[np.random.Generator],
    keys: Sequence[Optional[str]],
    in_order: bool,
) -> List[object]:
    """All chains of a cell, healing included.

    Attempt 0 runs as one lockstep batch, and each chain's (rare) healing
    restarts then run on their own.  ``in_order`` instead runs chain by
    chain, each chain's attempt 0 and restarts before the next chain
    starts.  Both orders draw the same bits from each chain's stream.
    """
    starts = [np.asarray(s, dtype=float) for s in starts]

    def chain(c):
        return lambda cfg, r: single(density, drift, starts[c], cfg, r, keys[c])

    if in_order or len(starts) < 2:
        return [
            sample_with_healing(chain(c), config, streams[c])
            for c in range(len(starts))
        ]
    outcomes = attempt(density, drift, starts, config, streams, keys)
    results = []
    for c, out in enumerate(outcomes):
        error = out if isinstance(out, InferenceError) else None
        result = None if error is not None else out
        results.append(heal_continue(chain(c), config, streams[c], result, error))
    return results


def sample_chains(
    logdensity_and_grad,
    polytope: Optional[Polytope],
    initial_points,
    config: HMCConfig,
    rng: np.random.Generator,
    fault_key: str,
):
    """Several self-healing chains from different starts; concatenated draws.

    Plain HMC when ``polytope`` is None, else reflective HMC inside it.
    Chains draw from independent per-chain streams spawned off ``rng``,
    which is what lets them advance in lockstep.  A density wrapped by an
    active ``nan-logdensity`` fault plan runs its chains in order instead,
    so the plan's clause counters fire in chain order.
    """
    kind = "hmc" if polytope is None else "reflective"
    wrapped = faultinject.wrap_logdensity(logdensity_and_grad, fault_key)
    in_order = wrapped is not logdensity_and_grad
    density = LoopDensity(wrapped) if in_order else as_batched(logdensity_and_grad)
    grad_evals = None
    if telemetry.enabled():
        grad_evals = [0]
        density = CountingDensity(density, grad_evals)
    attrs = {"n_samples": config.n_samples, "n_warmup": config.n_warmup}
    if polytope is not None:
        attrs["facets"] = int(polytope.A.shape[0])
    with telemetry.span(f"sampler.{kind}", **attrs) as tspan:
        drift = None if polytope is None else BatchedDriftEngine(polytope)
        starts = [np.asarray(p, dtype=float) for p in initial_points]
        streams = spawn_streams(rng, len(starts))
        keys = [f"{kind}/{fault_key}/chain{i}" for i in range(len(starts))]
        results = run_chains(density, drift, starts, config, streams, keys, in_order)
        return combine_chains(kind, results, grad_evals, tspan)
