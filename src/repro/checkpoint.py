"""Mid-chain checkpointing for the MCMC samplers (durable runs).

A paper-scale evaluation cell spends nearly all of its wall clock inside
one of the three samplers (HMC, NUTS, reflective HMC).  When the parent
process is SIGTERMed or the host dies, the run journal
(:mod:`repro.evalharness.journal`) lets ``bench resume`` skip *completed*
cells — but without checkpointing, an interrupted cell restarts its
chains from iteration zero.  This module snapshots chain state
periodically so a resumed cell continues exactly where it stopped.

A checkpoint captures *everything* the chain loop needs: the current
position (and its cached log-density/gradient), the step size, the
dual-averaging adapter internals, the iteration index, the draws
collected so far, and — crucially — the rng bit-generator state.  A
chain restored from a checkpoint therefore consumes the random stream
identically to an uninterrupted chain, so resumed runs produce
**rng-identical posteriors** (the interrupted≡uninterrupted counterpart
of the telemetry layer's traced≡untraced property).

Activation mirrors :mod:`repro.telemetry`: off by default (the samplers
pay a single ``None`` test per chain), enabled explicitly via
:func:`enable` or through the ``REPRO_CHECKPOINT=<dir>`` environment
variable, which the eval runner sets from the run journal's
``checkpoints/`` directory so forked pool workers inherit it.  Inside a
worker, :func:`task_scope` namespaces chain files per grid cell.

Checkpoint files are JSON (Python's float repr round-trips doubles
exactly, and numpy bit-generator states are plain int dicts), written
atomically (unique temp file + ``os.replace``) so a kill mid-write can
never tear a snapshot — the previous snapshot simply survives.  Each
file embeds a *fingerprint* of the sampler configuration, the chain key,
the start point, the healing-restart index and any log-density fault
plan; a stale snapshot from a different configuration is ignored rather
than trusted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional

import numpy as np

from . import faultinject, telemetry
from .atomic import atomic_write_text

#: environment variable naming the checkpoint directory (workers inherit)
ENV_CHECKPOINT = "REPRO_CHECKPOINT"
#: iterations between snapshots (override via env for tests / long chains)
ENV_INTERVAL = "REPRO_CHECKPOINT_INTERVAL"
DEFAULT_INTERVAL = 50

_dir: Optional[str] = None
_task_dir: Optional[str] = None
_interval: int = DEFAULT_INTERVAL
_env_seen: Optional[str] = None


def enabled() -> bool:
    """Is checkpointing active for this process?"""
    return _dir is not None


def enable(directory: os.PathLike, interval: Optional[int] = None) -> None:
    """Activate checkpointing, writing chain snapshots under ``directory``."""
    global _dir, _interval
    _dir = str(directory)
    os.makedirs(_dir, exist_ok=True)
    if interval is not None:
        _interval = max(1, int(interval))
    else:
        _interval = max(1, int(os.environ.get(ENV_INTERVAL, DEFAULT_INTERVAL)))


def disable() -> None:
    """Deactivate checkpointing (task scopes become no-ops)."""
    global _dir, _task_dir, _env_seen
    _dir = None
    _task_dir = None
    _env_seen = None


def ensure_from_env() -> bool:
    """Enable (or re-point) from ``REPRO_CHECKPOINT`` if set.

    Called once per task on the worker side.  Unlike a plain "enable
    once" latch this tracks the env value, so two journalled runs in one
    process (tests, ``bench resume`` after ``bench``) never write into a
    stale directory.
    """
    global _env_seen
    value = os.environ.get(ENV_CHECKPOINT) or None
    if value == _env_seen:
        return _dir is not None
    _env_seen = value
    if value:
        enable(value)
        return True
    disable()
    return False


def _sanitize(task_id: str) -> str:
    return task_id.replace("/", "__")


@contextlib.contextmanager
def task_scope(task_id: str):
    """Namespace chain checkpoints under one grid cell (worker-side)."""
    global _task_dir
    if _dir is None:
        yield
        return
    previous = _task_dir
    _task_dir = os.path.join(_dir, _sanitize(task_id))
    try:
        yield
    finally:
        _task_dir = previous


# ---------------------------------------------------------------------------
# JSON-safe state helpers
# ---------------------------------------------------------------------------


def rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """The generator's bit-generator state (plain ints — JSON-safe)."""
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Rewind ``rng`` to a captured bit-generator state."""
    rng.bit_generator.state = state


def array_sha(values: np.ndarray) -> str:
    """Identity hash of a float array (fingerprints chain start points)."""
    data = np.ascontiguousarray(np.asarray(values, dtype=float))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


class ChainCheckpoint:
    """Cursor for one chain's snapshot file.

    ``load`` returns the saved state only when the embedded fingerprint
    matches; ``save`` publishes atomically and degrades to a no-op after
    the first I/O failure (a full disk must never crash the sampler —
    the run merely loses resumability for this chain).
    """

    def __init__(self, path: str, fingerprint: Dict[str, Any], interval: int):
        self.path = path
        self.fingerprint = fingerprint
        self.interval = max(1, int(interval))
        self._broken = False

    def due(self, iteration: int) -> bool:
        """Snapshot at this iteration? (never at 0 — nothing to save yet)"""
        return iteration > 0 and iteration % self.interval == 0

    def load(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.path, "r") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("fingerprint") != self.fingerprint:
            return None
        state = payload.get("state")
        if not isinstance(state, dict) or "status" not in state:
            return None
        telemetry.counter(
            "checkpoint.restored",
            1,
            status=state.get("status"),
            iteration=state.get("iteration", -1),
        )
        return state

    def save(self, state: Dict[str, Any]) -> None:
        if self._broken:
            return
        payload = {"fingerprint": self.fingerprint, "state": state}
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            atomic_write_text(self.path, json.dumps(payload))
        except OSError:
            # full disk / revoked permissions: checkpointing only ever
            # observes, so it must degrade silently rather than kill a
            # chain that would otherwise finish
            self._broken = True
            telemetry.counter("checkpoint.errors", 1)
            return
        telemetry.counter(
            "checkpoint.written", 1, status=state.get("status"), iteration=state.get("iteration", -1)
        )

    def clear(self) -> None:
        with contextlib.suppress(OSError):
            os.unlink(self.path)


def chain_cursor(
    key: Optional[str],
    config,
    start: np.ndarray,
) -> Optional[ChainCheckpoint]:
    """A checkpoint cursor for one chain, or None when inactive.

    The fingerprint covers the chain key, the full sampler config
    (including the healing ``restart_index``, so each self-healing
    attempt gets its own snapshot file) and a hash of the start point;
    the file name is a digest of the fingerprint, so mismatched
    configurations can never clobber each other's snapshots.  The
    ``nan-logdensity`` clauses of the active fault plan join it too: a
    chain run under injected NaNs draws different bits, so a clean rerun
    must never replay its snapshots (nor a faulted rerun a clean chain's).
    """
    if key is None or _dir is None or _task_dir is None:
        return None
    fingerprint = {
        "key": key,
        "start_sha": array_sha(start),
        "config": dataclasses.asdict(config),
    }
    faults = faultinject.site_clauses(faultinject.NAN_LOGDENSITY)
    if faults:
        fingerprint["faults"] = faults
    digest = hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True, default=str).encode()
    ).hexdigest()[:24]
    path = os.path.join(_task_dir, f"{digest}.ckpt.json")
    return ChainCheckpoint(path, fingerprint, _interval)
