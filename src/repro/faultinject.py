"""Deterministic fault injection for the evaluation pipeline.

Long statistical runs fail in practice in a handful of characteristic
ways: worker processes crash or hang, samplers walk into NaN
log-densities, ``scipy.linprog`` reports spurious numerical failures on
degenerate LPs, and parallel jobs tear cache files.  This module injects
exactly those faults — deterministically — so the fault-tolerance layer
(runner watchdog, sampler self-healing, LP fallback chain, cache
recovery) can be proven to work under test.

Activation
----------
Injection is off unless a fault *plan* is active.  A plan comes from
either

* the ``REPRO_FAULTS`` environment variable (propagates to forked pool
  workers), optionally paired with ``REPRO_FAULTS_STATE=<dir>`` so that
  firing counters are shared *across processes* via atomically-claimed
  token files; or
* :func:`install`, for in-process programmatic use (tests).

With no plan active every hook is a near-no-op (one env lookup for the
coarse hooks; :func:`wrap_logdensity` returns the original function
unwrapped, so samplers pay literally nothing per iteration).

Spec format
-----------
``REPRO_FAULTS`` is a ``;``-separated list of clauses::

    site[:key=value]*

where ``site`` is one of

``worker-crash``
    the worker raises :class:`InjectedFault` (``action=raise``, default)
    or dies hard with ``os._exit(13)`` (``action=exit``) before running
    its task — exercising the runner's retry / pool-replacement path.
``worker-hang``
    the worker sleeps ``delay`` seconds (default 3600) — exercising the
    ``--task-timeout`` watchdog.
``nan-logdensity``
    the sampler's log-density returns NaN (value and gradient) —
    exercising divergence detection and chain self-healing.
``lp-fail``
    ``scipy.linprog`` reports a numerical failure — exercising the LP
    fallback chain.
``cache-torn``
    the result cache writes a truncated (torn) entry at the final path —
    exercising corrupt-entry recovery.
``parent-signal``
    the *dispatching* process signals itself mid-grid, before the matched
    task runs: ``action=term`` (default) sends SIGTERM — exercising
    graceful shutdown + ``bench resume`` — while ``action=kill`` sends
    SIGKILL, proving the write-ahead journal alone suffices.
``journal-enospc``
    the run journal's append raises ENOSPC — exercising its warn-once
    degraded mode (the run must finish; only resumability is lost).
``cache-bitflip``
    the result cache flips one payload byte before writing — exercising
    the checksum + quarantine integrity layer.

and the options are

``match=<fnmatch pattern>``
    which keys the clause targets (task ids for crash/hang/cache-torn,
    sampler context keys for nan-logdensity, the linprog method name for
    lp-fail).  Default ``*``.
``count=<n>``
    arm only the first ``n`` matching invocations (``-1`` = unlimited).
    Default ``1``.  With ``REPRO_FAULTS_STATE`` set, the invocation
    counter is shared across processes, so "fire once" means once per
    *run*, not once per worker.
``prob=<p>`` / ``seed=<s>``
    fire an armed invocation only with probability ``p``, decided by a
    SHA-256 hash of ``(seed, clause, invocation#)`` — deterministic, no
    global RNG state touched.  Default ``prob=1``.
``delay=<seconds>``
    sleep length for ``worker-hang``.  Default 3600.
``action=raise|exit|term|kill``
    crash flavour.  ``raise``/``exit`` apply to ``worker-crash`` (``exit``
    only makes sense for pool workers — it terminates the process);
    ``term``/``kill`` apply to ``parent-signal`` and pick the signal.

Example: crash the Round/data-driven/opt cell once and tear the first
two cache writes::

    REPRO_FAULTS='worker-crash:match=Round/data-driven/opt:count=1;cache-torn:count=2'
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import signal
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional

import numpy as np

from . import telemetry
from .errors import ReproError

#: injection sites
WORKER_CRASH = "worker-crash"
WORKER_HANG = "worker-hang"
NAN_LOGDENSITY = "nan-logdensity"
LP_FAIL = "lp-fail"
CACHE_TORN = "cache-torn"
PARENT_SIGNAL = "parent-signal"
JOURNAL_ENOSPC = "journal-enospc"
CACHE_BITFLIP = "cache-bitflip"

SITES = (
    WORKER_CRASH,
    WORKER_HANG,
    NAN_LOGDENSITY,
    LP_FAIL,
    CACHE_TORN,
    PARENT_SIGNAL,
    JOURNAL_ENOSPC,
    CACHE_BITFLIP,
)

ENV_SPEC = "REPRO_FAULTS"
ENV_STATE = "REPRO_FAULTS_STATE"


class InjectedFault(RuntimeError):
    """Raised by an injected ``worker-crash`` fault (``action=raise``).

    Deliberately *not* a :class:`~repro.errors.ReproError`: the runner
    must treat it like any other unexpected worker death (retry with
    backoff), not like a recorded per-cell analysis outcome.
    """


@dataclass
class FaultClause:
    """One parsed clause of a fault spec."""

    site: str
    match: str = "*"
    count: int = 1  # armed matching invocations; -1 = unlimited
    prob: float = 1.0
    seed: int = 0
    delay: float = 3600.0  # worker-hang sleep seconds
    #: worker-crash: 'raise' | 'exit'; parent-signal: 'term' | 'kill'
    action: str = "raise"


def parse_spec(spec: str) -> List[FaultClause]:
    """Parse a ``REPRO_FAULTS`` string into clauses (raises on nonsense)."""
    clauses: List[FaultClause] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        site = parts[0].strip()
        if site not in SITES:
            raise ReproError(
                f"unknown fault site {site!r} (known: {', '.join(SITES)})"
            )
        kwargs: dict = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ReproError(
                    f"malformed fault option {part!r} in {chunk!r} (expected key=value)"
                )
            key, value = (s.strip() for s in part.split("=", 1))
            if key == "match":
                kwargs["match"] = value
            elif key == "count":
                kwargs["count"] = int(value)
            elif key == "prob":
                kwargs["prob"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "delay":
                kwargs["delay"] = float(value)
            elif key == "action":
                if value not in ("raise", "exit", "term", "kill"):
                    raise ReproError(
                        f"unknown crash action {value!r} (raise|exit|term|kill)"
                    )
                kwargs["action"] = value
            else:
                raise ReproError(f"unknown fault option {key!r} in {chunk!r}")
        clauses.append(FaultClause(site=site, **kwargs))
    if not clauses:
        raise ReproError("empty fault spec")
    return clauses


def _u01(seed: int, clause_index: int, invocation: int) -> float:
    """Deterministic uniform in [0, 1) — SHA-256, no RNG state."""
    digest = hashlib.sha256(f"{seed}/{clause_index}/{invocation}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultPlan:
    """A set of clauses plus per-clause invocation counters.

    Counters are in-memory by default; with ``state_dir`` they are
    token files claimed with ``O_CREAT | O_EXCL``, which makes firing
    counts exact across forked pool workers and replaced pools.
    """

    def __init__(self, clauses: List[FaultClause], state_dir: Optional[str] = None):
        self.clauses = list(clauses)
        self.state_dir = str(state_dir) if state_dir else None
        self._counters = [0] * len(self.clauses)
        if self.state_dir:
            os.makedirs(self.state_dir, exist_ok=True)

    @classmethod
    def parse(cls, spec: str, state_dir: Optional[str] = None) -> "FaultPlan":
        return cls(parse_spec(spec), state_dir=state_dir)

    def targets(self, site: str, key: str) -> bool:
        """Does any clause (armed or spent) target this site + key?"""
        return any(
            c.site == site and fnmatch.fnmatchcase(key, c.match) for c in self.clauses
        )

    def _next_invocation(self, idx: int, clause: FaultClause) -> int:
        if self.state_dir is None:
            n = self._counters[idx]
            self._counters[idx] = n + 1
            return n
        # cross-process: claim the lowest unclaimed token for this clause;
        # start from the local cursor so repeated firings stay O(1)
        n = self._counters[idx]
        while True:
            if clause.count >= 0 and n >= clause.count:
                return n  # clause is spent: no need to claim anything
            token = os.path.join(self.state_dir, f"clause{idx}.{n}.tok")
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                self._counters[idx] = n + 1
                return n
            except FileExistsError:
                n += 1

    def fire(self, site: str, key: str = "") -> Optional[FaultClause]:
        """First armed clause that fires for this invocation, else None."""
        for idx, clause in enumerate(self.clauses):
            if clause.site != site or not fnmatch.fnmatchcase(key, clause.match):
                continue
            n = self._next_invocation(idx, clause)
            if clause.count >= 0 and n >= clause.count:
                continue
            if clause.prob < 1.0 and _u01(clause.seed, idx, n) >= clause.prob:
                continue
            return clause
        return None


# ---------------------------------------------------------------------------
# Activation
# ---------------------------------------------------------------------------

_INSTALLED: Optional[FaultPlan] = None
_ENV_PLAN: Optional[FaultPlan] = None
_ENV_SPEC_SEEN: Optional[str] = None
_ENV_STATE_SEEN: Optional[str] = None


def install(plan: FaultPlan) -> None:
    """Activate a plan programmatically (overrides the environment)."""
    global _INSTALLED
    _INSTALLED = plan


def uninstall() -> None:
    """Deactivate injection and drop any cached env-derived plan."""
    global _INSTALLED, _ENV_PLAN, _ENV_SPEC_SEEN, _ENV_STATE_SEEN
    _INSTALLED = None
    _ENV_PLAN = None
    _ENV_SPEC_SEEN = None
    _ENV_STATE_SEEN = None


def active_plan() -> Optional[FaultPlan]:
    """The active plan, if any (installed first, else from the env)."""
    if _INSTALLED is not None:
        return _INSTALLED
    spec = os.environ.get(ENV_SPEC) or ""
    state = os.environ.get(ENV_STATE) or None
    global _ENV_PLAN, _ENV_SPEC_SEEN, _ENV_STATE_SEEN
    if spec != _ENV_SPEC_SEEN or state != _ENV_STATE_SEEN:
        _ENV_SPEC_SEEN = spec
        _ENV_STATE_SEEN = state
        _ENV_PLAN = FaultPlan.parse(spec, state_dir=state) if spec else None
    return _ENV_PLAN


# ---------------------------------------------------------------------------
# Injection hooks
# ---------------------------------------------------------------------------


def fault_point(site: str, key: str = "") -> bool:
    """Evaluate one injection point.

    Side-effectful sites act here (crash raises / exits, hang sleeps);
    for caller-handled sites (``lp-fail``, ``cache-torn``) the return
    value tells the caller to misbehave.  Returns False when inactive.
    """
    plan = active_plan()
    if plan is None:
        return False
    clause = plan.fire(site, key)
    if clause is None:
        return False
    # record before acting: os.write is unbuffered, so the event survives
    # even the action=exit hard kill
    telemetry.counter("faultinject.fired", 1, site=site, key=key)
    if site == WORKER_CRASH:
        if clause.action == "exit":
            os._exit(13)
        raise InjectedFault(f"injected worker crash at {key!r}")
    if site == WORKER_HANG:
        time.sleep(clause.delay)
        return True
    if site == PARENT_SIGNAL:
        signum = signal.SIGKILL if clause.action == "kill" else signal.SIGTERM
        os.kill(os.getpid(), signum)
        return True
    return True


def site_clauses(site: str) -> List[dict]:
    """The active plan's clauses for ``site``, as JSON-safe dicts."""
    plan = active_plan()
    if plan is None:
        return []
    return [asdict(c) for c in plan.clauses if c.site == site]


def wrap_logdensity(fn: Callable, key: str = "") -> Callable:
    """Wrap a log-density-and-gradient callable with NaN injection.

    Returns ``fn`` unchanged unless an active clause targets
    ``nan-logdensity`` for this key, so the sampler hot loop pays zero
    overhead in normal operation.
    """
    plan = active_plan()
    if plan is None or not plan.targets(NAN_LOGDENSITY, key):
        return fn

    def wrapped(x):
        if plan.fire(NAN_LOGDENSITY, key) is not None:
            telemetry.counter("faultinject.fired", 1, site=NAN_LOGDENSITY, key=key)
            arr = np.asarray(x, dtype=float)
            return float("nan"), np.full_like(arr, float("nan"))
        return fn(x)

    return wrapped
