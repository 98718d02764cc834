"""Request model for the bound-inference daemon.

:class:`AnalyzeSpec` validates a ``POST /analyze`` body and maps it onto
the *same* :class:`~repro.evalharness.runner.EvalTask` the batch harness
would build for that cell.  That mapping is the server's correctness
anchor: the content-addressed cache key, the derived sampler seed, and
the worker-side execution path are all shared with ``bench``, so a bound
served for ``(benchmark, mode, method, samples, seed)`` is byte-identical
to the batch harness's result for the same cell — cache hit or not.

:class:`RequestRecord` is the per-request state machine::

    queued -> running -> done | error | timeout
    queued ----------------------------> cancelled   (shutdown drain)

Terminal states are never left; every transition appends a timestamped
event so ``GET /status/<id>`` can stream progress.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..config import AnalysisConfig, ExecutionBudget
from ..evalharness.adhoc import content_address, digest_name, registry_match
from ..evalharness.runner import EvalTask, METHODS, MODES

#: request states with no further transitions
TERMINAL_STATES = frozenset({"done", "error", "timeout", "cancelled"})

#: methods a request may ask for ("conventional" = static AARA only)
REQUEST_METHODS = tuple(METHODS) + ("conventional",)

_MAX_SAMPLES = 500
_MAX_PRIORITY = 9
_MAX_DEGREE = 4


class SpecError(ValueError):
    """A malformed /analyze body (rendered as HTTP 400)."""


class LintRejection(Exception):
    """Submitted source failed the admission lint gate (HTTP 422).

    Carries the full diagnostics document (the same JSON shape
    ``hybrid-aara lint --format json`` emits) so the response body tells
    the submitter exactly what to fix, caret positions included.
    """

    def __init__(self, message: str, diagnostics: List[Dict[str, Any]]):
        self.diagnostics = diagnostics
        super().__init__(message)


def _field(body: Dict[str, Any], key: str, kind, default):
    value = body.get(key, default)
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise SpecError(f"field {key!r} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class AnalyzeSpec:
    """A validated analysis request (immutable; crosses threads freely)."""

    benchmark: str
    method: str  # opt | bayeswc | bayespc | conventional
    mode: str  # data-driven | hybrid
    samples: int
    seed: int
    priority: int
    deadline_seconds: float
    client: str
    #: ad-hoc source submission (normalized); None on the benchmark path
    source: Optional[str] = None
    entry: Optional[str] = None
    degree: Optional[int] = None
    tenant: str = "public"
    budget: Optional[ExecutionBudget] = None

    @classmethod
    def from_json(
        cls,
        body: Dict[str, Any],
        client: str,
        default_deadline: float,
        lint: Callable[[str, Optional[str]], None],
        max_samples: int = _MAX_SAMPLES,
        tenant: str = "public",
        budget: Optional[ExecutionBudget] = None,
    ) -> "AnalyzeSpec":
        """Validate ``body``; ``lint(source, entry)`` is the admission lint
        gate for submitted source, raising :class:`LintRejection`."""
        if not isinstance(body, dict):
            raise SpecError("request body must be a JSON object")
        method = str(body.get("method", "bayespc")).lower()
        if method not in REQUEST_METHODS:
            raise SpecError(
                f"unknown method {method!r} (one of {', '.join(REQUEST_METHODS)})"
            )
        mode = str(body.get("mode", "data-driven")).lower()
        if mode not in MODES:
            raise SpecError(f"unknown mode {mode!r} (one of {', '.join(MODES)})")
        benchmark = body.get("benchmark")
        raw_source = body.get("source")
        source = entry = None
        degree = None
        if raw_source is not None:
            if benchmark:
                raise SpecError("provide 'benchmark' or 'source', not both")
            source, entry, degree, benchmark = cls._validate_source(
                raw_source, body, mode, lint
            )
        else:
            if not benchmark or not isinstance(benchmark, str):
                raise SpecError("field 'benchmark' (registry name) or 'source' is required")
            from ..suite import get_benchmark

            try:
                spec = get_benchmark(benchmark)
            except Exception:
                raise SpecError(f"unknown benchmark {benchmark!r}")
            if mode == "hybrid" and spec.hybrid_source is None:
                raise SpecError(f"benchmark {benchmark!r} has no hybrid variant")
        samples = _field(body, "samples", int, 25)
        if not 1 <= samples <= max_samples:
            raise SpecError(f"field 'samples' must be in [1, {max_samples}]")
        seed = _field(body, "seed", int, 0)
        priority = _field(body, "priority", int, 5)
        if not 0 <= priority <= _MAX_PRIORITY:
            raise SpecError(f"field 'priority' must be in [0, {_MAX_PRIORITY}]")
        deadline = _field(body, "deadline_seconds", float, default_deadline)
        if deadline <= 0:
            raise SpecError("field 'deadline_seconds' must be positive")
        client = str(body.get("client") or client or "anonymous")
        return cls(
            benchmark=benchmark,
            method=method,
            mode=mode,
            samples=samples,
            seed=seed,
            priority=priority,
            deadline_seconds=deadline,
            client=client,
            source=source,
            entry=entry,
            degree=degree,
            tenant=tenant,
            budget=budget,
        )

    @staticmethod
    def _validate_source(
        raw_source: Any,
        body: Dict[str, Any],
        mode: str,
        lint: Callable[[str, Optional[str]], None],
    ):
        """Admit ad-hoc source: lint gate, then registry re-routing.

        Returns ``(source, entry, degree, benchmark)``; ``source`` is
        ``None`` when the normalized submission is byte-identical to a
        registry benchmark's variant — the request is re-routed onto the
        benchmark-name path so it shares that cell's task id, cache
        entry, and byte-identical bounds.
        """
        if not isinstance(raw_source, str) or not raw_source.strip():
            raise SpecError("field 'source' must be a non-empty program string")
        entry = body.get("entry")
        if entry is not None and (not isinstance(entry, str) or not entry):
            raise SpecError("field 'entry' must be a function name")
        degree = _field(body, "degree", int, None)
        if degree is not None and not 1 <= degree <= _MAX_DEGREE:
            raise SpecError(f"field 'degree' must be in [1, {_MAX_DEGREE}]")
        lint(raw_source, entry)
        normalized, digest = content_address(raw_source)
        matched = registry_match(digest, mode)
        if matched is not None:
            benchmark, registry_entry = matched
            if entry is None or entry == registry_entry:
                return None, None, degree, benchmark
        if mode == "hybrid":
            raise SpecError(
                "mode 'hybrid' requires a registry benchmark "
                "(ad-hoc source is analyzed data-driven)"
            )
        return normalized, entry, degree, digest_name(digest)

    def config(self) -> AnalysisConfig:
        # the same base config `bench --samples N --seed S` builds, so the
        # cache key and derived seeds match the batch harness exactly.
        # Budgets apply only to ad-hoc source (registry programs are
        # trusted) and never enter the cache signature.
        return AnalysisConfig(
            num_posterior_samples=self.samples,
            seed=self.seed,
            budget=self.budget if self.source is not None else None,
        )

    def task(self, method: Optional[str] = None) -> EvalTask:
        """The batch-harness task for this request (``method`` overrides
        the requested one — the degradation ladder's hook)."""
        method = method or self.method
        if method == "conventional":
            return EvalTask(
                kind="conventional",
                benchmark=self.benchmark,
                root_seed=self.seed,
                config=self.config(),
                source=self.source,
                entry=self.entry,
            )
        return EvalTask(
            kind="analysis",
            benchmark=self.benchmark,
            root_seed=self.seed,
            config=self.config(),
            mode=self.mode,
            method=method,
            source=self.source,
            entry=self.entry,
            degree=self.degree,
        )

    def to_json(self) -> Dict[str, Any]:
        doc = {
            "benchmark": self.benchmark,
            "method": self.method,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "priority": self.priority,
            "deadline_seconds": self.deadline_seconds,
            "client": self.client,
            "tenant": self.tenant,
        }
        if self.source is not None:
            # the digest, not the source: journals stay compact and the
            # benchmark name (user:<sha12>) is already content-addressed
            doc["entry"] = self.entry
            doc["degree"] = self.degree
            doc["source_chars"] = len(self.source)
        return doc


@dataclass
class WorkItem:
    """What actually crosses into the supervisor (and the pool)."""

    request_id: str
    task: EvalTask
    deadline: float  # absolute monotonic deadline (admission time + budget)
    priority: int
    attempts: int = 0
    tenant: str = "public"
    budget_seconds: float = 0.0  # the deadline budget (billed on timeout)


class RequestRecord:
    """One request's observable state; thread-safe, asyncio-friendly.

    The daemon core (supervisor thread) mutates records; HTTP handlers
    (event loop) read them and wait on transitions.  Every mutation
    appends an event and wakes registered waiters via their own loop's
    ``call_soon_threadsafe``, so status streams see changes promptly
    without polling the record under a lock.
    """

    def __init__(self, request_id: str, spec: AnalyzeSpec):
        self.id = request_id
        self.spec = spec
        self.state = "queued"
        self.served_method = spec.method
        self.degraded: Optional[Dict[str, str]] = None
        self.cache_hit = False
        self.attempts = 0
        self.created_ts = time.time()
        self.finished_ts: Optional[float] = None
        self.outcome: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._waiters: List[Callable[[], None]] = []
        self.add_event("admitted", client=spec.client, method=spec.method)

    # -- mutation (supervisor/core side) ------------------------------------

    def add_event(self, kind: str, **detail: Any) -> None:
        with self._lock:
            self.events.append({"ev": kind, "ts": time.time(), **detail})
            waiters, self._waiters = self._waiters, []
        for wake in waiters:
            wake()

    def mark_degraded(self, served: str, reason: str) -> None:
        with self._lock:
            self.served_method = served
            self.degraded = {
                "requested": self.spec.method,
                "served": served,
                "reason": reason,
            }
        self.add_event("degraded", requested=self.spec.method, served=served, reason=reason)

    def start_attempt(self, attempt: int) -> None:
        with self._lock:
            self.state = "running"
            self.attempts = attempt
        self.add_event("started", attempt=attempt)

    def finish(
        self,
        state: str,
        outcome: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        **detail: Any,
    ) -> None:
        assert state in TERMINAL_STATES, state
        with self._lock:
            if self.state in TERMINAL_STATES:  # terminal states are sticky
                return
            self.state = state
            self.outcome = outcome
            self.error = error
            self.finished_ts = time.time()
        self.add_event("finished", state=state, **detail)

    # -- observation (HTTP side) --------------------------------------------

    def terminal(self) -> bool:
        with self._lock:
            return self.state in TERMINAL_STATES

    def add_waiter(self, wake: Callable[[], None]) -> None:
        """Register a one-shot wakeup for the next event; fires immediately
        if the record is already terminal (no missed-update race)."""
        with self._lock:
            if self.state not in TERMINAL_STATES:
                self._waiters.append(wake)
                return
        wake()

    def latency_seconds(self) -> Optional[float]:
        with self._lock:
            if self.finished_ts is None:
                return None
            return self.finished_ts - self.created_ts

    def to_json(self, include_result: bool = True, since_event: int = 0) -> Dict[str, Any]:
        with self._lock:
            doc: Dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "request": self.spec.to_json(),
                "served_method": self.served_method,
                "degraded": self.degraded,
                "cache_hit": self.cache_hit,
                "attempts": self.attempts,
                "created_ts": self.created_ts,
                "finished_ts": self.finished_ts,
                "events": list(self.events[since_event:]),
            }
            if self.finished_ts is not None:
                doc["latency_seconds"] = round(self.finished_ts - self.created_ts, 6)
            if self.error is not None:
                doc["error"] = self.error
            if include_result and self.outcome is not None:
                doc["result"] = {
                    key: self.outcome.get(key)
                    for key in ("task", "kind", "ok", "outcome", "result", "verdict", "failure")
                }
            return doc
