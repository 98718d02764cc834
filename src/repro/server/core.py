"""The daemon core: admission → queue → supervised pool → terminal state.

Sans-io by design: :class:`ServerCore` knows nothing about HTTP.  The
asyncio front end (:mod:`repro.server.app`) calls :meth:`submit` /
:meth:`get` / :meth:`healthz` / :meth:`stop`; tests drive the core
directly without a socket in sight.

Admission order is deliberate::

    parse/validate (+ lint gate) → cache lookup → rate limit → degrade → bounded queue

The cache lookup comes *before* the rate limiter: a cache hit costs one
dict read and one journal append, so serving it never endangers the
daemon — "serve cache hits always" is the bottom rung of graceful
degradation, available even to clients that would otherwise be shed.
Because the daemon maps requests onto the exact
:class:`~repro.evalharness.runner.EvalTask` the batch harness builds,
those hits are byte-identical to ``bench`` results for the same cell.

Every admitted request is journalled (write-ahead, same
:class:`~repro.evalharness.journal.RunJournal` machinery as ``bench``):
``request-admitted`` before it can run, ``request-finish`` with the
terminal state, and ``request-cancelled`` with ``resumable: true`` for
anything a shutdown drain could not resolve — so no admitted request
can silently vanish, even across a daemon restart.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..config import ExecutionBudget
from ..errors import TaskTimeoutError
from ..evalharness.journal import RunJournal, new_run_id
from ..evalharness.pool import PoolSupervisor
from ..evalharness.runner import ResultCache, task_outcome
from . import work
from .admission import (
    BoundedPriorityQueue,
    CircuitBreaker,
    QueueFull,
    TenantQuotas,
    TokenBucketTable,
)
from .model import AnalyzeSpec, LintRejection, RequestRecord, SpecError, WorkItem


class _SourceGate:
    """The admission lint gate for one request's source.

    One read-only pass of the daemon's incremental engine: a budgeted
    parse, fingerprints, and the diagnostics from the stored lint buckets
    when all are present, else from the lint passes over that parse.  The
    pass writes nothing to the artifact store: rejected sources are not
    rate-limited.  It keeps the text it parsed and its fingerprints, so
    the fast path reads the entry's bound artifact without parsing again.
    """

    def __init__(self, core: "ServerCore") -> None:
        self.core = core
        self.source: Optional[str] = None
        self.fingerprints = None

    def __call__(self, source: str, entry: Optional[str]) -> None:
        from ..analysis.diagnostics import to_json as diagnostics_json
        from ..analysis.engine import fatal_errors

        front = self.core.engine.lint(source, path="<request>", entry=entry)
        errors = fatal_errors(front.diagnostics)
        if errors:
            raise LintRejection(
                f"source rejected by lint: {len(errors)} error(s), "
                f"first: [{errors[0].code}] {errors[0].message}",
                diagnostics=diagnostics_json(errors)["diagnostics"],
            )
        self.source, self.fingerprints = source, front.fingerprints

    def fingerprints_of(self, source: str):
        """The gate's fingerprints when it parsed exactly ``source``."""
        return self.fingerprints if source == self.source else None


class AdmissionError(Exception):
    """A request the daemon refuses (rendered as an HTTP error).

    ``code`` is the machine-readable refusal class carried in the JSON
    error body (``auth-failed``, ``rate-limited``, ``quota-exceeded``,
    ``queue-full``, ``draining``).
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        code: str = "admission",
    ):
        self.status = int(status)
        self.retry_after = retry_after
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class ServerConfig:
    """Daemon knobs; every one has a CLI flag in ``hybrid-aara serve``."""

    host: str = "127.0.0.1"
    port: int = 8787
    jobs: int = 2
    queue_capacity: int = 16
    rate: float = 20.0  # tokens/second per client (<= 0 disables)
    burst: float = 40.0
    default_deadline: float = 120.0
    max_samples: int = 500
    latency_budget: float = 10.0  # sampler-stage budget feeding the breaker
    breaker_window: int = 8
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    max_retries: int = 2
    backoff_seconds: float = 0.05
    shutdown_grace: float = 10.0
    health_interval: float = 30.0
    cache_dir: Optional[str] = None
    runs_dir: str = "runs"
    max_records: int = 4096
    #: (api-key, tenant) pairs; empty disables auth (everyone is "public")
    api_keys: tuple = ()
    quota_concurrency: int = 0  # per-tenant in-flight cap (<= 0 disables)
    quota_cpu_seconds: float = 0.0  # per-tenant cpu budget per window
    quota_window: float = 60.0
    #: execution budget applied to ad-hoc source submissions; None means
    #: the untrusted defaults (ExecutionBudget.untrusted())
    budget: Optional[ExecutionBudget] = None


class ServerCore:
    """Ties admission, the pool, the cache, the journal and telemetry
    together; one instance per daemon process."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.started_at = time.time()
        self.run_id = f"server-{new_run_id()}"
        self.cache = ResultCache(config.cache_dir) if config.cache_dir else None
        self.queue = BoundedPriorityQueue(config.queue_capacity)
        self.buckets = TokenBucketTable(config.rate, config.burst)
        self.breaker = CircuitBreaker(
            latency_budget=config.latency_budget,
            window=config.breaker_window,
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
        )
        self.quotas = TenantQuotas(
            max_concurrent=config.quota_concurrency,
            cpu_seconds=config.quota_cpu_seconds,
            window=config.quota_window,
        )
        self.api_keys: Dict[str, str] = dict(config.api_keys)
        self.budget = config.budget if config.budget is not None else ExecutionBudget.untrusted()
        self.supervisor = PoolSupervisor(
            jobs=config.jobs,
            queue=self.queue,
            on_start=self._on_start,
            on_done=self._on_done,
            on_fail=self._on_fail,
            max_retries=config.max_retries,
            backoff_seconds=config.backoff_seconds,
            health_interval=config.health_interval,
            task_fn=work.execute_request,
        )
        self.journal: Optional[RunJournal] = None
        self._records: "OrderedDict[str, RequestRecord]" = OrderedDict()
        self._lock = threading.Lock()
        self._seq = 0
        self._draining = False
        self.counters: Dict[str, int] = {
            "admitted": 0,
            "cache_hits": 0,
            "degraded": 0,
            "rate_limited": 0,
            "shed": 0,
            "done": 0,
            "error": 0,
            "timeout": 0,
            "cancelled": 0,
            "source_requests": 0,
            "incremental_hits": 0,
            "rejected_lint": 0,
            "quota_shed": 0,
            "auth_failed": 0,
            "budget_exceeded": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        run_dir = os.path.join(self.config.runs_dir, self.run_id)
        self.journal = RunJournal(run_dir, run_id=self.run_id)
        self.journal.record(
            {
                "ev": "server-start",
                "run_id": self.run_id,
                "ts": time.time(),
                "config": {
                    "jobs": self.config.jobs,
                    "queue_capacity": self.config.queue_capacity,
                    "rate": self.config.rate,
                    "latency_budget": self.config.latency_budget,
                },
            }
        )
        self.supervisor.start()

    def stop(self, grace: Optional[float] = None) -> Dict[str, int]:
        """Drain in-flight requests within the grace window, cancel the
        rest as resumable, close the journal.  Idempotent."""
        grace = self.config.shutdown_grace if grace is None else grace
        with self._lock:
            if self._draining:
                grace = 0.0
            self._draining = True
        for item in self.queue.drain():
            self._cancel(item, "shutdown before execution")
        leftovers = self.supervisor.drain(grace)
        for item in leftovers:
            self._cancel(item, "shutdown grace window expired")
        # anything raced into the queue after the first drain pass
        for item in self.queue.drain():
            self._cancel(item, "shutdown before execution")
        stats = {
            "cancelled": self.counters["cancelled"],
            "resolved": self.counters["done"]
            + self.counters["error"]
            + self.counters["timeout"],
        }
        if self.journal is not None:
            self.journal.record(
                {"ev": "server-stop", "ts": time.time(), "stats": stats}
            )
            self.journal.close()
            self.journal = None
        return stats

    def _cancel(self, item: WorkItem, reason: str) -> None:
        if self.journal is not None:
            self.journal.record(
                {
                    "ev": "request-cancelled",
                    "id": item.request_id,
                    "ts": time.time(),
                    "reason": reason,
                    "resumable": True,
                    "task": item.task.task_id,
                }
            )
        record = self.get(item.request_id)
        if record is not None:
            record.finish("cancelled", error=f"cancelled: {reason}", reason=reason)
        self.quotas.release(item.tenant)
        self.counters["cancelled"] += 1

    # -- admission ----------------------------------------------------------

    def _new_record(self, spec: AnalyzeSpec) -> RequestRecord:
        with self._lock:
            self._seq += 1
            request_id = f"r{self._seq:06d}-{os.urandom(3).hex()}"
            record = RequestRecord(request_id, spec)
            self._records[request_id] = record
            while len(self._records) > self.config.max_records:
                # evict the oldest *terminal* record; never a live one
                for key in list(self._records):
                    if self._records[key].terminal():
                        del self._records[key]
                        break
                else:
                    break
        return record

    def get(self, request_id: str) -> Optional[RequestRecord]:
        with self._lock:
            return self._records.get(request_id)

    def _tenant_of(self, api_key: Optional[str]) -> str:
        """Resolve the tenant; 401 when auth is on and the key is bad."""
        if not self.api_keys:
            return "public"
        if not api_key or api_key not in self.api_keys:
            self.counters["auth_failed"] += 1
            telemetry.counter("server.auth_failed", 1)
            raise AdmissionError(
                401,
                "missing or unknown API key (send X-Api-Key)",
                code="auth-failed",
            )
        return self.api_keys[api_key]

    def submit(
        self, body: Dict[str, Any], client: str, api_key: Optional[str] = None
    ) -> RequestRecord:
        """Admit one request; raises :class:`SpecError` (400),
        :class:`~repro.server.model.LintRejection` (422), or
        :class:`AdmissionError` (401/429/503)."""
        if self._draining:
            raise AdmissionError(503, "daemon is draining", retry_after=None, code="draining")
        tenant = self._tenant_of(api_key)
        gate = _SourceGate(self)
        try:
            spec = AnalyzeSpec.from_json(
                body,
                client=client,
                default_deadline=self.config.default_deadline,
                lint=gate,
                max_samples=self.config.max_samples,
                tenant=tenant,
                budget=self.budget,
            )
        except LintRejection:
            self.counters["rejected_lint"] += 1
            telemetry.counter("server.rejected_lint", 1)
            raise
        if spec.source is not None:
            self.counters["source_requests"] += 1
        record = self._new_record(spec)
        try:
            return self._admit(spec, record, gate)
        except BaseException:
            # a step that raised before the request was answered or queued
            # (cache load, fast-path peek, journal write-ahead, queue) must
            # not leave the record live in /healthz forever; a record that
            # was already answered or shed stays as it is
            record.finish(
                "error", error="internal error during admission", reason="internal-error"
            )
            raise

    def _admit(
        self, spec: AnalyzeSpec, record: RequestRecord, gate: _SourceGate
    ) -> RequestRecord:
        """Answer ``record`` from a store, shed it, or queue it."""
        # 1. cache: a hit is served unconditionally — no token, no queue
        #    slot, byte-identical to the batch harness's outcome
        if self.cache is not None:
            cached = self.cache.load(spec.task())
            if cached is not None:
                record.cache_hit = True
                self.counters["cache_hits"] += 1
                telemetry.counter("server.cache_hits", 1)
                self._journal_admit(record, cached=True)
                self._finish_from_outcome(record, cached, cache_hit=True)
                return record

        # 1b. incremental fast path: ad-hoc conventional requests consult
        #     the per-function artifact store (populated by `lint --watch`
        #     and `lsp` sessions sharing this cache directory) before
        #     paying for a token or a queue slot.  Lookup only — never an
        #     LP solve, and no second parse when the gate parsed this very
        #     text — and the synthesized outcome is NOT written back to
        #     the task cache, so the batch path stays canonical.
        if (
            self.cache is not None
            and spec.source is not None
            and spec.method == "conventional"
        ):
            verdict = self._peek_incremental(spec, gate.fingerprints_of(spec.source))
            if verdict is not None:
                outcome = task_outcome(
                    spec.task(),
                    ok=True,
                    verdict=verdict,
                    metrics={
                        "wall_seconds": 0.0,
                        "max_rss_kb": 0,
                        "pid": os.getpid(),
                        "incremental": True,
                    },
                )
                record.cache_hit = True
                self.counters["incremental_hits"] += 1
                telemetry.counter("server.incremental_hits", 1)
                self._journal_admit(record, cached=True)
                self._finish_from_outcome(record, outcome, cache_hit=True)
                return record

        # 2. per-client rate limit
        allowed, retry_after = self.buckets.acquire(spec.client)
        if not allowed:
            self.counters["rate_limited"] += 1
            telemetry.counter("server.rate_limited", 1, client=spec.client)
            record.finish("error", error="rate-limited", reason="rate-limited")
            raise AdmissionError(
                429, "rate limit exceeded", retry_after=retry_after, code="rate-limited"
            )

        # 3. per-tenant quotas (concurrency + cpu-second window); released
        #    at every terminal state, charged post-hoc in _on_done/_on_fail
        allowed, quota_reason, retry_after = self.quotas.acquire(spec.tenant)
        if not allowed:
            self.counters["quota_shed"] += 1
            telemetry.counter("server.quota_shed", 1, tenant=spec.tenant)
            record.finish("error", error=quota_reason, reason="quota-shed")
            raise AdmissionError(
                429, f"quota exceeded: {quota_reason}", retry_after=retry_after,
                code="quota-exceeded",
            )

        queued = False
        try:
            # 4. degradation ladder (breaker state at admission time)
            effective, reason = self.breaker.degrade(spec.method)
            if reason is not None:
                record.mark_degraded(effective, reason)
                self.counters["degraded"] += 1
                telemetry.counter("server.degraded", 1, level=self.breaker.level())
                if self.cache is not None:
                    # a hit for the *fallback* method still beats recomputing
                    cached = self.cache.load(spec.task(effective))
                    if cached is not None:
                        record.cache_hit = True
                        self.counters["cache_hits"] += 1
                        self._journal_admit(record, cached=True)
                        self._finish_from_outcome(record, cached, cache_hit=True)
                        return record

            # 5. bounded queue: full ⇒ shed with an honest Retry-After
            budget = min(spec.deadline_seconds, self.config.default_deadline * 10)
            item = WorkItem(
                request_id=record.id,
                task=spec.task(effective),
                deadline=time.monotonic() + budget,
                priority=spec.priority,
                tenant=spec.tenant,
                budget_seconds=budget,
            )
            # write-ahead: the admit record must be durable before the item
            # can possibly reach a worker — a crash after this line leaves
            # a journalled request, never an untracked one
            self._journal_admit(record, cached=False)
            try:
                depth = self.queue.put(item, priority=spec.priority)
            except QueueFull as exc:
                self.counters["shed"] += 1
                telemetry.counter("server.shed", 1)
                self._journal_finish(record.id, "shed", error="queue full")
                record.finish("error", error="queue full", reason="shed")
                raise AdmissionError(
                    429, "queue full", retry_after=exc.retry_after, code="queue-full"
                )
            queued = True
        finally:
            # a queued item's slot is released when it ends (_on_done,
            # _on_fail, _cancel); every other way out releases it here
            if not queued:
                self.quotas.release(spec.tenant)
        self.counters["admitted"] += 1
        telemetry.counter("server.admitted", 1)
        record.add_event("queued", depth=depth, served_method=effective)
        return record

    @functools.cached_property
    def artifacts(self):
        """The warm per-function artifacts of watch/LSP sessions sharing
        the cache directory; built on first use, so a daemon that is never
        sent source never loads the incremental engine."""
        from ..analysis.incremental import ArtifactStore

        return ArtifactStore(self.config.cache_dir)

    @functools.cached_property
    def engine(self):
        """The source gate's incremental engine: read-only, over the
        artifact store when there is a cache directory (lint passes every
        time otherwise); built on the first source request."""
        from ..analysis.incremental import IncrementalEngine

        store = self.artifacts if self.config.cache_dir else None
        return IncrementalEngine(store, budget=self.budget)

    def _peek_incremental(self, spec, fingerprints) -> Optional[Dict[str, Any]]:
        """A warm per-function verdict for this source, or ``None``.

        ``fingerprints`` are the source's from the lint gate's parse, or
        ``None`` to have the peek parse it.  Any failure (unparseable
        source, unsliceable program, artifact directory trouble) falls
        through to the normal queue path — the fast path may only ever
        make a request cheaper, never break it."""
        # imported per call, not at module level: the name is looked up
        # on the module each time, so a wrapper installed there is honoured
        from ..analysis.incremental import peek_conventional_verdict

        try:
            return peek_conventional_verdict(
                self.artifacts,
                spec.source,
                spec.entry,
                budget=self.budget,
                fingerprints=fingerprints,
            )
        except Exception:
            return None

    def _journal_admit(self, record: RequestRecord, cached: bool) -> None:
        if self.journal is None:
            return
        event = {
            "ev": "request-admitted",
            "id": record.id,
            "ts": time.time(),
            "request": record.spec.to_json(),
            "served_method": record.served_method,
            "cached": cached,
        }
        if record.spec.source is not None:
            # the budgets this request ran under are part of its record:
            # a replayed journal must know why a run was aborted
            event["budget"] = dataclasses.asdict(self.budget)
        self.journal.record(event)

    def _journal_finish(self, request_id: str, state: str, **detail: Any) -> None:
        if self.journal is None:
            return
        self.journal.record(
            {
                "ev": "request-finish",
                "id": request_id,
                "ts": time.time(),
                "state": state,
                **detail,
            }
        )

    # -- supervisor callbacks (pool thread) ---------------------------------

    def _on_start(self, item: WorkItem) -> bool:
        if time.monotonic() >= item.deadline:
            # the deadline is absolute: one that passed in the queue or in
            # a retry backoff is terminal, and never worth a worker
            self._on_fail(item, TaskTimeoutError("deadline expired before execution"))
            return False
        attempt = item.attempts + 1
        record = self.get(item.request_id)
        if record is not None:
            record.start_attempt(attempt)
        if self.journal is not None:
            self.journal.record(
                {
                    "ev": "request-start",
                    "id": item.request_id,
                    "ts": time.time(),
                    "attempt": attempt,
                    "task": item.task.task_id,
                }
            )
        return True

    def _sampler_latency(self, outcome: Dict[str, Any]) -> float:
        metrics = outcome.get("metrics") or {}
        stages = metrics.get("stages") or {}
        if "sampler" in stages:
            return float(stages["sampler"])
        return float(metrics.get("wall_seconds", 0.0))

    def _feed_breaker(self, item: WorkItem, outcome: Dict[str, Any]) -> None:
        if item.task.method not in ("bayeswc", "bayespc"):
            return
        failure = outcome.get("failure") or {}
        sampler_ok = outcome.get("ok", False) or failure.get("stage") != "sampler"
        self.breaker.record(self._sampler_latency(outcome), sampler_ok)

    def _finish_from_outcome(
        self, record: RequestRecord, outcome: Dict[str, Any], cache_hit: bool = False
    ) -> None:
        if outcome.get("ok"):
            record.finish("done", outcome=outcome, cache_hit=cache_hit)
            self.counters["done"] += 1
        else:
            record.finish(
                "error",
                outcome=outcome,
                error=outcome.get("error"),
                cache_hit=cache_hit,
            )
            self.counters["error"] += 1

    def _on_done(self, item: WorkItem, outcome: Dict[str, Any]) -> None:
        outcome.setdefault("metrics", {})["attempts"] = item.attempts
        # post-hoc quota accounting: bill the worker wall-clock actually
        # burned, then free the tenant's concurrency slot
        wall = float((outcome.get("metrics") or {}).get("wall_seconds") or 0.0)
        self.quotas.charge(item.tenant, wall)
        self.quotas.release(item.tenant)
        failure = outcome.get("failure") or {}
        if failure.get("stage") in ("eval-budget", "resource-limit"):
            self.counters["budget_exceeded"] += 1
            telemetry.counter("server.budget_exceeded", 1, stage=failure.get("stage"))
        self._feed_breaker(item, outcome)
        if self.cache is not None and outcome.get("ok"):
            # same store path (and fault-injection points) as the batch
            # harness; a torn/bitflipped entry quarantines on next load
            self.cache.store(item.task, outcome)
        # write-ahead: the terminal record is durable before the waiter
        # wakes, so a client that reads the journal right after its HTTP
        # response always finds the finish event
        self._journal_finish(
            item.request_id,
            "done" if outcome.get("ok") else "error",
            attempts=item.attempts,
            task=item.task.task_id,
        )
        record = self.get(item.request_id)
        if record is not None:
            self._finish_from_outcome(record, outcome)

    def _on_fail(self, item: WorkItem, exc: BaseException) -> None:
        # a timeout is terminal: the request's deadline is absolute
        kind = "timeout" if isinstance(exc, TaskTimeoutError) else "crash"
        message = str(exc) if kind == "timeout" else (
            f"worker died after {item.attempts} attempt(s): {type(exc).__name__}: {exc}"
        )
        # a timeout burned its whole deadline budget in a worker; bill it
        self.quotas.charge(
            item.tenant, item.budget_seconds if kind == "timeout" else 0.0
        )
        self.quotas.release(item.tenant)
        if kind == "timeout":
            # a hung sampler breaching its deadline is breaker evidence too
            if item.task.method in ("bayeswc", "bayespc"):
                self.breaker.record(self.config.latency_budget + 1.0, False)
            self.counters["timeout"] += 1
        else:
            self.counters["error"] += 1
        telemetry.counter("server.request_failures", 1, kind=kind)
        self._journal_finish(
            item.request_id,
            "timeout" if kind == "timeout" else "error",
            error=message,
            attempts=item.attempts,
            task=item.task.task_id,
        )
        record = self.get(item.request_id)
        if record is not None:
            record.finish(
                "timeout" if kind == "timeout" else "error",
                error=message,
                failure_kind=kind,
                attempts=item.attempts,
            )

    # -- observability ------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        with self._lock:
            live = sum(1 for r in self._records.values() if not r.terminal())
        return {
            "status": "draining" if self._draining else "ok",
            "run_id": self.run_id,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": self.config.jobs,
            "queue_depth": len(self.queue),
            "queue_capacity": self.config.queue_capacity,
            "in_flight": self.supervisor.busy(),
            "live_requests": live,
            "breaker": self.breaker.snapshot(),
            "quotas": self.quotas.snapshot(),
            "budget": dataclasses.asdict(self.budget),
            "auth": {"enabled": bool(self.api_keys), "tenants": sorted(set(self.api_keys.values()))},
            "pool": {
                "replacements": self.supervisor.pool_replacements,
                "probe_failures": self.supervisor.probe_failures,
            },
            "counters": dict(self.counters),
        }
