"""Bound-inference daemon: serve AARA/Bayesian analysis over HTTP.

The batch harness (:mod:`repro.evalharness`) runs the paper's grid once
and exits; this package keeps the same pipeline resident behind an
asyncio HTTP/JSON API so many concurrent clients can request bounds:

* :mod:`repro.server.admission` — token-bucket rate limiting, a bounded
  priority queue with explicit load shedding, and the circuit breaker
  that drives the degradation ladder (BayesPC → BayesWC → conventional);
* :mod:`repro.server.model` — request validation, the request record
  state machine, and the mapping onto :class:`~repro.evalharness.runner.
  EvalTask` that makes served bounds byte-identical to the batch harness
  (and lets the daemon share its content-addressed result cache);
* :mod:`repro.server.work` — the worker-side entry point (crosses the
  process pool);
* :mod:`repro.server.core` — the sans-io daemon core tying admission,
  the supervised worker pool it shares with ``bench --jobs N``
  (:mod:`repro.evalharness.pool`: deadline watchdog, kill-and-replace,
  innocent-request resubmission, worker health pings), journal, cache,
  breaker and telemetry together;
* :mod:`repro.server.app` — the asyncio HTTP front end (``POST
  /analyze``, ``GET /status/<id>``, ``GET /healthz``) and graceful
  SIGTERM drain (exit 75, like ``bench``);
* :mod:`repro.server.loadgen` — an open-loop load generator that replays
  the benchmark suite as synthetic traffic and records latency
  percentiles + an error taxonomy to ``BENCH_server.json``.

Everything is stdlib + numpy/scipy, like the rest of the repo.
"""

from .admission import BoundedPriorityQueue, CircuitBreaker, TokenBucketTable
from .core import AdmissionError, ServerConfig, ServerCore
from .model import AnalyzeSpec, RequestRecord, TERMINAL_STATES

__all__ = [
    "AdmissionError",
    "AnalyzeSpec",
    "BoundedPriorityQueue",
    "CircuitBreaker",
    "RequestRecord",
    "ServerConfig",
    "ServerCore",
    "TERMINAL_STATES",
    "TokenBucketTable",
]
