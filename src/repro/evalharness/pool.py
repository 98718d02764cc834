"""The supervised worker pool shared by ``bench --jobs N`` and the daemon.

A single supervisor thread owns a ``ProcessPoolExecutor`` and is the
only thing that touches it.  It pulls items off its owner's queue only
when a worker slot is free, enforces each item's deadline, and keeps
the pool healthy:

* a worker that **crashes** breaks the pool — the supervisor replaces
  it, charges the crashed item one attempt (retried with the shared
  deterministic backoff from :mod:`repro.backoff`), and resubmits every
  *innocent* in-flight item without burning one of its attempts;
* a worker that **hangs** past an item's deadline cannot be cancelled
  individually, so the whole pool is killed and replaced; the overdue
  item goes to the owner's ``on_fail`` and the innocents are resubmitted
  for free;
* after an idle stretch the supervisor sends a **health probe**
  (:func:`health_probe`) through the pool; a probe that fails or stalls
  means the pool is wedged, and it is replaced before real work is
  routed into it.

The supervisor never sleeps on a retry: backoff delays are tracked as
eligibility timestamps so one crashing item cannot stall the rest of
the pool.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import backoff, telemetry
from ..errors import TaskTimeoutError
from .runner import execute_task


def worker_init() -> None:
    """Reset the signal state a forked worker inherits; exit with the parent.

    Inherited owner handlers (the runner's graceful shutdown, the daemon's
    ``set_wakeup_fd`` self-pipe) would run the owner's shutdown once per
    worker on a terminal Ctrl-C, or relay a SIGTERM meant for a worker
    (broken-pool cleanup terminates survivors) into the owner's loop.  A
    SIGKILLed owner cannot shut its pool down, so a watcher thread ends
    the orphaned worker.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread / closed fd: nothing to detach
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), name="parent-watch", daemon=True
    ).start()


def _exit_with_parent(parent: int) -> None:
    # polling getppid works on every POSIX platform, unlike PR_SET_PDEATHSIG
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def health_probe(token: int) -> Dict[str, Any]:
    """A trivial round-trip proving the pool can still schedule work.

    The supervisor submits one of these after an idle period; a probe
    that fails or hangs means the pool is wedged (e.g. every worker
    inherited a corrupted state or died behind our back) and triggers a
    kill-and-replace before real work is routed into it.
    """
    return {"ok": True, "token": token, "pid": os.getpid(), "ts": time.time()}


class PoolSupervisor:
    """Owns the process pool; runs in its own thread.

    Items carry a ``task``, an ``attempts`` count and a monotonic
    ``deadline`` enforced while they run.  Callbacks (all invoked from the
    supervisor thread), which also hold each owner's timeout policy:

    * ``on_start(item)`` — an attempt (not yet in ``item.attempts``) is
      about to run; returning False declines it and hands the item back;
    * ``on_done(item, outcome)`` — the worker returned an outcome dict
      (which may itself record an analysis error — that is a *result*,
      not a supervisor failure);
    * ``on_fail(item, exc)`` — a ``TaskTimeoutError`` for an item past
      its deadline in a worker (the owner may :meth:`schedule_retry` it),
      or the error of a crash that used up ``max_retries``.
    """

    def __init__(
        self,
        jobs: int,
        queue,
        on_start: Callable[[Any], bool],
        on_done: Callable[[Any, dict], None],
        on_fail: Callable[[Any, BaseException], None],
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        health_interval: float = 30.0,
        probe_timeout: float = 10.0,
        task_fn: Callable = execute_task,
    ):
        self.jobs = max(1, int(jobs))
        self.queue = queue
        self.on_start = on_start
        self.on_done = on_done
        self.on_fail = on_fail
        self.max_retries = max(0, int(max_retries))
        self.backoff_seconds = float(backoff_seconds)
        self.health_interval = float(health_interval)
        self.probe_timeout = float(probe_timeout)
        self.task_fn = task_fn
        self._lock = threading.Lock()
        self._inflight: Dict[Future, Any] = {}
        self._delayed: List[Tuple[float, Any]] = []
        self._executor: Optional[ProcessPoolExecutor] = None
        self._stop = threading.Event()  # stop pulling new work (drain)
        self._abandon = threading.Event()  # stop now, abandon in-flight
        self._thread: Optional[threading.Thread] = None
        self._last_probe = time.monotonic()
        self._probe_token = 0
        self.pool_replacements = 0
        self.probe_failures = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="pool-supervisor", daemon=True
        )
        self._thread.start()

    def busy(self) -> int:
        with self._lock:
            return len(self._inflight) + len(self._delayed)

    def drain(self, grace: float) -> List[Any]:
        """Stop pulling new work; give in-flight (and retrying) items
        ``grace`` seconds to resolve; abandon and return the rest."""
        self._stop.set()
        deadline = time.monotonic() + max(0.0, grace)
        while (
            time.monotonic() < deadline
            and self.busy()
            and not self._abandon.is_set()  # a second signal cuts the drain short
        ):
            time.sleep(0.05)
        return self.abandon()

    def interrupt(self) -> None:
        """Signal-safe immediate-stop request (second SIGTERM/SIGINT):
        makes an in-progress :meth:`drain` give up its grace window."""
        self._stop.set()
        self._abandon.set()

    def abandon(self) -> List[Any]:
        """Kill the pool immediately; returns the unresolved items."""
        self.interrupt()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        with self._lock:
            leftovers = list(self._inflight.values())
            leftovers.extend(item for _ts, item in self._delayed)
            self._inflight.clear()
            self._delayed.clear()
        self._kill_executor()
        return leftovers

    def schedule_retry(self, item: Any, charged: bool = True) -> None:
        """Queue ``item`` for re-execution after the shared deterministic
        backoff (charged retries) or immediately (innocent resubmits)."""
        delay = 0.0
        if charged:
            delay = backoff.backoff_delay(
                self.backoff_seconds, item.attempts, seed=item.task.seed
            )
        with self._lock:
            self._delayed.append((time.monotonic() + delay, item))

    # -- executor plumbing --------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=worker_init
            )
        return self._executor

    def _kill_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _replace_pool(self, reason: str) -> None:
        self._kill_executor()
        self.pool_replacements += 1
        telemetry.counter("pool.replaced", 1, reason=reason)

    # -- the supervisor loop ------------------------------------------------

    def _submit(self, item: Any) -> None:
        if not self.on_start(item):
            return
        try:
            future = self._ensure_executor().submit(self.task_fn, item.task)
        except Exception as exc:  # pool broken at submit time: replace, retry
            self._replace_pool("submit-failed")
            self.schedule_retry(item, charged=False)
            telemetry.counter("pool.submit_failures", 1, error=type(exc).__name__)
            return
        item.attempts += 1
        with self._lock:
            self._inflight[future] = item

    def _handle_failure(self, item: Any, exc: BaseException) -> None:
        if item.attempts > self.max_retries:
            self.on_fail(item, exc)
        else:
            telemetry.counter("pool.worker_retries", 1, task=item.task.task_id)
            self.schedule_retry(item, charged=True)

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        with self._lock:
            overdue = {
                future: item
                for future, item in self._inflight.items()
                if item.deadline <= now
            }
            if not overdue:
                return
            innocents = [
                item for future, item in self._inflight.items() if future not in overdue
            ]
            self._inflight.clear()
        # a hung worker can't be cancelled individually — replace the pool
        self._replace_pool("deadline")
        for item in overdue.values():
            telemetry.counter("pool.worker_timeouts", 1, task=item.task.task_id)
            self.on_fail(
                item, TaskTimeoutError("request exceeded its deadline in a worker")
            )
        for item in innocents:
            item.attempts = max(0, item.attempts - 1)  # not their fault
            self._submit(item)

    def _maybe_probe(self) -> None:
        """Health-check an idle pool; replace it if the probe stalls."""
        if self._executor is None:
            return
        now = time.monotonic()
        if now - self._last_probe < self.health_interval:
            return
        self._last_probe = now
        self._probe_token += 1
        try:
            future = self._executor.submit(health_probe, self._probe_token)
        except Exception:
            self.probe_failures += 1
            self._replace_pool("probe-submit-failed")
            return
        deadline = now + self.probe_timeout
        while time.monotonic() < deadline and not self._abandon.is_set():
            try:
                reply = future.result(timeout=0.1)
            except TimeoutError:
                continue
            except Exception:
                break
            if reply.get("token") == self._probe_token:
                telemetry.counter("pool.probes", 1, ok=True)
                return
            break
        self.probe_failures += 1
        telemetry.counter("pool.probes", 1, ok=False)
        self._replace_pool("probe-failed")

    def _loop(self) -> None:
        while not self._abandon.is_set():
            now = time.monotonic()
            with self._lock:
                ready = [item for ts, item in self._delayed if ts <= now]
                self._delayed = [(ts, item) for ts, item in self._delayed if ts > now]
            for item in ready:
                self._submit(item)
            while not self._stop.is_set() and len(self._inflight) < self.jobs:
                item = self.queue.pop(timeout=0)
                if item is None:
                    break
                self._submit(item)
            with self._lock:
                inflight = set(self._inflight)
                idle = not self._inflight and not self._delayed
            if not inflight:
                if self._stop.is_set():
                    if idle:
                        break
                    time.sleep(0.02)  # delayed retries pending
                    continue
                self._maybe_probe()
                item = self.queue.pop(timeout=0.1)
                if item is not None:
                    self._submit(item)
                continue
            timeout = 0.2
            with self._lock:
                nearest = min(
                    (item.deadline for item in self._inflight.values()), default=None
                )
            if nearest is not None:
                timeout = min(timeout, max(0.0, nearest - time.monotonic()))
            done, _not_done = wait(inflight, timeout=timeout, return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                with self._lock:
                    item = self._inflight.pop(future, None)
                if item is None:
                    continue
                try:
                    outcome = future.result()
                except Exception as exc:
                    # the task function records analysis errors *inside*
                    # the outcome; a raising future means the worker died
                    broken = True
                    self._handle_failure(item, exc)
                else:
                    self.on_done(item, outcome)
            if broken:
                # a dead worker poisons the whole executor: every other
                # in-flight future will fail with BrokenProcessPool through
                # no fault of its own — resubmit them without charging
                with self._lock:
                    innocents = list(self._inflight.values())
                    self._inflight.clear()
                self._replace_pool("worker-crash")
                for item in innocents:
                    item.attempts = max(0, item.attempts - 1)
                    self.schedule_retry(item, charged=False)
                continue
            self._enforce_deadlines()
