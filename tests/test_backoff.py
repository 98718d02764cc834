"""The shared deterministic backoff: one derivation, every call site.

Satellite of the daemon PR: the seed-derived retry jitter used to live
inside the eval runner; it is now :mod:`repro.backoff`, shared by the
runner's retry loop and the daemon pool supervisor's resubmission path.
These tests pin the schedule byte-for-byte across both call sites.
"""

import json

from repro import backoff
from repro.evalharness.runner import EvalRunner, EvalTask, derive_seed
from repro.server.model import WorkItem
from repro.evalharness.pool import PoolSupervisor


def test_derive_u63_stable_and_63_bit():
    a = backoff.derive_u63(7, "x", 3)
    b = backoff.derive_u63(7, "x", 3)
    assert a == b
    assert 0 <= a < 2**63
    assert backoff.derive_u63(7, "x", 4) != a
    assert backoff.derive_u63(8, "x", 3) != a


def test_runner_seed_derivation_delegates_to_backoff():
    # the runner's per-task seeds and the backoff jitter share one SHA-256
    # construction — a drift between them would silently change cache keys
    assert derive_seed(42, "MapAppend", "hybrid", "opt") == backoff.derive_u63(
        42, "MapAppend", "hybrid", "opt"
    )


def test_jitter_range():
    for attempt in range(1, 20):
        j = backoff.jitter(12345, attempt)
        assert 0.5 <= j < 1.5


def test_delay_grows_exponentially_modulo_jitter():
    base = 0.05
    for attempt in range(1, 6):
        delay = backoff.backoff_delay(base, attempt, seed=9)
        nominal = base * 2 ** (attempt - 1)
        assert 0.5 * nominal <= delay < 1.5 * nominal


def test_zero_base_disables_backoff():
    assert backoff.backoff_delay(0.0, 5, seed=1) == 0.0
    assert backoff.sleep_backoff(0.0, 5, seed=1) == 0.0


def test_schedule_byte_stable():
    # the schedule must serialize identically across repeated computation:
    # chaos tests rely on the same fault plan yielding the same sleeps
    one = json.dumps(backoff.backoff_schedule(0.05, 6, seed=321))
    two = json.dumps(backoff.backoff_schedule(0.05, 6, seed=321))
    assert one == two


def test_runner_and_pool_compute_identical_delays(monkeypatch):
    """The two production call sites produce the same schedule for the
    same (base, attempt, seed) — byte-stable across call sites."""
    base, seed = 0.05, derive_seed(0, "MapAppend", "data-driven", "opt")

    # call site 1: the eval runner's retry loop (sleeps the delay)
    slept = []
    monkeypatch.setattr(backoff.time, "sleep", lambda s: slept.append(s))
    runner = EvalRunner(jobs=1, backoff_seconds=base)
    for attempt in (1, 2, 3):
        runner._backoff(attempt, seed)

    # call site 2: the daemon pool supervisor's charged retry (schedules
    # an eligibility timestamp instead of sleeping)
    supervisor = PoolSupervisor(
        jobs=1, queue=None, on_start=None, on_done=None, on_fail=None,
        backoff_seconds=base,
    )
    task = EvalTask(kind="analysis", benchmark="MapAppend", root_seed=0,
                    mode="data-driven", method="opt")
    assert task.seed == seed
    scheduled = []
    for attempt in (1, 2, 3):
        item = WorkItem(request_id="r1", task=task, deadline=1e18, priority=5,
                        attempts=attempt)
        before = backoff.time.monotonic()
        supervisor.schedule_retry(item, charged=True)
        ts, _item = supervisor._delayed.pop()
        scheduled.append(ts - before)

    expected = backoff.backoff_schedule(base, 3, seed=seed)
    assert json.dumps(slept) == json.dumps(expected)
    for got, want in zip(scheduled, expected):
        # eligibility timestamps pass through monotonic(): equal modulo
        # the clock read between computing and storing
        assert abs(got - want) < 0.01
