"""Content-addressed result cache + retry policy of the eval runner."""

import dataclasses
import json

import pytest

from repro.config import AnalysisConfig
from repro.evalharness import EvalRunner, EvalTask, ResultCache, execute_task, expand_grid
from repro.suite import get_benchmark
from repro.suite.registry import _REGISTRY

CONFIG = AnalysisConfig(num_posterior_samples=4, seed=0)


def _tasks(name="Round", methods=("opt",), config=CONFIG):
    return expand_grid([get_benchmark(name)], config, seed=0, methods=methods)


def _analysis_task(name="Concat", method="opt", config=CONFIG) -> EvalTask:
    return EvalTask(
        kind="analysis",
        benchmark=name,
        root_seed=0,
        config=config,
        mode="data-driven",
        method=method,
    )


class _CountingTaskFn:
    """In-process stand-in for execute_task that counts invocations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, task):
        self.calls += 1
        return execute_task(task)


class TestCacheHitsAndMisses:
    def test_second_run_hits_cache_and_recomputes_nothing(self, tmp_path):
        counter = _CountingTaskFn()
        with EvalRunner(cache_dir=tmp_path, task_fn=counter) as runner:
            first = runner.run_tasks(_tasks())
            cold_calls = counter.calls
            assert cold_calls == len(first.outcomes) > 0
            assert all(not o["metrics"]["cache_hit"] for o in first.outcomes)

            second = runner.run_tasks(_tasks())
            assert counter.calls == cold_calls  # nothing recomputed
            assert all(o["metrics"]["cache_hit"] for o in second.outcomes)
            summary = second.metrics_json()["summary"]
            assert summary["cache_hits"] == len(second.outcomes)
            assert summary["retries"] == 0  # hits ran nothing: no retries
        # cached outcomes carry the same payload
        for a, b in zip(first.outcomes, second.outcomes):
            assert a["result"] == b["result"] and a["verdict"] == b["verdict"]

    def test_one_key_derivation_per_cached_cell(self, tmp_path, monkeypatch):
        """A miss derives its key once for the load, the ``cache_key``
        metric and the store; a hit derives it once for the load."""
        derived = []
        real_key = ResultCache.key

        def counting_key(self, task):
            derived.append(task.task_id)
            return real_key(self, task)

        monkeypatch.setattr(ResultCache, "key", counting_key)
        tasks = _tasks()
        with EvalRunner(cache_dir=tmp_path, task_fn=_CountingTaskFn()) as runner:
            cold = runner.run_tasks(tasks)
            assert all(o["ok"] and not o["metrics"]["cache_hit"] for o in cold.outcomes)
            assert sorted(derived) == sorted(task.task_id for task in tasks)
            for task, outcome in zip(tasks, cold.outcomes):
                assert outcome["metrics"]["cache_key"] == real_key(runner.cache, task)
            derived.clear()
            warm = runner.run_tasks(tasks)
            assert all(o["metrics"]["cache_hit"] for o in warm.outcomes)
            assert sorted(derived) == sorted(task.task_id for task in tasks)

    def test_miss_on_changed_program_source(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        task = _analysis_task()
        key_before = cache.key(task)
        spec = get_benchmark("Concat")
        edited = dataclasses.replace(
            spec, data_driven_source=spec.data_driven_source + "\n"
        )
        monkeypatch.setitem(_REGISTRY, "Concat", edited)
        assert cache.key(task) != key_before

    def test_miss_on_changed_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = cache.key(_analysis_task(config=CONFIG))
        b = cache.key(_analysis_task(config=CONFIG.with_(num_posterior_samples=5)))
        assert a != b

    def test_miss_on_changed_degree(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        task = _analysis_task()
        key_before = cache.key(task)
        spec = get_benchmark("Concat")
        monkeypatch.setitem(
            _REGISTRY, "Concat", dataclasses.replace(spec, degree=spec.degree + 1)
        )
        assert cache.key(task) != key_before

    def test_miss_on_changed_seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = _analysis_task()
        assert cache.key(task) != cache.key(dataclasses.replace(task, root_seed=1))

    def test_execution_knobs_do_not_change_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = cache.key(_analysis_task(config=CONFIG))
        b = cache.key(_analysis_task(config=CONFIG.with_(jobs=8, cache_dir="/x")))
        assert a == b


class TestCacheRobustness:
    def test_corrupted_entry_is_deleted_and_recomputed(self, tmp_path):
        counter = _CountingTaskFn()
        with EvalRunner(cache_dir=tmp_path, task_fn=counter) as runner:
            tasks = _tasks()
            runner.run_tasks(tasks)
            cold_calls = counter.calls

            cache = ResultCache(tmp_path)
            victim = cache.path(cache.key(tasks[0]))
            assert victim.exists()
            victim.write_text("{ not json !!!")

            report = runner.run_tasks(tasks)  # must not crash
            assert counter.calls == cold_calls + 1  # only the victim reran
            hits = [o["metrics"]["cache_hit"] for o in report.outcomes]
            assert hits.count(False) == 1
        # the repaired entry round-trips again
        assert json.loads(victim.read_text())["value"]["ok"]

    def test_truncated_json_entry_recovers(self, tmp_path):
        with EvalRunner(cache_dir=tmp_path) as runner:
            tasks = _tasks()
            runner.run_tasks(tasks)
            cache = ResultCache(tmp_path)
            victim = cache.path(cache.key(tasks[1]))
            victim.write_text(victim.read_text()[:20])
            report = runner.run_tasks(tasks)
            assert all(o["ok"] for o in report.outcomes)

    def test_corrupted_entry_is_quarantined_not_deleted(self, tmp_path):
        with EvalRunner(cache_dir=tmp_path) as runner:
            tasks = _tasks()
            runner.run_tasks(tasks)
        cache = ResultCache(tmp_path)
        victim = cache.path(cache.key(tasks[0]))
        victim.write_text("{ not json !!!")
        assert cache.load(tasks[0]) is None
        # the evidence survives for post-mortem instead of vanishing
        quarantined = list(cache.root.glob("*.json.quarantined"))
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == "{ not json !!!"

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        with EvalRunner(cache_dir=tmp_path) as runner:
            tasks = _tasks()
            runner.run_tasks(tasks)
        cache = ResultCache(tmp_path)
        victim = cache.path(cache.key(tasks[0]))
        entry = json.loads(victim.read_text())
        entry["value"]["result"] = {"tampered": True}  # checksum now stale
        victim.write_text(json.dumps(entry))
        assert cache.load(tasks[0]) is None
        assert len(list(cache.root.glob("*.json.quarantined"))) == 1

    def test_wipe(self, tmp_path):
        with EvalRunner(cache_dir=tmp_path) as runner:
            runner.run_tasks(_tasks())
        cache = ResultCache(tmp_path)
        (cache.root / "leftover.tmp").write_text("torn write debris")
        (cache.root / "old.json.quarantined").write_text("evidence")
        removed = cache.wipe()
        assert removed > 0
        assert not list(cache.root.glob("*.json"))
        assert not list(cache.root.glob("*.tmp"))
        assert not list(cache.root.glob("*.quarantined"))


class TestCacheGc:
    def _fill(self, tmp_path):
        with EvalRunner(cache_dir=tmp_path) as runner:
            tasks = _tasks()
            runner.run_tasks(tasks)
        return ResultCache(tmp_path), tasks

    def test_gc_removes_stale_tmp_files_only(self, tmp_path):
        cache, _ = self._fill(tmp_path)
        stale = cache.root / "dead.tmp"
        stale.write_text("x")
        import os as _os

        _os.utime(stale, (0, 0))
        fresh = cache.root / "live.tmp"
        fresh.write_text("y")  # an in-flight writer: must survive
        stats = cache.gc(tmp_age_seconds=60.0)
        assert stats["tmp_removed"] == 1
        assert not stale.exists() and fresh.exists()

    def test_gc_lru_evicts_oldest_first(self, tmp_path):
        import os as _os
        import time as _time

        cache, tasks = self._fill(tmp_path)
        entries = sorted(cache.root.glob("*.json"))
        assert len(entries) >= 2
        # make the first entry clearly least-recently-used
        _os.utime(entries[0], (_time.time() - 10_000,) * 2)
        keep_bytes = sum(p.stat().st_size for p in entries) - entries[0].stat().st_size
        stats = cache.gc(max_bytes=keep_bytes)
        assert stats["evicted"] == 1
        assert not entries[0].exists()
        assert all(p.exists() for p in entries[1:])

    def test_gc_drop_quarantined_is_opt_in(self, tmp_path):
        cache, _ = self._fill(tmp_path)
        evidence = cache.root / "bad.json.quarantined"
        evidence.write_text("{")
        assert cache.gc()["quarantined_removed"] == 0
        assert evidence.exists()
        assert cache.gc(drop_quarantined=True)["quarantined_removed"] == 1
        assert not evidence.exists()

    def test_cache_cli_gc_and_wipe(self, tmp_path, capsys):
        from repro.cli import main

        cache, _ = self._fill(tmp_path)
        (cache.root / "dead.tmp").write_text("x")
        import os as _os

        _os.utime(cache.root / "dead.tmp", (0, 0))
        assert main(["cache", "gc", str(tmp_path)]) == 0
        assert not (cache.root / "dead.tmp").exists()
        assert main(["cache", "wipe", str(tmp_path)]) == 0
        assert not list(cache.root.glob("*.json"))


class TestRetryPolicy:
    def test_transient_failures_are_retried_with_backoff(self):
        failures = {"left": 2}

        def flaky(task):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient worker failure")
            return execute_task(task)

        with EvalRunner(max_retries=2, backoff_seconds=0.0, task_fn=flaky) as runner:
            report = runner.run_tasks(_tasks(methods=("opt",))[:1])
        outcome = report.outcomes[0]
        assert outcome["ok"]
        assert outcome["metrics"]["attempts"] == 3
        assert report.metrics_json()["summary"]["retries"] == 2

    def test_exhausted_retries_become_error_outcome(self):
        def always_broken(task):
            raise OSError("worker keeps dying")

        with EvalRunner(max_retries=1, backoff_seconds=0.0, task_fn=always_broken) as runner:
            report = runner.run_tasks(_tasks(methods=("opt",))[:1])
        outcome = report.outcomes[0]
        assert not outcome["ok"]
        assert "failed after 2 attempt(s)" in outcome["error"]

    def test_deterministic_analysis_error_is_recorded_not_raised(self):
        # an unknown method raises ReproError inside the worker; the
        # runner records it as a per-cell error outcome
        task = _analysis_task(method="no-such-method")
        with EvalRunner() as runner:
            report = runner.run_tasks([task])
        outcome = report.outcomes[0]
        assert not outcome["ok"]
        assert "InferenceError" in outcome["error"]
        assert outcome["metrics"]["attempts"] == 1
