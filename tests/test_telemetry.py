"""Tests for repro.telemetry: spans, sinks, exporters, and the no-op path.

The contract under test is the observability tentpole's core guarantee:
tracing only ever *observes*.  Results and rng streams must be identical
with telemetry off and on, the disabled path must not allocate span
objects, and the per-process JSONL sink must survive hard worker kills
so cross-process merges still see every completed event.
"""

import json
import os

import numpy as np
import pytest

from repro import faultinject, telemetry
from repro.config import AnalysisConfig
from repro.evalharness import EvalRunner, expand_grid, run_benchmark, timing_markdown
from repro.evalharness.runner import max_rss_kb
from repro.inference.serialize import result_to_json
from repro.stats.hmc import HMCConfig
from repro.stats.polytope import Polytope
from repro.stats.reflective_hmc import reflective_hmc_chains
from repro.suite import get_benchmark
from repro.telemetry import NULL_SPAN
from repro.telemetry.chrome import load_events, trace_files, write_chrome_trace
from repro.telemetry.console import Console
from repro.telemetry.summary import summarize_events, summarize_trace_dir

CONFIG = AnalysisConfig(num_posterior_samples=4, seed=0)


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    """No trace state leaks into (or out of) any test."""
    monkeypatch.delenv(telemetry.ENV_TRACE, raising=False)
    telemetry.disable()
    faultinject.uninstall()
    yield
    telemetry.disable()
    faultinject.uninstall()


class TestSpans:
    def test_nesting_parent_links_and_ordering(self, tmp_path):
        telemetry.enable(tmp_path)
        with telemetry.span("runner.task", task="T") as root:
            with telemetry.span("lp.solve", variables=3) as inner:
                inner.set(iterations=7)
        telemetry.disable()
        events = load_events(tmp_path)
        spans = {e["name"]: e for e in events if e["ev"] == "span"}
        assert set(spans) == {"runner.task", "lp.solve"}
        assert spans["lp.solve"]["parent"] == spans["runner.task"]["id"]
        assert spans["runner.task"]["parent"] is None
        assert spans["lp.solve"]["stage"] == "lp"
        assert spans["lp.solve"]["args"] == {"variables": 3, "iterations": 7}
        # children close before parents, and the parent's duration covers them
        assert spans["runner.task"]["dur"] >= spans["lp.solve"]["dur"]
        # events are sorted by start timestamp after the merge
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)

    def test_exception_is_recorded_and_propagated(self, tmp_path):
        telemetry.enable(tmp_path)
        with pytest.raises(ValueError):
            with telemetry.span("aara.build"):
                raise ValueError("boom")
        telemetry.disable()
        (event,) = load_events(tmp_path)
        assert event["args"]["error"] == "ValueError"

    def test_explicit_stage_overrides_name_prefix(self, tmp_path):
        telemetry.enable(tmp_path)
        with telemetry.span("runner.task", stage="task"):
            pass
        telemetry.disable()
        (event,) = load_events(tmp_path)
        assert event["stage"] == "task"

    def test_counters_and_gauges(self, tmp_path):
        telemetry.enable(tmp_path)
        telemetry.counter("lp.solves", 2, context="x")
        telemetry.gauge("sampler.accept_rate", 0.91)
        telemetry.disable()
        by_name = {e["name"]: e for e in load_events(tmp_path)}
        assert by_name["lp.solves"]["ev"] == "counter"
        assert by_name["lp.solves"]["value"] == 2.0
        assert by_name["sampler.accept_rate"]["ev"] == "gauge"
        assert by_name["sampler.accept_rate"]["value"] == pytest.approx(0.91)

    def test_stage_accumulator_partitions_root_duration(self, tmp_path):
        telemetry.enable(tmp_path)
        acc = telemetry.stage_totals()
        with acc:
            with telemetry.span("runner.task", stage="task"):
                with telemetry.span("lp.solve"):
                    pass
        telemetry.disable()
        root = next(e for e in load_events(tmp_path) if e["name"] == "runner.task")
        assert set(acc.totals) == {"task", "lp"}
        assert sum(acc.totals.values()) == pytest.approx(root["dur"], rel=0.05, abs=1e-4)


class TestDisabledFastPath:
    def test_span_returns_shared_singleton(self):
        assert telemetry.span("a.b", x=1) is NULL_SPAN
        assert telemetry.span("c.d") is telemetry.span("e.f")
        with telemetry.span("a.b") as sp:
            sp.set(y=2)  # no-op, no state

    def test_no_events_and_no_accumulator(self, tmp_path):
        assert telemetry.stage_totals() is None
        telemetry.counter("x", 1)
        telemetry.gauge("y", 2.0)
        assert trace_files(tmp_path) == []
        assert not telemetry.enabled()

    def test_enable_without_dir_times_but_does_not_write(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        telemetry.enable(None)
        with telemetry.span("lp.solve"):
            telemetry.counter("lp.solves", 1)
        assert telemetry.trace_path() is None
        assert trace_files(tmp_path) == []

    def test_ensure_from_env(self, tmp_path, monkeypatch):
        assert telemetry.ensure_from_env() is False
        monkeypatch.setenv(telemetry.ENV_TRACE, str(tmp_path))
        assert telemetry.ensure_from_env() is True
        with telemetry.span("lp.solve"):
            pass
        assert len(load_events(tmp_path)) == 1


class TestExporters:
    def _record(self, tmp_path):
        telemetry.enable(tmp_path)
        with telemetry.span("runner.task", stage="task", task="Round/data-driven/opt"):
            with telemetry.span("lp.solve", variables=5):
                pass
            telemetry.counter("lp.solves", 1)
        telemetry.disable()

    def test_chrome_trace_schema(self, tmp_path):
        self._record(tmp_path)
        n = write_chrome_trace(tmp_path)
        doc = json.loads((tmp_path / "trace.json").read_text())
        events = doc["traceEvents"]
        assert n == len(events) >= 3  # 2 spans + counter + process metadata
        for event in events:
            assert {"ph", "pid", "tid", "name"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0 and "ts" in event
            if event["ph"] == "C":
                assert isinstance(event["args"], dict)
        assert any(e["ph"] == "M" for e in events)

    def test_summary_totals_match_wall_clock(self, tmp_path):
        self._record(tmp_path)
        summary = summarize_trace_dir(tmp_path)
        cell = summary.cells["Round/data-driven/opt"]
        assert cell.wall_seconds > 0
        assert sum(cell.stages.values()) == pytest.approx(
            cell.wall_seconds, rel=0.1, abs=1e-4
        )
        assert summary.counters["lp.solves"] == 1.0

    def test_summary_skips_torn_lines(self, tmp_path):
        self._record(tmp_path)
        victim = trace_files(tmp_path)[0]
        with open(victim, "a") as handle:
            handle.write('{"ev": "span", "name": "torn...')  # SIGKILL mid-write
        events = load_events(tmp_path)
        assert all(e["name"] != "torn" for e in events)
        summarize_events(events)  # parses without raising


class TestCrossProcess:
    def test_pool_trace_survives_worker_kill(self, tmp_path, monkeypatch):
        """A hard worker death (os._exit) must leave mergeable traces that
        still contain the faultinject.fired counter from the dead worker."""
        trace_dir = tmp_path / "trace"
        monkeypatch.setenv(telemetry.ENV_TRACE, str(trace_dir))
        monkeypatch.setenv(
            faultinject.ENV_SPEC,
            "worker-crash:match=Round/data-driven/opt:count=1:action=exit",
        )
        monkeypatch.setenv(faultinject.ENV_STATE, str(tmp_path / "state"))
        tasks = expand_grid([get_benchmark("Round")], CONFIG, seed=0, methods=("opt",))
        with EvalRunner(jobs=2, max_retries=2, backoff_seconds=0.05) as runner:
            report = runner.run_tasks(tasks)
        assert all(o["ok"] for o in report.outcomes)
        events = load_events(trace_dir)
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2  # parent + at least one worker wrote a file
        fired = [e for e in events if e["ev"] == "counter" and e["name"] == "faultinject.fired"]
        assert fired and fired[0]["args"]["site"] == "worker-crash"
        # the successful retry recorded full task spans with stage data
        roots = [e for e in events if e["ev"] == "span" and e["name"] == "runner.task"]
        assert {r["args"]["task"] for r in roots} >= {t.task_id for t in tasks}
        victim = report.outcome_by_id()["Round/data-driven/opt"]
        assert victim["metrics"]["attempts"] >= 2
        assert len({e["stage"] for e in events if e["ev"] == "span"}) >= 4

    def test_metrics_json_aggregates_stages(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_TRACE, str(tmp_path / "trace"))
        tasks = expand_grid([get_benchmark("Round")], CONFIG, seed=0, methods=("opt",))
        with EvalRunner() as runner:
            report = runner.run_tasks(tasks)
        metrics = report.metrics_json()
        assert metrics["version"] == 2
        assert metrics["summary"]["stage_wall_seconds"]
        for entry in metrics["tasks"]:
            assert len(entry["stages"]) >= 4, entry["task"]
            total = sum(entry["stages"].values())
            assert total == pytest.approx(entry["wall_seconds"], rel=0.1, abs=0.05)
        text = timing_markdown(metrics)
        assert text.startswith("## Timing")
        assert "Round/data-driven/opt" in text

    def test_timing_markdown_empty_without_stage_data(self):
        assert timing_markdown(None) == ""
        assert timing_markdown({"tasks": [], "summary": {}}) == ""


class TestGoldenStability:
    def test_traced_results_identical_to_untraced(self, tmp_path):
        """Telemetry only observes: posteriors and rng streams must be
        byte-identical with tracing off and on (all three methods)."""
        methods = ("opt", "bayeswc", "bayespc")
        spec = get_benchmark("Round")
        plain = run_benchmark(spec, CONFIG, seed=0, methods=methods, jobs=1)
        telemetry.enable(tmp_path)
        traced = run_benchmark(spec, CONFIG, seed=0, methods=methods, jobs=1)
        telemetry.disable()
        assert set(plain.results) == set(traced.results)
        for key in plain.results:
            a = result_to_json(plain.results[key])
            b = result_to_json(traced.results[key])
            a.pop("runtime_seconds")
            b.pop("runtime_seconds")
            assert a == b, key
        assert load_events(tmp_path)  # tracing actually recorded something


class TestFacialLPAttribution:
    def test_hybrid_bayespc_books_facial_lps_under_lp(self, tmp_path, monkeypatch):
        """The polytope module's facial-reduction and warm-start LPs run
        inside posterior spans but are LP work: each is an ``lp.facial``
        span (stage ``lp``) with an ``lp.facial_solves`` count."""
        trace_dir = tmp_path / "trace"
        monkeypatch.setenv(telemetry.ENV_TRACE, str(trace_dir))
        tasks = [
            task
            for task in expand_grid([get_benchmark("Concat")], CONFIG, seed=0, methods=("bayespc",))
            if task.task_id == "Concat/hybrid/bayespc"
        ]
        with EvalRunner() as runner:
            report = runner.run_tasks(tasks)
        assert [o["ok"] for o in report.outcomes] == [True]
        events = load_events(trace_dir)
        facial = [e for e in events if e["ev"] == "span" and e["name"] == "lp.facial"]
        assert facial and {e["stage"] for e in facial} == {"lp"}
        assert {"sum_slack", "min_slack", "low_norm"} <= {e["args"]["kind"] for e in facial}
        summary = summarize_events(events)
        assert summary.counters["lp.facial_solves"] == len(facial)
        # leaf spans: their whole duration is LP self time in the cell
        facial_s = sum(e["dur"] for e in facial)
        lp_spans = [e for e in events if e["ev"] == "span" and e["stage"] == "lp"]
        assert len(lp_spans) > len(facial)  # the AARA solves are there too
        assert summary.cells["Concat/hybrid/bayespc"].stages["lp"] >= facial_s


class TestSamplerCounters:
    def test_reflective_chains_report_leapfrog_steps(self, tmp_path):
        telemetry.enable(tmp_path)
        box = Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4), ["x", "y"])
        result = reflective_hmc_chains(
            lambda x: (-0.5 * float(x @ x), -x),
            box,
            [np.full(2, 0.1), np.full(2, -0.2)],
            HMCConfig(n_samples=10, n_warmup=10, n_leapfrog=4),
            np.random.default_rng(0),
        )
        telemetry.disable()
        counters = {
            e["name"]: e["value"]
            for e in load_events(tmp_path)
            if e["ev"] == "counter" and e["args"].get("sampler") == "reflective"
        }
        assert result.leapfrog_steps > 0
        assert counters["sampler.leapfrog_steps"] == result.leapfrog_steps
        assert counters["sampler.gradient_evals"] > 0


class TestSatellites:
    def test_max_rss_kb_platform_units(self):
        # Linux ru_maxrss is KiB; macOS reports bytes
        assert max_rss_kb(raw=2048, platform="linux") == 2048
        assert max_rss_kb(raw=2048 * 1024, platform="darwin") == 2048
        assert max_rss_kb() >= 0  # live value on whatever platform runs the tests

    def test_write_metrics_is_atomic(self, tmp_path):
        tasks = expand_grid([get_benchmark("Round")], CONFIG, seed=0, methods=("opt",))
        with EvalRunner() as runner:
            report = runner.run_tasks(tasks)
        out = tmp_path / "metrics.json"
        report.write_metrics(out)
        assert json.loads(out.read_text())["version"] == 2
        leftovers = [p for p in tmp_path.iterdir() if p.name != "metrics.json"]
        assert leftovers == []  # no temp files left behind


class TestConsole:
    def _lines(self, capsys):
        captured = capsys.readouterr()
        return captured.out.splitlines(), captured.err.splitlines()

    def test_default_levels(self, capsys):
        con = Console(verbosity=0, json_mode=False)
        con.result("table")
        con.info("status")
        con.debug("detail")
        con.warn("careful")
        con.error("broken")
        out, err = self._lines(capsys)
        assert out == ["table", "status"]  # debug hidden by default
        assert err == ["careful", "broken"]

    def test_quiet_hides_status_keeps_results(self, capsys):
        con = Console(verbosity=-1, json_mode=False)
        con.result("table")
        con.info("status")
        con.warn("careful")
        con.error("broken")
        out, err = self._lines(capsys)
        assert out == ["table"]
        assert err == ["broken"]

    def test_verbose_shows_debug(self, capsys):
        con = Console(verbosity=1, json_mode=False)
        con.debug("detail")
        out, _err = self._lines(capsys)
        assert out == ["detail"]

    def test_json_mode_emits_structured_lines(self, capsys):
        con = Console(verbosity=0, json_mode=True)
        con.info("collected", observations=60)
        out, _err = self._lines(capsys)
        payload = json.loads(out[0])
        assert payload == {"level": "info", "msg": "collected", "observations": 60}

    def test_json_mode_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "json")
        assert Console().json_mode is True
        monkeypatch.delenv("REPRO_LOG")
        assert Console().json_mode is False


class TestCLI:
    def _make_trace(self, tmp_path):
        telemetry.enable(tmp_path)
        with telemetry.span("runner.task", stage="task", task="Round/data-driven/opt"):
            with telemetry.span("lp.solve"):
                pass
        telemetry.disable()

    def test_trace_summary_command(self, tmp_path, capsys):
        from repro.cli import main

        self._make_trace(tmp_path)
        assert main(["trace", "summary", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "per-stage wall time" in out
        assert "Round/data-driven/opt" in out

    def test_trace_export_command(self, tmp_path, capsys):
        from repro.cli import main

        self._make_trace(tmp_path)
        out_file = tmp_path / "out.json"
        assert main(["trace", "export", str(tmp_path), "--out", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["traceEvents"]

    def test_trace_summary_empty_dir_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "summary", str(tmp_path)]) == 2
        assert "no trace files" in capsys.readouterr().err

    def test_quiet_flag_suppresses_status(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        program = tmp_path / "prog.ml"
        program.write_text(
            "let rec len xs = match xs with [] -> 0 | h :: t -> "
            "let _ = Raml.tick 1.0 in 1 + len t\n"
            "let len2 xs = Raml.stat (len xs)\n"
        )
        out_path = tmp_path / "data.json"
        argv = [
            "collect", str(program), "--entry", "len2",
            "--sizes", "2:8:2", "--out", str(out_path),
        ]
        assert main(argv) == 0
        assert "collected" in capsys.readouterr().out
        assert main(["-q"] + argv) == 0
        assert capsys.readouterr().out == ""
