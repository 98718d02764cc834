"""Chaos suite: every injected fault must land in its fault-tolerance net.

Each test activates one fault site from :mod:`repro.faultinject` and
asserts the pipeline's corresponding recovery mechanism fires — the
runner's retry loop and watchdog, the sampler's self-healing restarts,
the LP fallback chain, and the cache's corrupt-entry recovery — while
non-faulted cells stay byte-identical.
"""

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro import faultinject
from repro.config import AnalysisConfig
from repro.errors import LPError, ReproError, SamplerDivergenceError
from repro.evalharness import EvalRunner, expand_grid
from repro.faultinject import ENV_SPEC, ENV_STATE, FaultPlan, parse_spec
from repro.lp import LPProblem, solve_lexicographic
from repro.stats import spawn_streams
from repro.stats.base import sample_with_healing
from repro.stats.hmc import HMCConfig, HMCResult, hmc_sample, hmc_sample_chains
from repro.stats.polytope import Polytope
from repro.stats.reflective_hmc import reflective_hmc_chains, reflective_hmc_sample
from repro.suite import get_benchmark

CONFIG = AnalysisConfig(num_posterior_samples=4, seed=0)


@pytest.fixture(autouse=True)
def _clean_faults():
    """No plan leaks into (or out of) any test."""
    faultinject.uninstall()
    yield
    faultinject.uninstall()


def _tasks(names=("Round",), methods=("opt",)):
    specs = [get_benchmark(name) for name in names]
    return expand_grid(specs, CONFIG, seed=0, methods=methods)


class TestSpecParsing:
    def test_round_trip(self):
        clauses = parse_spec("worker-crash:match=Round/*:count=2:action=exit; cache-torn")
        assert [c.site for c in clauses] == ["worker-crash", "cache-torn"]
        assert clauses[0].match == "Round/*" and clauses[0].count == 2
        assert clauses[0].action == "exit"
        assert clauses[1].count == 1  # default: fire once

    def test_unknown_site_rejected(self):
        with pytest.raises(ReproError):
            parse_spec("core-meltdown")

    def test_malformed_options_rejected(self):
        with pytest.raises(ReproError):
            parse_spec("worker-crash:count")
        with pytest.raises(ReproError):
            parse_spec("worker-crash:frequency=2")
        with pytest.raises(ReproError):
            parse_spec("worker-crash:action=segfault")

    def test_count_limits_firings(self):
        plan = FaultPlan.parse("lp-fail:count=2")
        fired = [plan.fire("lp-fail", "highs") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_match_is_fnmatch_on_key(self):
        plan = FaultPlan.parse("worker-hang:match=Round/*:count=-1")
        assert plan.fire("worker-hang", "Round/data-driven/opt") is not None
        assert plan.fire("worker-hang", "Concat/data-driven/opt") is None

    def test_prob_is_deterministic(self):
        a = FaultPlan.parse("lp-fail:count=-1:prob=0.5:seed=7")
        b = FaultPlan.parse("lp-fail:count=-1:prob=0.5:seed=7")
        pattern_a = [a.fire("lp-fail", "highs") is not None for _ in range(64)]
        pattern_b = [b.fire("lp-fail", "highs") is not None for _ in range(64)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_state_dir_shares_counters_across_plans(self, tmp_path):
        # two plans over one state dir model two processes of one run
        a = FaultPlan.parse("cache-torn:count=1", state_dir=tmp_path)
        b = FaultPlan.parse("cache-torn:count=1", state_dir=tmp_path)
        assert a.fire("cache-torn", "x") is not None
        assert b.fire("cache-torn", "x") is None  # token already claimed

    def test_zero_overhead_when_inactive(self):
        def fn(x):
            return 0.0, x

        assert faultinject.wrap_logdensity(fn, "any") is fn
        assert faultinject.fault_point(faultinject.LP_FAIL, "highs") is False

    def test_wrapping_only_for_targeted_keys(self):
        faultinject.install(FaultPlan.parse("nan-logdensity:match=other"))

        def fn(x):
            return 0.0, x

        assert faultinject.wrap_logdensity(fn, "chaos") is fn
        assert faultinject.wrap_logdensity(fn, "other") is not fn


class TestWorkerCrash:
    def test_injected_crash_is_retried_and_recovers(self):
        faultinject.install(
            FaultPlan.parse("worker-crash:match=Round/data-driven/opt:count=1")
        )
        with EvalRunner(backoff_seconds=0.0) as runner:
            report = runner.run_tasks(_tasks())
        assert all(o["ok"] for o in report.outcomes)
        victim = report.outcome_by_id()["Round/data-driven/opt"]
        assert victim["metrics"]["attempts"] == 2

    def test_persistent_crash_records_provenance(self):
        faultinject.install(
            FaultPlan.parse("worker-crash:match=Round/data-driven/opt:count=-1")
        )
        with EvalRunner(max_retries=1, backoff_seconds=0.0) as runner:
            report = runner.run_tasks(_tasks())
        victim = report.outcome_by_id()["Round/data-driven/opt"]
        assert not victim["ok"]
        assert victim["outcome"] == "crash"
        assert victim["failure"]["error_class"] == "InjectedFault"
        assert victim["failure"]["stage"] == "worker"
        assert victim["failure"]["attempts"] == 2
        # blast radius is exactly one cell
        others = [o for o in report.outcomes if o["task"] != victim["task"]]
        assert others and all(o["ok"] for o in others)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_aborts_on_first_failure(self, jobs):
        faultinject.install(
            FaultPlan.parse("worker-crash:match=Round/data-driven/opt:count=-1")
        )
        with EvalRunner(
            jobs=jobs, max_retries=0, backoff_seconds=0.0, fail_fast=True
        ) as runner:
            with pytest.raises(ReproError, match="fail-fast"):
                runner.run_tasks(_tasks())
        # the aborted run leaves no pool worker behind
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestWatchdog:
    def test_serial_hang_times_out_with_provenance(self):
        faultinject.install(
            FaultPlan.parse("worker-hang:match=Round/data-driven/opt:count=-1:delay=60")
        )
        start = time.monotonic()
        with EvalRunner(max_retries=0, backoff_seconds=0.0, task_timeout=2.0) as runner:
            report = runner.run_tasks(_tasks())
        elapsed = time.monotonic() - start
        victim = report.outcome_by_id()["Round/data-driven/opt"]
        assert victim["outcome"] == "timeout"
        assert victim["failure"]["error_class"] == "TaskTimeoutError"
        assert victim["failure"]["stage"] == "runner"
        assert "watchdog" in victim["error"]
        assert report.metrics_json()["summary"]["timeouts"] == 1
        assert elapsed < 30  # the 60 s sleep was interrupted

    def test_serial_hang_recovers_on_retry(self):
        faultinject.install(
            FaultPlan.parse("worker-hang:match=Round/data-driven/opt:count=1:delay=60")
        )
        with EvalRunner(max_retries=1, backoff_seconds=0.0, task_timeout=2.0) as runner:
            report = runner.run_tasks(_tasks())
        assert all(o["ok"] for o in report.outcomes)
        victim = report.outcome_by_id()["Round/data-driven/opt"]
        assert victim["metrics"]["attempts"] == 2

    def test_pool_hung_worker_is_reclaimed(self, tmp_path, monkeypatch):
        # env-driven spec with a shared state dir: the firing counter must
        # span forked workers and the replacement pool ("hang once per run")
        monkeypatch.setenv(
            ENV_SPEC, "worker-hang:match=Round/data-driven/opt:count=1:delay=120"
        )
        monkeypatch.setenv(ENV_STATE, str(tmp_path / "state"))
        start = time.monotonic()
        with EvalRunner(
            jobs=2, max_retries=1, backoff_seconds=0.1, task_timeout=3.0
        ) as runner:
            report = runner.run_tasks(_tasks())
        elapsed = time.monotonic() - start
        assert all(o["ok"] for o in report.outcomes)
        victim = report.outcome_by_id()["Round/data-driven/opt"]
        assert victim["metrics"]["attempts"] == 2
        # killing the pool cost the innocent cells none of their attempts
        others = [o for o in report.outcomes if o["task"] != victim["task"]]
        assert others and all(o["metrics"]["attempts"] == 1 for o in others)
        assert elapsed < 60  # ≈ watchdog + backoff + rerun, not the 120 s hang

    def test_pool_mixed_crash_and_retry(self, tmp_path, monkeypatch):
        # a hard worker death (os._exit) breaks the pool: the victim and any
        # in-flight tasks must be rescanned and resubmitted, then succeed
        monkeypatch.setenv(
            ENV_SPEC, "worker-crash:match=Round/data-driven/opt:count=1:action=exit"
        )
        monkeypatch.setenv(ENV_STATE, str(tmp_path / "state"))
        with EvalRunner(jobs=2, max_retries=2, backoff_seconds=0.05) as runner:
            report = runner.run_tasks(_tasks())
        assert all(o["ok"] for o in report.outcomes)
        victim = report.outcome_by_id()["Round/data-driven/opt"]
        assert victim["metrics"]["attempts"] >= 2


class TestSamplerHealing:
    @staticmethod
    def _gauss(x):
        return float(-0.5 * np.sum(x * x)), -x

    def test_fully_divergent_chain_raises(self):
        faultinject.install(FaultPlan.parse("nan-logdensity:match=chaos:count=-1"))
        config = HMCConfig(n_samples=10, n_warmup=10, n_leapfrog=4, max_restarts=1)
        with pytest.raises(SamplerDivergenceError):
            hmc_sample_chains(
                self._gauss, [np.zeros(2)], config, np.random.default_rng(0),
                fault_key="chaos",
            )

    def test_limited_nan_burst_heals(self):
        faultinject.install(FaultPlan.parse("nan-logdensity:match=chaos:count=3"))
        config = HMCConfig(n_samples=20, n_warmup=10, n_leapfrog=4)
        result = hmc_sample_chains(
            self._gauss, [np.ones(2)], config, np.random.default_rng(0),
            fault_key="chaos",
        )
        assert result.samples.shape == (20, 2)
        assert result.retries >= 1
        assert result.chain_diagnostics
        assert result.chain_diagnostics[0]["retries"] >= 1

    def test_untargeted_key_is_unaffected(self):
        faultinject.install(FaultPlan.parse("nan-logdensity:match=other:count=-1"))
        config = HMCConfig(n_samples=10, n_warmup=10, n_leapfrog=4)
        result = hmc_sample_chains(
            self._gauss, [np.zeros(2)], config, np.random.default_rng(0),
            fault_key="chaos",
        )
        assert result.retries == 0 and result.divergences == 0

    def test_healing_halves_step_and_counts_retries(self):
        calls = []

        def stub(cfg, rng):
            calls.append(cfg.initial_step_size)
            return HMCResult(
                np.zeros((10, 1)), 1.0, cfg.initial_step_size, np.zeros(10),
                divergences=9 if len(calls) == 1 else 0,
            )

        config = HMCConfig(n_samples=10, initial_step_size=0.4)
        result = sample_with_healing(stub, config, np.random.default_rng(0))
        assert calls == [0.4, 0.2]
        assert result.retries == 1 and result.divergences == 0


class TestFaultedChainOrder:
    """A fault-wrapped density runs its chains in order: each chain's
    attempt 0 and healing restarts finish before the next chain starts.
    A counted plan's clause counters depend on that order, so the chains
    must match the same chains run one at a time, in order, on the same
    spawned streams, under a freshly installed plan."""

    PLAN = "nan-logdensity:match=chaos:count=150:prob=0.3:seed=2"
    CONFIG = HMCConfig(n_samples=20, n_warmup=10, n_leapfrog=4)
    STARTS = [np.full(2, 0.1), np.full(2, -0.2), np.full(2, 0.3)]
    BOX = Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4), ["x", "y"])

    @staticmethod
    def _gauss(x):
        return float(-0.5 * np.sum(x * x)), -x

    def one_at_a_time(self, run_one):
        faultinject.install(FaultPlan.parse(self.PLAN))
        wrapped = faultinject.wrap_logdensity(self._gauss, "chaos")
        streams = spawn_streams(np.random.default_rng(5), len(self.STARTS))
        return [
            sample_with_healing(
                lambda cfg, r, _start=start: run_one(wrapped, _start, cfg, r),
                self.CONFIG,
                stream,
            )
            for start, stream in zip(self.STARTS, streams)
        ]

    @pytest.mark.parametrize("sampler", ["hmc", "reflective"])
    def test_chains_match_chains_run_one_at_a_time(self, sampler):
        faultinject.install(FaultPlan.parse(self.PLAN))
        rng = np.random.default_rng(5)
        if sampler == "hmc":
            result = hmc_sample_chains(
                self._gauss, self.STARTS, self.CONFIG, rng, fault_key="chaos"
            )
            solos = self.one_at_a_time(hmc_sample)
        else:
            result = reflective_hmc_chains(
                self._gauss, self.BOX, self.STARTS, self.CONFIG, rng, fault_key="chaos"
            )
            solos = self.one_at_a_time(
                lambda fn, start, cfg, r: reflective_hmc_sample(fn, self.BOX, start, cfg, r)
            )
        # the plan really fired and the first chain really healed
        assert solos[0].retries > 0
        for block, solo in zip(np.split(result.samples, len(solos)), solos):
            assert np.array_equal(block, solo.samples)
        assert [d["retries"] for d in result.chain_diagnostics] == [
            float(s.retries) for s in solos
        ]
        assert [d["divergences"] for d in result.chain_diagnostics] == [
            float(s.divergences) for s in solos
        ]


class TestLPFallback:
    def test_injected_numerical_failure_falls_back(self):
        faultinject.install(FaultPlan.parse("lp-fail:match=highs:count=1"))
        p = LPProblem()
        x = p.fresh("x")
        p.add_ge(x, 3)
        sol = solve_lexicographic(p, [x])
        assert sol.value(x) == pytest.approx(3.0, abs=1e-6)
        assert sol.fallbacks >= 1

    def test_all_methods_failing_raises_lperror(self):
        faultinject.install(FaultPlan.parse("lp-fail:count=-1"))
        p = LPProblem()
        x = p.fresh("x")
        p.add_ge(x, 3)
        with pytest.raises(LPError, match="attempt"):
            solve_lexicographic(p, [x])


class TestCacheTorn:
    def test_torn_write_recovers_on_next_run(self, tmp_path):
        faultinject.install(FaultPlan.parse("cache-torn:count=1"))
        tasks = _tasks()
        with EvalRunner(cache_dir=tmp_path) as runner:
            first = runner.run_tasks(tasks)
            assert all(o["ok"] for o in first.outcomes)
            faultinject.uninstall()
            second = runner.run_tasks(tasks)
            assert all(o["ok"] for o in second.outcomes)
            hits = [o["metrics"]["cache_hit"] for o in second.outcomes]
            assert hits.count(False) == 1  # only the torn entry recomputed
            third = runner.run_tasks(tasks)
            assert all(o["metrics"]["cache_hit"] for o in third.outcomes)

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        with EvalRunner(cache_dir=tmp_path) as runner:
            runner.run_tasks(_tasks())
        assert list(tmp_path.glob("*.tmp")) == []


class TestNewFaultSites:
    def test_parent_signal_term_delivers_sigterm(self):
        import signal

        received = []
        previous = signal.signal(signal.SIGTERM, lambda *_: received.append("TERM"))
        try:
            faultinject.install(FaultPlan.parse("parent-signal:count=1:action=term"))
            assert faultinject.fault_point(faultinject.PARENT_SIGNAL, "any")
            time.sleep(0.1)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert received == ["TERM"]

    def test_parent_signal_kill_action_parses(self):
        clauses = parse_spec("parent-signal:action=kill")
        assert clauses[0].action == "kill"

    def test_journal_enospc_degrades_journal(self, tmp_path):
        from repro.evalharness.journal import RunJournal, replay

        faultinject.install(FaultPlan.parse("journal-enospc:count=1"))
        with RunJournal(tmp_path / "r") as journal:
            journal.task_finish("t", {"ok": True})
            assert journal._degraded
        assert replay(tmp_path / "r").finished == {}

    def test_cache_bitflip_is_caught_by_checksum(self, tmp_path):
        tasks = _tasks()
        with EvalRunner(cache_dir=tmp_path) as runner:
            first = runner.run_tasks(tasks)
            assert all(o["ok"] for o in first.outcomes)
        from repro.evalharness import ResultCache

        cache = ResultCache(tmp_path)
        cache.wipe()
        faultinject.install(FaultPlan.parse("cache-bitflip:count=1"))
        cache.store(tasks[0], first.outcomes[0])
        faultinject.uninstall()
        # the flipped payload must never be served as a valid outcome
        assert cache.load(tasks[0]) is None
        assert len(list(cache.root.glob("*.json.quarantined"))) == 1


def _strip_wall_clock(payload):
    """Drop timing fields (the only nondeterministic part of an outcome)."""
    if isinstance(payload, dict):
        return {
            k: _strip_wall_clock(v)
            for k, v in payload.items()
            if k != "runtime_seconds"
        }
    if isinstance(payload, list):
        return [_strip_wall_clock(v) for v in payload]
    return payload


class TestEndToEndDegradation:
    def test_unaffected_cells_byte_identical_under_faults(self):
        tasks = _tasks(names=("Round", "Concat"))
        with EvalRunner(backoff_seconds=0.0) as runner:
            baseline = runner.run_tasks(tasks)
        assert all(o["ok"] for o in baseline.outcomes)

        faulted_ids = {"Round/data-driven/opt", "Concat/data-driven/opt"}
        faultinject.install(
            FaultPlan.parse(
                "worker-crash:match=Round/data-driven/opt:count=-1;"
                "worker-crash:match=Concat/data-driven/opt:count=-1"
            )
        )
        with EvalRunner(max_retries=1, backoff_seconds=0.0) as runner:
            degraded = runner.run_tasks(tasks)

        base_by_id = baseline.outcome_by_id()
        ok_cells = 0
        for outcome in degraded.outcomes:
            if outcome["task"] in faulted_ids:
                assert outcome["outcome"] == "crash"
                failure = outcome["failure"]
                assert failure["stage"] == "worker"
                assert failure["error_class"] == "InjectedFault"
                assert failure["attempts"] == 2
            else:
                ok_cells += 1
                want = base_by_id[outcome["task"]]
                for part in ("result", "verdict"):
                    assert json.dumps(
                        _strip_wall_clock(outcome[part]), sort_keys=True
                    ) == json.dumps(_strip_wall_clock(want[part]), sort_keys=True)
        assert ok_cells > 0


class TestCLIExitCodes:
    def test_fail_fast_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        # pre-seed both env vars through monkeypatch so the values the CLI
        # writes are restored (removed) at teardown
        monkeypatch.setenv(ENV_SPEC, "placeholder")
        monkeypatch.setenv(ENV_STATE, str(tmp_path / "state"))
        code = main(
            [
                "bench", "Round", "--method", "opt", "--samples", "4",
                "--faults", "worker-crash:match=Round/data-driven/opt:count=-1",
                "--fail-fast",
            ]
        )
        assert code != 0
        assert "fail-fast" in capsys.readouterr().err

    def test_keep_going_exits_zero_with_warning(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(ENV_SPEC, "placeholder")
        monkeypatch.setenv(ENV_STATE, str(tmp_path / "state"))
        code = main(
            [
                "bench", "Round", "--method", "opt", "--samples", "4",
                "--faults", "worker-crash:match=Round/data-driven/opt:count=-1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err and "failed" in captured.err
        assert "ERR" in captured.out  # footnoted partial table
