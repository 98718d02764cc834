"""Sampler checkpointing: interrupted chains resume rng-identically.

The durable-runs property for the samplers is *interrupted ≡
uninterrupted*: a chain killed mid-run and restarted from its last
snapshot must emit exactly the draws (and leave the rng in exactly the
state) an undisturbed chain would have.  These tests simulate the kill
by making the log-density callable raise after a fixed number of
evaluations, then re-invoke the sampler with a fresh generator.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro import checkpoint, faultinject
from repro.stats.hmc import HMCConfig, hmc_sample, hmc_sample_chains
from repro.stats.nuts import nuts_sample, nuts_sample_chains
from repro.stats.polytope import Polytope
from repro.stats.reflective_hmc import reflective_hmc_chains, reflective_hmc_sample


def std_normal(x):
    return -0.5 * float(x @ x), -x


class Interrupter:
    """Log-density wrapper that dies after ``budget`` evaluations."""

    def __init__(self, fn, budget):
        self.fn = fn
        self.budget = budget
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > self.budget:
            raise KeyboardInterrupt
        return self.fn(x)


def box_polytope():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    return Polytope(A, b, ["x", "y"])


CFG = HMCConfig(n_samples=40, n_warmup=20, n_leapfrog=8)


def run_sampler(name, logp, rng, key=None):
    if name == "hmc":
        return hmc_sample(logp, np.zeros(2), CFG, rng, checkpoint_key=key)
    if name == "nuts":
        return nuts_sample(logp, np.zeros(2), CFG, rng, checkpoint_key=key)
    return reflective_hmc_sample(
        logp, box_polytope(), np.zeros(2), CFG, rng, checkpoint_key=key
    )


@pytest.mark.parametrize("sampler", ["hmc", "nuts", "reflective"])
class TestInterruptedEqualsUninterrupted:
    def golden(self, sampler):
        rng = np.random.default_rng(42)
        result = run_sampler(sampler, std_normal, rng)
        return result, checkpoint.rng_state(rng)

    def test_resumed_chain_is_rng_identical(self, sampler, tmp_path):
        golden, golden_rng = self.golden(sampler)
        checkpoint.enable(tmp_path / "ckpt", interval=5)
        with checkpoint.task_scope("cell/one"):
            interrupter = Interrupter(std_normal, 220)
            rng = np.random.default_rng(42)
            with pytest.raises(KeyboardInterrupt):
                run_sampler(sampler, interrupter, rng, key="chain0")
            # the wrapper must have fired mid-chain, past the first snapshot
            assert interrupter.calls > interrupter.budget
            rng = np.random.default_rng(42)
            resumed = run_sampler(sampler, std_normal, rng, key="chain0")
        assert np.array_equal(resumed.samples, golden.samples)
        assert resumed.step_size == golden.step_size
        assert checkpoint.rng_state(rng) == golden_rng

    def test_done_chain_replays_result_and_rng(self, sampler, tmp_path):
        golden, golden_rng = self.golden(sampler)
        checkpoint.enable(tmp_path / "ckpt", interval=5)
        with checkpoint.task_scope("cell/one"):
            rng = np.random.default_rng(42)
            first = run_sampler(sampler, std_normal, rng, key="chain0")
            # second call must not evaluate the target at all
            def explode(x):
                raise AssertionError("done chain must not re-run")

            rng = np.random.default_rng(42)
            replayed = run_sampler(sampler, explode, rng, key="chain0")
        assert np.array_equal(first.samples, golden.samples)
        assert np.array_equal(replayed.samples, golden.samples)
        assert checkpoint.rng_state(rng) == golden_rng

    def test_config_change_invalidates_snapshot(self, sampler, tmp_path):
        checkpoint.enable(tmp_path / "ckpt", interval=5)
        with checkpoint.task_scope("cell/one"):
            rng = np.random.default_rng(42)
            run_sampler(sampler, std_normal, rng, key="chain0")
            other = dataclasses.replace(CFG, n_samples=CFG.n_samples + 1)
            rng = np.random.default_rng(42)
            if sampler == "hmc":
                result = hmc_sample(std_normal, np.zeros(2), other, rng, checkpoint_key="chain0")
            elif sampler == "nuts":
                result = nuts_sample(std_normal, np.zeros(2), other, rng, checkpoint_key="chain0")
            else:
                result = reflective_hmc_sample(
                    std_normal, box_polytope(), np.zeros(2), other, rng, checkpoint_key="chain0"
                )
        # a mismatched fingerprint reruns the chain rather than replaying
        assert result.samples.shape[0] == other.n_samples


def run_chains(name, logp):
    """Two chains of ``name`` under its default fault key."""
    starts = [np.full(2, 0.1), np.full(2, -0.2)]
    rng = np.random.default_rng(7)
    if name == "hmc":
        return hmc_sample_chains(logp, starts, CFG, rng)
    if name == "nuts":
        return nuts_sample_chains(logp, starts, CFG, rng)
    return reflective_hmc_chains(logp, box_polytope(), starts, CFG, rng)


@pytest.mark.parametrize("sampler", ["hmc", "nuts", "reflective"])
class TestFaultPlanFingerprint:
    """Snapshots written while NaNs were injected are never replayed by a
    clean rerun: the log-density fault plan is part of the fingerprint."""

    FAULT_KEYS = {"hmc": "hmc", "nuts": "nuts", "reflective": "bayespc"}

    def test_clean_rerun_equals_a_fault_free_run(self, sampler, tmp_path):
        calls = [0]

        def counting(x):
            calls[0] += 1
            return std_normal(x)

        fault_free = run_chains(sampler, counting)
        fault_free_calls = calls[0]
        checkpoint.enable(tmp_path / "ckpt", interval=5)
        with checkpoint.task_scope("cell/faults"):
            faultinject.install(
                faultinject.FaultPlan.parse(
                    f"nan-logdensity:match={self.FAULT_KEYS[sampler]}"
                    ":count=-1:prob=0.2:seed=4"
                )
            )
            faulted = run_chains(sampler, std_normal)
            faultinject.uninstall()
            calls[0] = 0
            clean = run_chains(sampler, counting)
        # the plan changed the draws, and the clean rerun ran every chain
        # afresh instead of replaying the faulted snapshots
        assert not np.array_equal(faulted.samples, fault_free.samples)
        assert np.array_equal(clean.samples, fault_free.samples)
        assert clean.chain_diagnostics == fault_free.chain_diagnostics
        assert calls[0] == fault_free_calls


class TestChainCheckpoint:
    def cursor(self, tmp_path, fingerprint=None):
        return checkpoint.ChainCheckpoint(
            str(tmp_path / "c.ckpt.json"), fingerprint or {"key": "k"}, interval=10
        )

    def test_due_never_at_zero(self, tmp_path):
        cur = self.cursor(tmp_path)
        assert not cur.due(0)
        assert cur.due(10)
        assert not cur.due(11)

    def test_round_trip(self, tmp_path):
        cur = self.cursor(tmp_path)
        cur.save({"status": "running", "iteration": 10})
        assert self.cursor(tmp_path).load() == {"status": "running", "iteration": 10}

    def test_fingerprint_mismatch_ignored(self, tmp_path):
        self.cursor(tmp_path).save({"status": "running", "iteration": 10})
        assert self.cursor(tmp_path, {"key": "other"}).load() is None

    def test_torn_file_ignored(self, tmp_path):
        cur = self.cursor(tmp_path)
        cur.save({"status": "running", "iteration": 10})
        blob = open(cur.path).read()
        with open(cur.path, "w") as handle:
            handle.write(blob[: len(blob) // 2])
        assert self.cursor(tmp_path).load() is None

    def test_save_degrades_on_oserror(self, tmp_path, monkeypatch):
        cur = self.cursor(tmp_path)

        def boom(*a, **k):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(checkpoint.os, "replace", boom)
        cur.save({"status": "running", "iteration": 10})
        assert cur._broken
        monkeypatch.undo()
        cur.save({"status": "running", "iteration": 20})  # no-op now
        assert self.cursor(tmp_path).load() is None

    def test_atomic_save_leaves_no_tmp(self, tmp_path):
        cur = self.cursor(tmp_path)
        cur.save({"status": "done", "iteration": 40})
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestActivation:
    def test_cursor_is_none_when_disabled(self):
        assert checkpoint.chain_cursor("k", CFG, np.zeros(2)) is None

    def test_cursor_is_none_outside_task_scope(self, tmp_path):
        checkpoint.enable(tmp_path)
        assert checkpoint.chain_cursor("k", CFG, np.zeros(2)) is None

    def test_cursor_is_none_without_key(self, tmp_path):
        checkpoint.enable(tmp_path)
        with checkpoint.task_scope("cell"):
            assert checkpoint.chain_cursor(None, CFG, np.zeros(2)) is None

    def test_ensure_from_env_tracks_changes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(checkpoint.ENV_CHECKPOINT, str(tmp_path / "a"))
        assert checkpoint.ensure_from_env()
        assert checkpoint.enabled()
        monkeypatch.delenv(checkpoint.ENV_CHECKPOINT)
        assert not checkpoint.ensure_from_env()
        assert not checkpoint.enabled()

    def test_interval_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(checkpoint.ENV_INTERVAL, "7")
        checkpoint.enable(tmp_path)
        with checkpoint.task_scope("cell"):
            cur = checkpoint.chain_cursor("k", CFG, np.zeros(2))
        assert cur.interval == 7

    def test_rng_state_round_trip_is_json_safe(self):
        rng = np.random.default_rng(3)
        rng.standard_normal(17)
        state = json.loads(json.dumps(checkpoint.rng_state(rng)))
        other = np.random.default_rng(0)
        checkpoint.restore_rng(other, state)
        assert other.standard_normal(5).tolist() == rng.standard_normal(5).tolist()
