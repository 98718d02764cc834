"""Shared test fixtures: environment hygiene for durable-run machinery.

The bench CLI journals every run under ``$REPRO_RUNS_DIR`` (default
``./runs``) and several subsystems activate themselves from environment
variables (checkpointing, fault injection, tracing).  Tests must neither
litter the working tree nor leak activation state into each other, so an
autouse fixture redirects run journals into ``tmp_path`` and restores
every activation variable afterwards.
"""

import os

import pytest

from repro import checkpoint, faultinject, telemetry

# the IR verifier is always on in tests: every normalize call in the whole
# suite doubles as a uniquify/ANF/share invariant check (violations raise
# IRVerificationError with V0xx diagnostics instead of silent corruption)
os.environ.setdefault("REPRO_VERIFY_IR", "1")

_ENV_VARS = (
    "REPRO_RUNS_DIR",
    checkpoint.ENV_CHECKPOINT,
    checkpoint.ENV_INTERVAL,
    faultinject.ENV_SPEC,
    faultinject.ENV_STATE,
    telemetry.ENV_TRACE,
)


@pytest.fixture
def spawn_daemon(tmp_path):
    """Factory starting a `hybrid-aara serve` subprocess on a free port.

    Returns ``(proc, port)`` once the daemon prints its readiness line;
    every spawned daemon is SIGKILLed at teardown if still alive.
    """
    import json
    import signal
    import subprocess
    import sys

    procs = []
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def _spawn(*extra_args, env=None, cache=True):
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--runs-dir", str(tmp_path / "server-runs"),
        ]
        if cache:
            cmd += ["--cache-dir", str(tmp_path / "server-cache")]
        cmd += list(extra_args)
        full_env = {**os.environ, "PYTHONPATH": src, **(env or {})}
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=full_env,
        )
        procs.append(proc)
        line = proc.stdout.readline()
        assert line, f"daemon died before announcing: {proc.stderr.read()}"
        return proc, json.loads(line)["port"]

    yield _spawn
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


def _running(pid):
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no procfs: os.kill already found the process
        return True


@pytest.fixture
def surviving_pids():
    """``surviving_pids(pids, timeout)`` waits up to ``timeout`` seconds for
    every pid to exit and returns the ones still running; survivors are
    SIGKILLed at teardown so a failing test leaks no process."""
    import signal
    import time

    survivors = []

    def _wait(pids, timeout):
        deadline = time.monotonic() + timeout
        alive = [pid for pid in pids if _running(pid)]
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = [pid for pid in alive if _running(pid)]
        survivors.extend(alive)
        return alive

    yield _wait
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


@pytest.fixture(autouse=True)
def _durable_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    for var in _ENV_VARS[1:]:
        monkeypatch.delenv(var, raising=False)
    yield
    # deactivate anything a test (or the CLI under test) switched on
    # in-process, including env vars the code itself exported mid-test
    import os

    for var in _ENV_VARS:
        os.environ.pop(var, None)
    checkpoint.disable()
    faultinject.uninstall()
    telemetry.disable()
