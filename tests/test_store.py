"""The one checksummed store and its two key families.

``task`` entries are :class:`ResultCache` outcomes, ``incremental``
entries are :class:`ArtifactStore` artifacts; both share one entry
format, one loader, one quarantine, ``gc`` and ``wipe``.
"""

import hashlib
import json
import os
import time

import pytest

from repro import telemetry
from repro.analysis.incremental import ArtifactStore, IncrementalEngine
from repro.config import AnalysisConfig
from repro.evalharness import EvalRunner, EvalTask, ResultCache, execute_task, expand_grid
from repro.evalharness.adhoc import adhoc_name
from repro.store import Store
from repro.suite import get_benchmark
from repro.telemetry import console

FAMILIES = {"task": ResultCache, "incremental": ArtifactStore}

KEY = "ab" * 32
VALUE = {"status": "bound", "bound": [1.5, 2], "notes": ["é", None]}


@pytest.fixture(params=sorted(FAMILIES))
def store(request, tmp_path):
    """A plain :class:`Store` with the family and version of one of the
    two real stores, so every test below runs once per family."""
    real = FAMILIES[request.param](tmp_path)
    return Store(real.root, real.family, real.version)


@pytest.fixture
def quarantines(monkeypatch):
    """Quarantine counter increments, with a console that is not quiet."""
    seen = []
    real_counter = telemetry.counter

    def counter(name, value=1, **attrs):
        if name == "cache.quarantined":
            seen.append(attrs)
        real_counter(name, value, **attrs)

    monkeypatch.setattr(telemetry, "counter", counter)
    monkeypatch.setattr(console, "CONSOLE", console.Console())
    return seen


def _rewrite(path, **changes):
    entry = json.loads(path.read_text())
    for field, value in changes.items():
        if value is None:
            del entry[field]
        else:
            entry[field] = value
    path.write_text(json.dumps(entry))


def _flip_high_bit(path):
    """Flip bit 7 of one byte mid-file: the bytes are no longer UTF-8."""
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x80
    path.write_bytes(bytes(raw))


CORRUPTIONS = {
    "not-json": lambda path: path.write_text("{ not json !!!"),
    "not-an-object": lambda path: path.write_text("[1, 2, 3]"),
    "key-mismatch": lambda path: _rewrite(path, key="cd" * 32),
    "missing-value": lambda path: _rewrite(path, value=None),
    "checksum-mismatch": lambda path: _rewrite(path, value={"tampered": True}),
    "high-bit-flip": _flip_high_bit,
}


def test_round_trip(store):
    store.store(KEY, VALUE)
    assert store.load(KEY) == VALUE
    entry = json.loads(store.path(KEY).read_text())
    assert list(entry) == ["family", "version", "key", "sha256", "value"]
    assert (entry["family"], entry["version"], entry["key"]) == (store.family, store.version, KEY)


def test_missing_entry_is_a_miss(store):
    assert store.load(KEY) is None


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corruption_is_quarantined(store, corruption, quarantines, capsys):
    store.store(KEY, VALUE)
    path = store.path(KEY)
    CORRUPTIONS[corruption](path)
    evidence = path.read_bytes()
    assert store.load(KEY) is None
    assert not path.exists()
    quarantined = path.with_name(path.name + ".quarantined")
    assert quarantined.read_bytes() == evidence
    assert quarantines == [{"family": store.family, "entry": path.name}]
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert store.family in err and quarantined.name in err
    # the miss is repaired by the next write
    store.store(KEY, VALUE)
    assert store.load(KEY) == VALUE


@pytest.mark.parametrize("other", ["family", "version"])
def test_other_family_or_version_is_swept_not_quarantined(store, other, quarantines, capsys):
    family, version = store.family, store.version
    if other == "family":
        family = "incremental" if family == "task" else "task"
    else:
        version += 1
    Store(store.root, family, version).store(KEY, VALUE)
    assert store.load(KEY) is None
    assert not store.path(KEY).exists()
    assert not list(store.root.glob("*.quarantined"))
    assert quarantines == [] and capsys.readouterr().err == ""


def _task(benchmark="Round"):
    return EvalTask(kind="conventional", benchmark=benchmark, root_seed=0)


def _old_layout_entry(kind, key, value):
    """An entry as each family wrote it before the one store existed."""
    sha = hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
    if kind == "task":
        return {"cache_version": 4, "key": key, "sha256": sha, "outcome": value}
    return {"family": "incremental", "artifact_version": 1, "key": key, "sha256": sha, "value": value}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_pre_store_layout_is_swept_as_stale(kind, tmp_path, quarantines):
    real = FAMILIES[kind](tmp_path)
    value = {"task": _task().task_id, "ok": True} if kind == "task" else VALUE
    key = real.key(_task()) if kind == "task" else KEY
    real.path(key).write_text(json.dumps(_old_layout_entry(kind, key, value)))
    loaded = real.load(_task()) if kind == "task" else real.load(key)
    assert loaded is None
    assert not real.path(key).exists()
    assert not list(tmp_path.glob("*.quarantined")) and quarantines == []


def test_two_families_share_one_directory(tmp_path):
    cache, artifacts = ResultCache(tmp_path), ArtifactStore(tmp_path)
    tasks = [_task("Round"), _task("Concat")]
    outcomes = [{"task": task.task_id, "ok": True} for task in tasks]
    keys = ["01" * 32, "02" * 32]
    for task, outcome in zip(tasks, outcomes):
        cache.store(task, outcome)
    for n, key in enumerate(keys):
        artifacts.store(key, {"n": n})
    assert [cache.load(task) for task in tasks] == outcomes
    assert [artifacts.load(key) for key in keys] == [{"n": 0}, {"n": 1}]

    # gc evicts least-recently-used entries across both families
    now = time.time()
    oldest = [cache.path(cache.key(tasks[0])), artifacts.path(keys[0])]
    newest = [cache.path(cache.key(tasks[1])), artifacts.path(keys[1])]
    for age, path in enumerate(reversed(oldest + newest)):
        os.utime(path, (now - 100 * age,) * 2)
    total = sum(path.stat().st_size for path in oldest + newest)
    keep = total - sum(path.stat().st_size for path in oldest)
    stats = cache.gc(max_bytes=keep)
    assert stats["evicted"] == 2 and stats["kept"] == 2
    assert not any(path.exists() for path in oldest)
    assert all(path.exists() for path in newest)

    # wipe clears both families, their debris and their evidence
    (tmp_path / "dead.tmp").write_text("x")
    (tmp_path / "bad.json.quarantined").write_text("{")
    assert artifacts.wipe() == 4
    assert not list(tmp_path.iterdir())


SOURCE = """let rec length xs = match xs with
  | [] -> 0
  | h :: t -> let _ = Raml.tick 1.0 in 1 + length t
let main xs = Raml.stat (length xs)
"""


def test_result_cache_keys_are_pinned(tmp_path):
    # values computed before the two key derivations were merged: a key
    # that drifts orphans every entry written under the old one
    cache = ResultCache(tmp_path)
    config = AnalysisConfig(num_posterior_samples=4, seed=0)
    assert cache.key(
        EvalTask("analysis", "MapAppend", 0, config=config, mode="hybrid", method="bayespc")
    ) == "8341438de30171e63c09bf1814e52253759c2a2cd1583fff5b4321d064115d66"
    assert cache.key(
        EvalTask("conventional", "Round", 0, config=config)
    ) == "97dc9547e311e2aeba38167a6891c2b3dd2b7591388788413fe2805e65c10b95"
    assert cache.key(
        EvalTask(
            "analysis", adhoc_name(SOURCE), 7, config=config, mode="data-driven",
            method="opt", source=SOURCE, entry="main",
        )
    ) == "66137729eb78df3242ac704c9205e75c35ba08a92c99ae1a9a0cbddfce45acf6"


# ---------------------------------------------------------------------------
# Bit rot end to end: quarantined, a miss, recomputed
# ---------------------------------------------------------------------------


def test_high_bit_flip_in_a_task_outcome_recomputes_the_cell(tmp_path):
    calls = []

    def task_fn(task):
        calls.append(task.task_id)
        return execute_task(task)

    config = AnalysisConfig(num_posterior_samples=4, seed=0)
    tasks = expand_grid([get_benchmark("Round")], config, seed=0, methods=("opt",))
    with EvalRunner(cache_dir=tmp_path, task_fn=task_fn) as runner:
        cold = runner.run_tasks(tasks)
        cache = ResultCache(tmp_path)
        _flip_high_bit(cache.path(cache.key(tasks[0])))
        calls.clear()
        warm = runner.run_tasks(tasks)
    assert calls == [tasks[0].task_id]
    assert [o["metrics"]["cache_hit"] for o in warm.outcomes] == [False] + [True] * (len(tasks) - 1)
    untimed = [dict(o["verdict"], runtime_seconds=0.0) for o in (cold.outcomes[0], warm.outcomes[0])]
    assert untimed[0] == untimed[1]
    assert len(list(tmp_path.glob("*.json.quarantined"))) == 1
    assert cache.load(tasks[0]) is not None


def test_high_bit_flip_in_an_artifact_recomputes_it(tmp_path):
    source = SOURCE.replace("let main xs", "let double xs = length xs + length xs\nlet main xs")
    engine = IncrementalEngine(ArtifactStore(tmp_path), max_degree=1)
    cold = engine.analyze(source, entry="main")
    victim = sorted(tmp_path.glob("*.json"))[0]
    _flip_high_bit(victim)
    again = engine.analyze(source, entry="main")
    assert again.recomputed == 1
    assert again.document() == cold.document()
    assert victim.with_name(victim.name + ".quarantined").exists()
    assert engine.analyze(source, entry="main").recomputed == 0
