"""The daemon's source admission: one front-end pass per request.

``ServerCore.submit`` lints submitted source with a read-only pass of its
incremental engine (the stored lint buckets when all are present, the
lint passes over the same parse otherwise) and hands that parse's
fingerprints to the fast path.  These tests hold it to the batch linter's
gate (``lint_source`` under the daemon's budget): the same decision, a
byte-identical 422, the fast path's own verdict, no artifact writes and
one parse per fast-path request.
"""

import importlib.util
import json
import os

import pytest

from repro.analysis import lint_source, to_json
from repro.analysis.incremental import (
    ArtifactStore,
    IncrementalEngine,
    peek_conventional_verdict,
)
from repro.config import ExecutionBudget
from repro.evalharness.adhoc import normalize_source, registry_match, source_digest
from repro.lang.parser import Parser
from repro.server.core import ServerConfig, ServerCore
from repro.server.model import LintRejection, SpecError
from repro.suite import all_benchmarks
from tests.test_lint_diagnostics import CASES

BUDGET = ExecutionBudget.untrusted()
HOSTILE_DIR = os.path.join(os.path.dirname(__file__), "hostile")


def _hostile(tmp_dir):
    spec = importlib.util.spec_from_file_location(
        "hostile_build_corpus", os.path.join(HOSTILE_DIR, "build_corpus.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.materialize(str(tmp_dir))
    for name in sorted(os.listdir(tmp_dir)):
        with open(os.path.join(tmp_dir, name)) as handle:
            yield f"hostile/{name}", handle.read()


def _moved(source):
    """``source`` with three blank lines and a comment above its second
    definition (its first when it has one)."""
    lines = source.split("\n")
    starts = [i for i, line in enumerate(lines) if line.startswith("let")]
    at = starts[1] if len(starts) > 1 else starts[0] if starts else 0
    return "\n".join(lines[:at] + ["", "", "(* moved *)"] + lines[at:])


def _lone_cr(source):
    """``source`` with its last line break a lone CR, which the lexer
    reads as a space."""
    at = source.rstrip("\n").rfind("\n")
    return source if at < 0 else source[:at] + "\r" + source[at + 1 :]


#: layouts the warm session never sees: the store holds lint buckets and
#: verdicts for their base layout only
UNWARMED = ("+moved", "+cr")


def _variants(label, source, entry):
    yield f"{label}+crlf", source.replace("\n", "\r\n"), entry
    yield f"{label}+trailing", "\n".join(line + "  " for line in source.split("\n")), entry
    yield f"{label}+leading", "\n\n" + source, entry
    yield f"{label}+moved", _moved(source), entry
    yield f"{label}+cr", _lone_cr(source), entry


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``(label, source, entry, mode)``: every suite variant in both modes,
    the hostile corpus, the lint CASES, and layout variants of a few."""
    items = []
    for spec in all_benchmarks():
        for variant, source in (("dd", spec.data_driven_source), ("hy", spec.hybrid_source)):
            if source is not None:
                for mode in ("data-driven", "hybrid"):
                    items.append((f"{spec.name}/{variant}/{mode}", source, None, mode))
    for label, source in _hostile(tmp_path_factory.mktemp("hostile")):
        items.append((label, source, None, "data-driven"))
    for code, (source, entry) in sorted(CASES.items()):
        items.append((code, source, entry, "data-driven"))
    bases = [
        ("R010", *CASES["R010"]),
        ("R010-last", "let f x = x\nlet main z =\n  y\n", None),
        ("R042", *CASES["R042"]),
        ("W003", *CASES["W003"]),
        ("spin", open(os.path.join(HOSTILE_DIR, "spin.raml")).read(), None),
    ]
    for spec in all_benchmarks():
        if spec.name in ("QuickSort", "ZAlgorithm"):
            bases.append((spec.name, spec.data_driven_source, None))
    for label, source, entry in bases:
        for item in _variants(label, source, entry):
            items.append((*item, "data-driven"))
    return items


def _parent_gate(source, entry):
    """The gate as the batch linter decides it: ``None`` to accept, else
    the 422's ``(message, diagnostics)``."""
    result = lint_source(source, path="<request>", entry=entry, budget=BUDGET)
    errors = [d for d in result.errors() if d.code not in ("R042", "R043")]
    if not errors:
        return None
    return (
        f"source rejected by lint: {len(errors)} error(s), "
        f"first: [{errors[0].code}] {errors[0].message}",
        to_json(errors)["diagnostics"],
    )


def _core(tmp_path, cache=True):
    """A core that admits but never runs: no pool, no journal."""
    return ServerCore(
        ServerConfig(
            cache_dir=str(tmp_path / "cache") if cache else None,
            runs_dir=str(tmp_path / "runs"),
            jobs=1,
            rate=0.0,
            queue_capacity=10_000,
        )
    )


def _listing(root):
    return {name: os.stat(os.path.join(root, name)).st_mtime_ns for name in os.listdir(root)}


def _body(source, entry, mode):
    body = {"source": source, "method": "conventional", "mode": mode}
    if entry is not None:
        body["entry"] = entry
    return body


def _check_admission(core, inputs):
    """Submit every input; returns how many the fast path answered."""
    fast = 0
    for label, source, entry, mode in inputs:
        expected = _parent_gate(source, entry)
        try:
            record = core.submit(_body(source, entry, mode), client="test")
        except LintRejection as exc:
            assert expected is not None, f"{label}: rejected, the batch gate accepts"
            assert (str(exc), json.dumps(exc.diagnostics)) == (
                expected[0],
                json.dumps(expected[1]),
            ), label
            continue
        except SpecError:
            assert expected is None, label
            # ad-hoc source is analyzed data-driven only
            assert mode == "hybrid" and registry_match(source_digest(source), mode) is None
            continue
        assert expected is None, f"{label}: accepted, the batch gate rejects"
        spec = record.spec
        if spec.source is None:
            assert registry_match(source_digest(source), mode) is not None, label
            continue
        assert spec.source == normalize_source(source), label
        verdict = peek_conventional_verdict(
            core.artifacts, spec.source, spec.entry, budget=BUDGET
        )
        if verdict is None:
            assert record.state == "queued", label
        else:
            fast += 1
            assert record.state == "done" and record.outcome["verdict"] == verdict, label
    return fast


def test_gate_matches_batch_lint_on_an_empty_store(tmp_path, inputs):
    core = _core(tmp_path)
    before = _listing(core.config.cache_dir)
    try:
        assert _check_admission(core, inputs) == 0
        assert _listing(core.config.cache_dir) == before
        assert core.counters["incremental_hits"] == 0
    finally:
        core.stop(0.0)


def test_gate_matches_batch_lint_on_a_warm_store(tmp_path, inputs):
    core = _core(tmp_path)
    # an editor session over every input but the unwarmed layouts, so
    # those meet lint buckets and verdicts stored for their base layout
    session = IncrementalEngine(ArtifactStore(core.config.cache_dir), budget=BUDGET)
    for label, source, entry, _mode in inputs:
        if not label.endswith(UNWARMED):
            session.analyze(source, path=label, entry=entry)
    before = _listing(core.config.cache_dir)
    try:
        fast = _check_admission(core, inputs)
        assert fast > 20 and core.counters["incremental_hits"] == fast
        assert _listing(core.config.cache_dir) == before
    finally:
        core.stop(0.0)


def test_fast_path_parses_once(tmp_path, monkeypatch):
    source = normalize_source(CASES["W003"][0])
    core = _core(tmp_path)
    IncrementalEngine(ArtifactStore(core.config.cache_dir), budget=BUDGET).analyze(source)
    calls = []
    parse = Parser.parse_program

    def counted(self):
        calls.append(1)
        return parse(self)

    monkeypatch.setattr(Parser, "parse_program", counted)
    try:
        record = core.submit(_body(source, None, "data-driven"), client="test")
        assert record.outcome["metrics"]["incremental"] is True
        assert len(calls) == 1
        # a layout the gate parsed differently from the normalized text:
        # the peek parses the normalized text itself
        calls.clear()
        record = core.submit(_body("\n" + source, None, "data-driven"), client="test")
        assert record.outcome["metrics"]["incremental"] is True
        assert len(calls) == 2
    finally:
        core.stop(0.0)


def test_daemon_without_cache_dir_lints_every_source(tmp_path):
    core = _core(tmp_path, cache=False)
    assert core.engine.store is None
    try:
        for _ in range(2):
            with pytest.raises(LintRejection) as info:
                core.submit(_body(*CASES["R010"], "data-driven"), client="test")
            assert info.value.diagnostics[0]["code"] == "R010"
        record = core.submit(_body(*CASES["W003"], "data-driven"), client="test")
        assert record.state == "queued"
        assert core.counters["rejected_lint"] == 2
    finally:
        core.stop(0.0)


def test_submission_normalized_once_and_registry_hashed_once(tmp_path, monkeypatch):
    from repro.evalharness import adhoc

    adhoc._registry_digests()  # the process's one pass over the registry
    calls = []
    normalize = adhoc.normalize_source
    monkeypatch.setattr(adhoc, "normalize_source", lambda text: calls.append(1) or normalize(text))
    core = _core(tmp_path, cache=False)  # no task cache: its key derivation normalizes too
    try:
        for seed in range(3):
            body = dict(_body(*CASES["W003"], "data-driven"), seed=seed)
            assert core.submit(body, client="test").state == "queued"
        assert len(calls) == 3
        assert adhoc._registry_digests.cache_info().misses == 1
    finally:
        core.stop(0.0)
