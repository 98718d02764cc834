"""Tests of the benchmark's own arithmetic, wrappers and classification.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import importlib
import random

import pytest

from perfbench import common, layers
from perfbench.edit import tick_edit, whitespace_save
from perfbench.serve import classify
from perfbench.tracer import Tracer, self_times


# -- nearest-rank percentiles ------------------------------------------------


def test_nearest_rank_on_one_to_hundred():
    values = list(range(100, 0, -1))
    assert common.nearest_rank(values, 0.5) == 50
    assert common.nearest_rank(values, 0.95) == 95
    assert common.nearest_rank(values, 1.0) == 100
    assert common.nearest_rank(values, 0.001) == 1


def test_nearest_rank_is_always_a_sample():
    values = [3.0, 1.0, 2.0, 10.0]
    assert common.nearest_rank(values, 0.5) == 2.0  # rank ceil(0.5 * 4) = 2
    assert common.nearest_rank(values, 0.51) == 3.0
    assert common.nearest_rank([7.5], 0.95) == 7.5


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        common.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        common.nearest_rank([1.0], 0.0)


def test_pooled_takes_the_percentile_over_every_pass():
    first = list(range(1, 101))
    second = list(range(101, 201))
    assert common.pooled([second, first], 0.95) == 190  # rank 190 of 200
    assert common.pooled([first, second], 0.5) == 100
    # each pass alone is too short for a p95 with ten beyond; pooled it is not
    assert common.pooled([first[:100], first[:100]], 0.95) == 95
    with pytest.raises(ValueError):
        common.pooled([first[:90], first[:90]], 0.95)  # 180 samples: 9 beyond


def test_tail_needs_ten_samples_beyond():
    assert common.tail(list(range(1, 201)), 0.95) == 190  # 10 beyond
    with pytest.raises(ValueError):
        common.tail(list(range(1, 200)), 0.95)  # rank 190 of 199: 9 beyond


# -- host speed ------------------------------------------------------------------


def test_host_probe_scales_by_the_probes_either_side_of_an_op():
    probe = object.__new__(common.HostProbe)
    probe.when = [0.0, 1.0, 4.0]
    probe.took = [0.004, 0.006, 0.010]
    ref = common.REFERENCE_PROBE_S
    # probes at 0 s (4 ms) and 1 s (6 ms) bracket [0.2, 0.7]: mean 5 ms
    assert probe.at_reference(0.2, 0.7) == pytest.approx(0.5 * ref / 0.005)
    # an op from 0.5 s to 2 s spans the 1-s probe: 0 s and 4 s bracket it
    assert probe.at_reference(0.5, 2.0) == pytest.approx(1.5 * ref / 0.007)
    with pytest.raises(ValueError):
        probe.at_reference(3.0, 5.0)  # no probe after it


def test_host_probe_averages_the_probes_near_each_side():
    probe = object.__new__(common.HostProbe)
    probe.when = [0.0, 0.95, 0.98, 1.10, 1.15, 1.30]
    probe.took = [0.009, 0.002, 0.004, 0.006, 0.010, 0.009]
    ref = common.REFERENCE_PROBE_S
    # before [1.0, 1.1]: 0.95 and 0.98 (0.0 is outside the window), mean 3 ms;
    # after: 1.10 and 1.15 (1.30 is outside), mean 8 ms; speed 5.5 ms
    assert probe.at_reference(1.0, 1.1) == pytest.approx(0.1 * ref / 0.0055)


def test_host_probe_helper_answers_then_stops():
    probe = common.HostProbe()
    try:
        probe.sample()
        probe.sample()
        assert len(probe.took) == 2 and all(took > 0 for took in probe.took)
        assert probe.when[0] < probe.when[1]
    finally:
        probe.stop()
    assert probe.proc.returncode == 0


# -- self time -----------------------------------------------------------------


def _span(sid, start, end, parent=None):
    return {"sid": sid, "name": sid, "start": start, "end": end, "parent": parent, "op": None}


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, "a"),
        _span("c", 2.0, 3.0, "b"),
        _span("d", 6.0, 7.5, "a"),
    ]
    own = self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 3.0 - 1.5)
    assert own["b"] == pytest.approx(3.0 - 1.0)
    assert own["c"] == pytest.approx(1.0)
    assert own["d"] == pytest.approx(1.5)


def test_self_time_counts_overlapping_children_once_and_clips():
    # children from two threads overlap; one pokes out of its parent
    spans = [
        _span("p", 0.0, 10.0),
        _span("x", 2.0, 6.0, "p"),
        _span("y", 4.0, 8.0, "p"),
        _span("z", 9.0, 12.0, "p"),
    ]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_spans_nest_and_inherit_op():
    tracer = Tracer()
    tracer.op = "cell-1"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    doc = tracer.drain_json()
    outer, inner = doc["spans"]
    assert inner["parent"] == outer["sid"]
    assert outer["op"] == inner["op"] == "cell-1"
    own = self_times(doc["spans"])
    assert own[outer["sid"]] + own[inner["sid"]] == pytest.approx(outer["end"] - outer["start"])
    assert tracer.drain_json()["spans"] == []


# -- wrappers --------------------------------------------------------------------


def _patched_attributes(tracer):
    return [(owner, attr, original) for owner, attr, original, _own in tracer._patches]


def test_install_then_restore_leaves_every_attribute_identical():
    tracer = Tracer()
    layers.install(tracer)
    patched = _patched_attributes(tracer)
    assert len(patched) >= 20
    for owner, attr, original in patched:
        assert getattr(owner, attr) is not original
    tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_wrapper_records_span_and_hooks_and_restores_inherited_attribute():
    class Base:
        def work(self, x):
            return x + 1

    class Child(Base):
        pass

    tracer = Tracer()
    seen = []
    tracer.wrap(Child, "work", "child.work", after=lambda t, a, k, r: seen.append(r))
    assert Child().work(1) == 2
    assert seen == [2]
    assert [s["name"] for s in tracer.drain_json()["spans"]] == ["child.work"]
    tracer.restore()
    assert "work" not in vars(Child)
    assert Child.work is Base.work


def test_wrapped_program_calls_are_recorded():
    tracer = Tracer()
    layers.install(tracer)
    try:
        lang = importlib.import_module("repro.lang")
        lang.compile_program("let f xs = match xs with | [] -> 0 | _hd :: tl -> 1\n")
    finally:
        tracer.restore()
    names = [s["name"] for s in tracer.drain_json()["spans"]]
    assert names == ["lang.compile"]


# -- serve classification ----------------------------------------------------------


def _done(cache_hit, task="MapAppend/data-driven/opt", kind="analysis", runtime=None):
    verdict = None if runtime is None else {"runtime_seconds": runtime}
    return {"state": "done", "cache_hit": cache_hit,
            "result": {"task": task, "kind": kind, "verdict": verdict}}


def test_classify_each_serve_class():
    assert classify(200, _done(False)) == "miss"
    assert classify(200, _done(True)) == "hit"
    incr = _done(True, task="user:0123456789ab/static/aara", kind="conventional", runtime=0.0)
    assert classify(200, incr) == "incr"
    rejected = {"error": {"status": 422, "code": "rejected-lint", "diagnostics": []}}
    assert classify(422, rejected) == "reject"


def test_classify_by_response_not_intent():
    # a conventional source verdict the worker computed is a miss, and one
    # replayed from the result cache (runtime kept) is a hit, not incr
    computed = _done(False, task="user:0123456789ab/static/aara", kind="conventional", runtime=0.4)
    assert classify(200, computed) == "miss"
    cached = _done(True, task="user:0123456789ab/static/aara", kind="conventional", runtime=0.4)
    assert classify(200, cached) == "hit"
    assert classify(429, {"error": {"code": "rate-limited"}}) == "other"
    assert classify(200, {"state": "error", "cache_hit": False}) == "other"
    assert classify(202, {"state": "queued"}) == "other"


# -- edit script helpers -------------------------------------------------------------


def test_tick_edit_and_whitespace_save():
    from repro.lang.parser import parse_program_ex

    source = "let f x = x + 1\n\nlet rec g xs =\n  match xs with\n  | [] -> 0\n  | _ :: tl -> f (g tl)\n"
    g = parse_program_ex(source).functions[1]
    edited = tick_edit(source, g, "1.5")
    assert "let rec g xs = let _ = Raml.tick 1.5 in\n  match" in edited
    parse_program_ex(edited)
    saved = whitespace_save(source, random.Random(0))
    assert saved != source
    assert [line.rstrip() for line in saved.split("\n")] == source.split("\n") + [""]
