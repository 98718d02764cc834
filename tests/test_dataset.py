"""Runtime dataset and size-projection tests (Sections 3.3, 5.4)."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.inference import RuntimeDataset, StatDataset, collect_dataset, dataset_from_results
from repro.inference.dataset import Observation
from repro.lang import compile_program, evaluate, from_python
from repro.lang.values import sizes_of

SRC = """
let rec helper xs =
  match xs with [] -> 0 | hd :: tl -> let _ = Raml.tick 1.0 in 1 + helper tl

let rec walk xs =
  match xs with
  | [] -> 0
  | hd :: tl -> Raml.stat (helper xs) + walk tl
"""


def make_dataset(data_lists):
    prog = compile_program(SRC)
    return collect_dataset(prog, "walk", [[from_python(d)] for d in data_lists])


class TestCollection:
    def test_labels(self):
        ds = make_dataset([[1, 2]])
        assert ds.labels() == ["walk#1"]

    def test_observation_counts(self):
        ds = make_dataset([[1, 2, 3]])
        # helper is stat'd at every suffix: 3 dynamic evaluations
        assert ds.total_observations() == 3

    def test_num_runs(self):
        ds = make_dataset([[1], [1, 2]])
        assert ds.num_runs == 2

    def test_missing_label_raises(self):
        ds = make_dataset([[1]])
        with pytest.raises(DatasetError):
            ds["nonexistent"]

    def test_no_stats_raises(self):
        prog = compile_program("let f x = x + 1")
        with pytest.raises(DatasetError):
            collect_dataset(prog, "f", [[from_python(1)]])

    def test_dataset_from_results(self):
        prog = compile_program(SRC)
        results = [evaluate(prog, "walk", [from_python([1, 2])])]
        ds = dataset_from_results(results)
        assert ds.total_observations() == 2


class TestStatDataset:
    def make(self):
        return make_dataset([[10, 20, 30], [5, 5]])["walk#1"]

    def test_size_keys(self):
        sd = self.make()
        keys = set(sd.size_keys())
        # helper's env list sizes 3,2,1 (run 1) and 2,1 (run 2)
        assert (3,) in keys and (1,) in keys

    def test_unique_sizes_order(self):
        sd = self.make()
        unique = sd.unique_sizes()
        assert len(unique) == len(set(unique))

    def test_max_costs(self):
        sd = self.make()
        maxima = sd.max_costs()
        assert maxima[(3,)] == 3.0
        assert maxima[(1,)] == 1.0

    def test_grouped_by_size(self):
        sd = self.make()
        groups = sd.grouped_by_size()
        assert len(groups[(2,)]) == 2  # one from each run

    def test_feature_dim(self):
        assert self.make().feature_dim() == 1

    def test_feature_dim_empty_raises(self):
        with pytest.raises(DatasetError):
            StatDataset("x").feature_dim()


class TestMergeAndKeys:
    def test_merge(self):
        a = make_dataset([[1]])
        b = make_dataset([[1, 2]])
        a.merge(b)
        assert a.total_observations() == 3
        assert a.num_runs == 2

    def test_observation_size_key_includes_output(self):
        obs = Observation(
            env=(("xs", from_python([1, 2])),), value=from_python([1]), cost=1.0
        )
        assert obs.size_key() == (2, 1)

    def test_env_dict(self):
        obs = Observation(env=(("a", 1),), value=2, cost=0.5)
        assert obs.env_dict() == {"a": 1}


def _uncached_size_key(obs):
    """φ(V, v) walked afresh on every call (the projection before caching)."""
    key = ()
    for _name, value in obs.env:
        key += sizes_of(value)
    return key + sizes_of(obs.value)


def _csr_parts(matrices):
    A_ub, b_ub, A_eq, b_eq, index = matrices
    parts = [index]
    for m in (A_ub, A_eq):
        parts += [m.shape, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()]
    return parts + [b_ub.tobytes(), b_eq.tobytes()]


class TestSizeKeyOncePerObservation:
    def test_cached_key_stays_out_of_eq_hash_and_repr(self):
        fresh = Observation(env=(("xs", from_python([1, 2])),), value=3, cost=1.0)
        used = Observation(env=(("xs", from_python([1, 2])),), value=3, cost=1.0)
        assert used.size_key() == (2,)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_hybrid_bayeswc_build_walks_sizes_once(self, monkeypatch):
        from repro.aara.analyze import build_analysis
        from repro.inference import dataset as dataset_module
        from repro.inference.hybrid import SiteCollector, make_data_handler
        from repro.suite import get_benchmark

        spec = get_benchmark("MapAppend")
        program = compile_program(spec.hybrid_source)
        inputs = spec.inputs(np.random.default_rng(0))
        dataset = collect_dataset(program, spec.hybrid_entry, inputs)

        def build():
            handler = make_data_handler(dataset, SiteCollector(), cost_mode="wvar")
            analysis = build_analysis(
                program, spec.hybrid_entry, spec.degree, stat_handler=handler
            )
            return _csr_parts(analysis.lp.to_matrices())

        walks = []
        monkeypatch.setattr(
            dataset_module, "sizes_of", lambda value: walks.append(1) or sizes_of(value)
        )
        first = build()
        first_walks = len(walks)
        second = build()
        assert first_walks > 0
        assert len(walks) == first_walks, "the second build re-walked the values"

        monkeypatch.setattr(Observation, "size_key", _uncached_size_key)
        assert first == second == build()
