"""Runtime-cost datasets and size projections (Sections 3.3 and 5.4).

A :class:`RuntimeDataset` groups the interpreter's stat records by label:
``D = {(ℓ, V, v, c)}``.  The size projection ``φ(V, v)`` flattens an
environment and result value into a tuple of integers (list lengths and
total nested sizes), which indexes worst-case-cost groups in BayesWC and
provides regression features.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .. import telemetry
from ..errors import DatasetError
from ..lang import ast as A
from ..lang.interp import EvalResult, Interpreter, StatRecord
from ..lang.values import Value, sizes_of


@dataclass(frozen=True)
class Observation:
    """One measurement ``(V, v, c)`` at a stat site."""

    env: Tuple[Tuple[str, Value], ...]
    value: Value
    cost: float

    def env_dict(self) -> Dict[str, Value]:
        return dict(self.env)

    def size_key(self) -> Tuple[int, ...]:
        """The projection φ(V, v): env sizes (by variable name) + result sizes."""
        return self._size_key

    @cached_property
    def _size_key(self) -> Tuple[int, ...]:
        # computed on first use and kept in the instance __dict__, outside
        # the dataclass fields: equality, hashing and repr ignore it
        key: Tuple[int, ...] = ()
        for _name, value in self.env:
            key += sizes_of(value)
        key += sizes_of(self.value)
        return key


@dataclass
class StatDataset:
    """All observations for one stat label."""

    label: str
    observations: List[Observation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self):
        return iter(self.observations)

    def size_keys(self) -> List[Tuple[int, ...]]:
        return [obs.size_key() for obs in self.observations]

    def unique_sizes(self) -> List[Tuple[int, ...]]:
        """``N_D`` — the distinct size keys, in first-seen order (Eq. 5.4)."""
        seen: "OrderedDict[Tuple[int, ...], None]" = OrderedDict()
        for obs in self.observations:
            seen.setdefault(obs.size_key(), None)
        return list(seen.keys())

    def grouped_by_size(self) -> "OrderedDict[Tuple[int, ...], List[Observation]]":
        groups: "OrderedDict[Tuple[int, ...], List[Observation]]" = OrderedDict()
        for obs in self.observations:
            groups.setdefault(obs.size_key(), []).append(obs)
        return groups

    def max_costs(self) -> Dict[Tuple[int, ...], float]:
        """``ĉ_n^max`` — the maximum observed cost at each size key (Eq. 5.5)."""
        out: Dict[Tuple[int, ...], float] = {}
        for obs in self.observations:
            key = obs.size_key()
            out[key] = max(out.get(key, float("-inf")), obs.cost)
        return out

    def feature_dim(self) -> int:
        if not self.observations:
            raise DatasetError(f"empty dataset for label {self.label!r}")
        dims = {len(obs.size_key()) for obs in self.observations}
        if len(dims) != 1:
            raise DatasetError(
                f"inconsistent size-projection arity for label {self.label!r}: {sorted(dims)}"
            )
        return dims.pop()


@dataclass
class RuntimeDataset:
    """Datasets for every stat label of a program: ``D = ∪_ℓ D_ℓ``."""

    per_label: Dict[str, StatDataset] = field(default_factory=dict)
    #: how many top-level executions produced this dataset
    num_runs: int = 0

    def __getitem__(self, label: str) -> StatDataset:
        if label not in self.per_label:
            raise DatasetError(f"no runtime data for stat label {label!r}")
        return self.per_label[label]

    def __contains__(self, label: str) -> bool:
        return label in self.per_label

    def labels(self) -> List[str]:
        return list(self.per_label.keys())

    def total_observations(self) -> int:
        return sum(len(ds) for ds in self.per_label.values())

    def add_record(self, record: StatRecord) -> None:
        ds = self.per_label.setdefault(record.label, StatDataset(record.label))
        ds.observations.append(Observation(record.env, record.value, record.cost))

    def merge(self, other: "RuntimeDataset") -> None:
        for label, ds in other.per_label.items():
            target = self.per_label.setdefault(label, StatDataset(label))
            target.observations.extend(ds.observations)
        self.num_runs += other.num_runs


def dataset_from_results(results: Iterable[EvalResult]) -> RuntimeDataset:
    dataset = RuntimeDataset()
    for result in results:
        dataset.num_runs += 1
        for record in result.stat_records:
            dataset.add_record(record)
    return dataset


def collect_dataset(
    program: A.Program,
    fname: str,
    inputs: Sequence[Sequence[Value]],
    budget=None,
) -> RuntimeDataset:
    """Run ``fname`` over all input vectors and collect stat measurements.

    This is the data-collection judgment of Eq. (3.3): independent
    executions sweeping through the environments, collecting one
    measurement per dynamic evaluation of each statℓ subexpression.

    ``budget`` (an :class:`~repro.config.ExecutionBudget`) fuels each run:
    one hostile execution raises
    :class:`~repro.errors.BudgetExceededError`, aborting this *cell* with
    ``failure_stage='eval-budget'`` — the worker process survives.
    """
    interp = Interpreter(
        program,
        collect_stats=True,
        max_steps=getattr(budget, "eval_steps", None),
        max_call_depth=getattr(budget, "eval_call_depth", None),
        max_value_size=getattr(budget, "eval_value_size", None),
    )
    dataset = RuntimeDataset()
    with telemetry.span("data.collect", fname=fname, runs=len(inputs)) as tspan:
        for args in inputs:
            result = interp.run(fname, list(args))
            dataset.num_runs += 1
            for record in result.stat_records:
                dataset.add_record(record)
        tspan.set(
            observations=dataset.total_observations(),
            eval_steps=interp.eval_steps,
            tick_ops=interp.tick_ops,
        )
        telemetry.counter("interp.eval_steps", interp.eval_steps)
        telemetry.counter("interp.tick_ops", interp.tick_ops)
    if not dataset.per_label:
        raise DatasetError(
            f"no stat records collected running {fname!r} — does the program "
            "contain Raml.stat annotations on code the inputs exercise?"
        )
    return dataset
