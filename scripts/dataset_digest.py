"""Hash the interpreter's output over every suite dataset.

Compiles the data-driven and the hybrid variant of every suite
benchmark, runs each over its runtime-data inputs (drawn as ``bench``
draws them) with no budget and under ``ExecutionBudget.untrusted()``,
and prints one sha256 over every run's value and cost, every stat
record (label, restricted environment, value, cost) and the
interpreter's ``eval_steps`` and ``tick_ops`` counters.  Run it at two
commits to check that a change to the interpreter kept every dataset
bit for bit:

    PYTHONPATH=src python scripts/dataset_digest.py [-v]

``-v`` prints one digest per variant, with its collection time, before
the total.
"""

import argparse
import hashlib
import time

import numpy as np

from repro.config import ExecutionBudget
from repro.errors import ReproError
from repro.evalharness.runner import input_seed
from repro.lang import compile_program
from repro.lang.interp import Interpreter
from repro.suite import all_benchmarks

BUDGETS = (("trusted", None), ("untrusted", ExecutionBudget.untrusted()))


def variants():
    """Yield ``(benchmark, mode, source, entry)`` for every suite variant."""
    for spec in all_benchmarks():
        yield spec, "data-driven", spec.data_driven_source, spec.data_driven_entry
        if spec.hybrid_source is not None:
            yield spec, "hybrid", spec.hybrid_source, spec.hybrid_entry


def digest_runs(program, entry, inputs, budget):
    """sha256 over one variant's runs and the interpreter's counters."""
    interp = Interpreter(
        program,
        max_steps=getattr(budget, "eval_steps", None),
        max_call_depth=getattr(budget, "eval_call_depth", None),
        max_value_size=getattr(budget, "eval_value_size", None),
    )
    h = hashlib.sha256()
    try:
        for args in inputs:
            result = interp.run(entry, list(args))
            h.update(repr((result.value, result.cost)).encode())
            for record in result.stat_records:
                h.update(repr((record.label, record.env, record.value, record.cost)).encode())
    except ReproError as exc:
        h.update(f"error:{type(exc).__name__}:{getattr(exc, 'kind', None)}:{exc}".encode())
    h.update(repr((interp.eval_steps, interp.tick_ops)).encode())
    return h.hexdigest(), interp.eval_steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", action="store_true", help="print one digest per variant")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    elapsed = 0.0
    for spec, mode, source, entry in variants():
        inputs = spec.inputs(np.random.default_rng(input_seed(0, spec.name)))
        for budget_name, budget in BUDGETS:
            program = compile_program(source, budget=budget)
            start = time.perf_counter()
            value, steps = digest_runs(program, entry, inputs, budget)
            seconds = time.perf_counter() - start
            elapsed += seconds
            line = f"{spec.name} {mode} {budget_name} {value}"
            total.update((line + "\n").encode())
            count += 1
            if args.v:
                print(f"{line} steps={steps} {seconds:.2f}s")
    print(f"variants {count} datasets sha256 {total.hexdigest()}")
    if args.v:
        print(f"interpreter time {elapsed:.2f}s (hashing included)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
