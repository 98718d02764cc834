"""Hash every suite LP: its export and its solution.

For the data-driven and the hybrid variant of every suite benchmark it
builds the conventional AARA LP of every function's call-graph cone at
degrees 1-3 (as the editor loop does, under ``ExecutionBudget.untrusted()``)
and the hybrid Opt LP of the variant's entry at its Table 1 degree (the
H:Opt data constraints over seed 0's dataset).  Each LP is exported
(``to_matrices``: CSR arrays, right-hand sides, column index, constraint
notes) and solved with its staged objective (``solve_analysis``); one
sha256 covers every export, every solution (stage optima, the value of
every column, fallbacks, the bound) and every exception raised on the way.
Run it at two commits to check that a change to constraint generation or
to the LP solve kept every LP and its answer bit for bit:

    PYTHONPATH=src python scripts/lp_digest.py [-v]

``-v`` prints one digest per variant, with its time, before the total.
"""

import argparse
import hashlib
import time

import numpy as np

from repro.aara.analyze import build_analysis, solve_analysis
from repro.analysis.callgraph import call_graph, reachable
from repro.config import ExecutionBudget
from repro.errors import ReproError
from repro.evalharness.runner import _compiled_program, _mode_dataset
from repro.inference.hybrid import SiteCollector, make_data_handler
from repro.lang import ast as A
from repro.lang.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.lang.types import typecheck_program
from repro.suite import all_benchmarks


def variants():
    """Yield ``(benchmark, mode, source, entry)`` for every suite variant."""
    for spec in all_benchmarks():
        yield spec, "data-driven", spec.data_driven_source, spec.data_driven_entry
        if spec.hybrid_source is not None:
            yield spec, "hybrid", spec.hybrid_source, spec.hybrid_entry


def digest_lp(h, build):
    """Feed ``h`` one LP's export and solution, or the exception;
    ``build()`` returns the analysis and its extra (data-gap) objectives."""
    try:
        analysis, extra = build()
        A_ub, b_ub, A_eq, b_eq, index = analysis.lp.to_matrices()
        for matrix in (A_ub, A_eq):
            h.update(repr(matrix.shape).encode())
            for array in (matrix.indptr, matrix.indices):
                h.update(np.asarray(array, dtype=np.int64).tobytes())
            h.update(np.asarray(matrix.data, dtype=np.float64).tobytes())
        h.update(np.asarray(b_ub, dtype=np.float64).tobytes())
        h.update(np.asarray(b_eq, dtype=np.float64).tobytes())
        h.update("\n".join(index).encode())
        h.update("\n".join(con.note for con in analysis.lp.constraints).encode())
        result = solve_analysis(analysis, extra)
        solution = result.solution
        h.update(np.array(solution.objective_values, dtype=np.float64).tobytes())
        h.update(np.array([solution[name] for name in index], dtype=np.float64).tobytes())
        h.update(repr((solution.fallbacks, str(result.bound))).encode())
    except ReproError as exc:
        h.update(f"error:{type(exc).__name__}:{exc}".encode())


def digest_variant(spec, mode, source, entry):
    """sha256 over one variant's LPs; returns ``(hexdigest, lp_count)``."""
    h = hashlib.sha256()
    count = 0
    budget = ExecutionBudget.untrusted()
    functions = list(parse_program(source))
    for fdef in functions:
        live = reachable(call_graph(functions), [fdef.name])
        cone = A.Program([f for f in functions if f.name in live])
        program = typecheck_program(normalize_program(cone))
        for degree in (1, 2, 3):
            h.update(f"conventional {fdef.name} {degree}\n".encode())
            digest_lp(
                h,
                lambda: (
                    build_analysis(
                        program, fdef.name, degree, stat_mode="transparent", budget=budget
                    ),
                    (),
                ),
            )
            count += 1
    program = _compiled_program(spec, mode)
    dataset = _mode_dataset(spec, mode, 0)
    collector = SiteCollector()
    handler = make_data_handler(dataset, collector, cost_mode="const")
    h.update(f"opt {entry} {spec.degree}\n".encode())
    digest_lp(
        h,
        lambda: (
            build_analysis(program, entry, spec.degree, stat_handler=handler),
            [collector.gap_objective],
        ),
    )
    return h.hexdigest(), count + 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", action="store_true", help="print one digest per variant")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    variants_seen = lps = 0
    for spec, mode, source, entry in variants():
        start = time.perf_counter()
        value, count = digest_variant(spec, mode, source, entry)
        line = f"{spec.name} {mode} {value}"
        total.update((line + "\n").encode())
        variants_seen += 1
        lps += count
        if args.v:
            print(f"{line} lps={count} {time.perf_counter() - start:.2f}s")
    print(f"variants {variants_seen} LPs {lps} sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
