"""Re-run the grid's cached ZAlgorithm cells in a process of their own, as
a second ``hybrid-aara bench ZAlgorithm --cache DIR`` does.

Usage (started by ``grid.py``, not by hand)::

    python3 perfbench/warm.py CACHE_DIR RUNS_DIR SEED TRACE

Each line on standard input is a count N: the process re-runs the cells N
times, each time in a seeded order, and answers with one JSON line: the
(start, end) of each re-run and the host probes taken between them
(``time.perf_counter`` is one clock for every process on the host, so the
caller merges them into its own).  At the end of its input it prints one
more line: the digests of the answers each cell got, and (``TRACE`` 1) the
spans the re-runs recorded.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    cache_dir, runs_dir = sys.argv[1], sys.argv[2]
    seed, traced = int(sys.argv[3]), sys.argv[4] == "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import common, grid, layers
    from perfbench.tracer import Tracer
    from repro.evalharness.runner import EvalRunner

    tracer = None
    if traced:
        tracer = Tracer()
        layers.install(tracer)
    state = grid.setup(None)
    warm_set = [task for task in state["tasks"] if task.benchmark == grid.WARM_BENCHMARK]
    journal = grid.journal(runs_dir, warm_set, state["config"])
    rng = random.Random(seed)
    answers = {}
    probe = common.HostProbe()
    try:
        with EvalRunner(jobs=1, cache_dir=cache_dir, journal=journal) as runner:
            for line in sys.stdin:
                intervals = []
                probe.when, probe.took = [], []
                for _ in range(int(line)):
                    probe.sample()
                    t0 = time.perf_counter()
                    outcomes = runner.run_tasks(rng.sample(warm_set, len(warm_set))).outcomes
                    intervals.append((t0, time.perf_counter()))
                    for outcome in outcomes:
                        cell = outcome["task"] if outcome["metrics"].get("cache_hit") else "(computed)"
                        answers.setdefault(cell, set()).add(common.digest(grid.product(outcome)))
                    runner.history.clear()  # the runner keeps every outcome; these are checked
                probe.sample()
                print(json.dumps({"intervals": intervals, "probes": [probe.when, probe.took]}),
                      flush=True)
    finally:
        probe.stop()
    journal.close()
    if tracer is not None:
        tracer.restore()
    print(json.dumps({
        "answers": {cell: sorted(digests) for cell, digests in answers.items()},
        "trace": tracer.drain_json() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
