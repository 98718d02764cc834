"""Worker-side entry point for the daemon's process pool.

Everything here must stay module-level and picklable: it crosses the
process boundary.  :func:`execute_request` is a thin
shim over the batch harness's :func:`~repro.evalharness.runner.
execute_task` — deliberately so: the daemon's workers run the *same*
code path as ``bench``, with the same telemetry spans, checkpoint
scoping, and fault-injection points (``worker-crash`` / ``worker-hang``
keyed by task id, ``nan-logdensity`` inside the samplers), so chaos
plans written for the batch harness exercise the daemon unchanged.
"""

from __future__ import annotations

from typing import Any, Dict

from ..evalharness.runner import EvalTask, execute_task


def execute_request(task: EvalTask) -> Dict[str, Any]:
    """Run one admitted request's task in a pool worker."""
    return execute_task(task)
