"""Shared pieces of the benchmark: percentiles, run facts, work dirs, output."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout; every run removes its own subdirectory
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: the end-to-end metrics every workload prints, with their units
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("compute_s", "s"),
    ("stored_ms.p50", "ms"),
    ("stored_ms.p95", "ms"),
)

#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: the probe duration times are scaled to: a host on which the probe loop
#: takes 1 ms (about this 2-vCPU Xeon VM's usual speed)
REFERENCE_PROBE_S = 0.001
#: the probes within this long before an op and after it are averaged into
#: the host speed around it: one 1-ms probe alone is too noisy
PROBE_WINDOW_S = 0.1

MIB = float(1 << 20)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile fraction {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float], q: float) -> float:
    """:func:`nearest_rank`, refusing a tail with fewer than
    :data:`TAIL_MIN_BEYOND` samples beyond it."""
    rank = max(1, math.ceil(q * len(values)))
    if len(values) - rank < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has only "
            f"{len(values) - rank} beyond it (need {TAIL_MIN_BEYOND})"
        )
    return nearest_rank(values, q)


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 0.5)


def pooled(passes: Sequence[Sequence[float]], q: float) -> float:
    """Percentile ``q`` over every pass's samples pooled; a tail (``q`` above
    the median) keeps :func:`tail`'s rule on the pooled count."""
    values = [value for samples in passes for value in samples]
    return tail(values, q) if q > 0.5 else nearest_rank(values, q)


def total(intervals: Sequence[Tuple[float, float]]) -> float:
    """Summed length of ``(start, end)`` intervals, in seconds."""
    return sum(end - start for start, end in intervals)


def millis(intervals: Sequence[Tuple[float, float]]) -> List[float]:
    """Each ``(start, end)`` interval's length in milliseconds."""
    return [(end - start) * 1e3 for start, end in intervals]


def rss_mb(kb: int) -> float:
    """``ru_maxrss`` (KiB on Linux) in MB of 2**20 bytes."""
    return kb * 1024 / MIB


def self_peak_rss_mb() -> float:
    return rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def vm_size_bytes() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize in /proc/self/status")


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid``, parents before their children."""
    found: List[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/task/{current}/children") as handle:
                children = [int(child) for child in handle.read().split()]
        except (FileNotFoundError, ProcessLookupError):
            continue
        found.extend(children)
        pending.extend(children)
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Largest ``VmHWM`` of ``pid`` and its live descendants."""
    peak = 0.0
    for current in [pid, *descendants(pid)]:
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, rss_mb(int(line.split()[1])))
        except (FileNotFoundError, ProcessLookupError):
            continue
    return peak


class HostProbe:
    """Samples the host's speed between the workload's ops.

    The host's CPU speed swings by tens of percent within seconds, and the
    program's times swing with it.  A helper process (``probe.py``) times a
    fixed 1-ms loop whenever :meth:`sample` is called: the workloads call it
    before every timed op, so probes fall between ops, never inside one.
    :meth:`at_reference` then scales an op's time by the host speed probed
    around it: the time the same work takes on a host where the probe takes
    :data:`REFERENCE_PROBE_S`.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self.when: List[float] = []  # when each kept probe started
        self.took: List[float] = []  # and how long its loop took
        try:
            self._ask()  # the first probe warms the helper up and is not kept
        except BaseException:
            self.proc.kill()
            self.stop()
            raise

    def _ask(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe exited with {self.proc.poll()}")
        return float(line)

    def sample(self) -> None:
        self.when.append(time.perf_counter())
        self.took.append(self._ask())

    def add(self, when: Sequence[float], took: Sequence[float]) -> None:
        """Take in probes another process of the run made around its ops."""
        merged = sorted(zip([*self.when, *when], [*self.took, *took]))
        self.when = [at for at, _ in merged]
        self.took = [seconds for _, seconds in merged]

    def at_reference(self, start: float, end: float) -> float:
        """``end - start`` over the host speed around it, times the
        reference: the speed is the mean of two means, of the probes within
        :data:`PROBE_WINDOW_S` before ``start`` and of those within it after
        ``end``, each side taking at least its nearest probe."""
        before = bisect.bisect_right(self.when, start)
        after = bisect.bisect_left(self.when, end)
        if before == 0 or after == len(self.when):
            raise ValueError(f"no probe on both sides of [{start}, {end}]")
        first = min(bisect.bisect_left(self.when, start - PROBE_WINDOW_S), before - 1)
        last = max(bisect.bisect_right(self.when, end + PROBE_WINDOW_S), after + 1)
        speed = (statistics.fmean(self.took[first:before])
                 + statistics.fmean(self.took[after:last])) / 2
        return (end - start) * REFERENCE_PROBE_S / speed

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def digest(value: Any) -> str:
    """Stable SHA-256 of a JSON-able value (the outputs fingerprint)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_facts(seed: int) -> Dict[str, Any]:
    """What the numbers depend on besides the code: host and libraries."""
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    blas["threads"] = _blas_threads()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _blas_threads() -> Optional[int]:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class WorkDir:
    """A fresh directory under :data:`WORK_ROOT`, removed on exit."""

    def __init__(self, label: str) -> None:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = os.path.join(WORK_ROOT, f"{label}-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.path)
        self._n = 0

    def fresh(self, name: str) -> str:
        """A new, empty subdirectory (cache, journal or artifact store)."""
        self._n += 1
        path = os.path.join(self.path, f"{name}-{self._n}")
        os.makedirs(path)
        return path

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Ops:
    """Per-run operation tally: every op is attempted, and it either
    passes its oracle or is recorded as failed with a reason."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str, known: bool = False) -> None:
        """A failed op; ``known`` marks the documented known defect (see
        README), which counts as failed but leaves the run correct."""
        self.attempted += 1
        self.failed += 1
        if not known:
            self.problems.append(what)

    def check(self, condition: bool, what: str) -> bool:
        """Record an oracle failure outside any op (does not count as an op)."""
        if not condition:
            self.problems.append(what)
        return condition

    @property
    def correct(self) -> bool:
        return not self.problems


def emit(
    workload: str,
    ops: Ops,
    metrics: Dict[str, float],
    units: Dict[str, str],
    facts: Dict[str, Any],
    table: Sequence[Sequence[Any]] = (),
    notes: Sequence[str] = (),
) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    out = sys.stdout
    out.write(f"perfbench {workload}: {json.dumps(facts, sort_keys=True)}\n")
    for row in table:
        out.write("  " + "  ".join(str(cell) for cell in row) + "\n")
    for line in notes:
        out.write(f"  {line}\n")
    for problem in ops.problems:
        out.write(f"  FAILED CHECK: {problem}\n")
    for name, value in metrics.items():
        out.write(f"  {name:28s} {value:14.6f} {units[name]}\n")
    doc = {
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    out.write(json.dumps(doc) + "\n")
    out.flush()
