"""Merge per-process trace files and export Chrome ``trace_event`` JSON.

Each process in a traced run appends events to its own
``trace-<pid>.jsonl`` (see :mod:`repro.telemetry`); this module merges
them and converts to the Trace Event Format understood by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev):

* spans become complete events (``"ph": "X"``) with microsecond
  timestamps and durations, the span's stage as the category, and its
  attributes (plus id/parent links and CPU time) under ``args``;
* counters and gauges become counter events (``"ph": "C"``);
* each pid gets a ``process_name`` metadata event so the Perfetto track
  list reads "repro <pid>" instead of bare numbers.

A worker killed mid-run (watchdog, injected crash) leaves a valid
prefix of lines; :func:`load_events` skips anything unparsable, so one
dead worker can never poison the merged trace.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..atomic import atomic_write_text
from . import TRACE_FILE_PREFIX, TRACE_FILE_SUFFIX

#: microseconds per second (trace_event timestamps are in µs)
_US = 1e6


def trace_files(trace_dir: os.PathLike) -> List[Path]:
    """All per-process trace files in a trace directory, sorted by name."""
    root = Path(trace_dir)
    return sorted(root.glob(f"{TRACE_FILE_PREFIX}*{TRACE_FILE_SUFFIX}"))


def load_events(trace_dir: os.PathLike) -> List[Dict[str, Any]]:
    """Merge every per-pid file into one time-ordered event list.

    Unparsable lines (a worker killed at the wrong instant, disk-full
    truncation) are skipped, not fatal.
    """
    events: List[Dict[str, Any]] = []
    for path in trace_files(trace_dir):
        try:
            text = path.read_text()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict) and "ev" in event:
                events.append(event)
    events.sort(key=lambda e: e.get("ts", 0.0))
    return events


def chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert merged events to a Chrome ``trace_event`` document."""
    out: List[Dict[str, Any]] = []
    pids = []
    for event in events:
        pid = int(event.get("pid", 0))
        if pid not in pids:
            pids.append(pid)
        tid = int(event.get("tid", 0)) % 2**31  # thread idents overflow int32
        ts = float(event.get("ts", 0.0)) * _US
        if event["ev"] == "span":
            args = dict(event.get("args") or {})
            args["id"] = event.get("id")
            args["parent"] = event.get("parent")
            args["cpu_ms"] = round(float(event.get("cpu", 0.0)) * 1e3, 3)
            out.append(
                {
                    "ph": "X",
                    "name": event["name"],
                    "cat": event.get("stage", "span"),
                    "ts": ts,
                    "dur": float(event.get("dur", 0.0)) * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        elif event["ev"] in ("counter", "gauge"):
            out.append(
                {
                    "ph": "C",
                    "name": event["name"],
                    "cat": event["ev"],
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {event["name"]: float(event.get("value", 0.0))},
                }
            )
    for pid in pids:
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro {pid}"},
            }
        )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    trace_dir: os.PathLike, out_path: Optional[os.PathLike] = None
) -> int:
    """Merge ``trace_dir`` and write ``trace.json``; returns event count.

    The write is atomic (temp file + ``os.replace``) so re-merging over
    a previous export can never leave a half-written document.
    """
    document = chrome_trace(load_events(trace_dir))
    out = Path(out_path) if out_path is not None else Path(trace_dir) / "trace.json"
    atomic_write_text(out, json.dumps(document))
    return len(document["traceEvents"])
