"""One checksummed on-disk store for the pipeline's expensive results.

Two key families share a cache directory: ``task`` (Table 1 task
outcomes, :class:`~repro.evalharness.runner.ResultCache`) and
``incremental`` (per-function artifacts of the edit loop,
:class:`~repro.analysis.incremental.ArtifactStore`).  Each entry is one
``<key>.json`` file holding ``{family, version, key, sha256, value}``,
where ``sha256`` covers the sorted-key JSON of ``value``; entries are
published with :func:`~repro.atomic.atomic_write_text`, so readers never
see a torn file.

A load answers with the value or with a miss, never with an exception:

* no file: a miss;
* another family or version, including a layout from before this store
  (no ``version`` field): stale, not corrupt, so the file is swept;
* anything else that fails verification (undecodable bytes, not a JSON
  object, a key or checksum mismatch, no value): the file is
  *quarantined* as ``<key>.json.quarantined`` with one counter and one
  warning, so the evidence survives while the caller recomputes.

:meth:`Store.gc` and :meth:`Store.wipe` act on the whole directory,
across every family in it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

from . import faultinject, telemetry
from .atomic import atomic_write_text
from .telemetry.console import get_console


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except OSError:
        return False
    return True


class Store:
    """Content-addressed JSON entries of one ``family`` at one ``version``."""

    def __init__(self, root: os.PathLike, family: str, version: int) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.family = family
        self.version = version

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Any]:
        """The verified value stored under ``key``, or ``None``."""
        path = self.path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            # decoding happens here, inside the guard: a flipped high bit is
            # a UnicodeDecodeError, which is a ValueError like bad JSON
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("entry is not a JSON object")
            if entry.get("family") != self.family or entry.get("version") != self.version:
                _unlink(path)
                return None
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            if "value" not in entry:
                raise ValueError("entry has no value")
            value = entry["value"]
            if entry.get("sha256") != _digest(value):
                raise ValueError("payload checksum mismatch")
        except ValueError as exc:
            self._quarantine(path, str(exc))
            return None
        return value

    def _quarantine(self, path: Path, reason: str) -> None:
        """Set a failed entry aside (don't delete the evidence)."""
        target = path.with_name(path.name + ".quarantined")
        try:
            os.replace(path, target)
        except OSError:
            return
        telemetry.counter("cache.quarantined", 1, family=self.family, entry=path.name)
        get_console().warn(
            f"{self.family} cache entry {path.name} failed integrity check "
            f"({reason}); quarantined as {target.name} and recomputing"
        )

    def store(self, key: str, value: Any, fault_key: Optional[str] = None) -> None:
        """Publish ``value`` under ``key``.

        ``fault_key`` names the write to the ``cache-torn`` and
        ``cache-bitflip`` fault-injection sites; without one the write is
        never faulted.
        """
        entry = {
            "family": self.family,
            "version": self.version,
            "key": key,
            "sha256": _digest(value),
            "value": value,
        }
        blob = json.dumps(entry)
        final = self.path(key)
        if fault_key is not None:
            if faultinject.fault_point(faultinject.CACHE_TORN, fault_key):
                # injected torn write: a truncated entry at the *final* path,
                # as a crashed non-atomic writer would have left behind
                final.write_text(blob[: max(1, len(blob) // 3)])
                return
            if faultinject.fault_point(faultinject.CACHE_BITFLIP, fault_key):
                # injected bit rot: flip one payload byte so the entry still
                # parses-or-not unpredictably but always fails the checksum
                mid = len(blob) // 2
                blob = blob[:mid] + chr(ord(blob[mid]) ^ 0x01) + blob[mid + 1 :]
        atomic_write_text(final, blob)

    def wipe(self) -> int:
        """Delete all entries (plus orphaned temp and quarantined files);
        returns the number removed."""
        patterns = ("*.json", "*.tmp", "*.json.quarantined")
        return sum(_unlink(path) for pattern in patterns for path in self.root.glob(pattern))

    def gc(
        self,
        max_bytes: Optional[int] = None,
        tmp_age_seconds: float = 60.0,
        drop_quarantined: bool = False,
    ) -> Dict[str, int]:
        """Bound the directory's disk footprint.

        Sweeps orphaned ``*.tmp`` files older than ``tmp_age_seconds``
        (younger ones may belong to a live writer), optionally drops
        quarantined entries, and — when ``max_bytes`` is set — evicts
        least-recently-used entries (by mtime) until under the cap.
        """
        stats = {"tmp_removed": 0, "quarantined_removed": 0, "evicted": 0, "kept": 0, "bytes": 0}
        now = time.time()
        for path in self.root.glob("*.tmp"):
            with contextlib.suppress(OSError):
                if now - path.stat().st_mtime >= tmp_age_seconds:
                    stats["tmp_removed"] += _unlink(path)
        if drop_quarantined:
            quarantined = self.root.glob("*.json.quarantined")
            stats["quarantined_removed"] = sum(_unlink(path) for path in quarantined)
        entries = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _mtime, size, _path in entries)
        kept = len(entries)
        if max_bytes is not None and total > max_bytes:
            for _mtime, size, path in sorted(entries, key=lambda e: e[0]):
                if total <= max_bytes:
                    break
                if _unlink(path):
                    total -= size
                    kept -= 1
                    stats["evicted"] += 1
        stats["kept"] = kept
        stats["bytes"] = total
        if stats["evicted"]:
            telemetry.counter("cache.evicted", stats["evicted"])
        return stats
