"""Fingerprint-keyed incremental analysis: lint + AARA bounds per function.

The batch pipeline re-parses, re-lints and re-solves a whole program on
every invocation.  This module makes the *edit loop* cheap instead: each
function's lint bucket and conventional-AARA verdict is an artifact keyed
by the fingerprints of exactly what it depends on
(:mod:`repro.analysis.fingerprint`), persisted as the ``incremental`` key
family of the checksummed store :mod:`repro.store`, beside the harness's
task results.  Editing one function therefore recomputes only its
strongly connected component and its reverse-call-graph dependents;
everything else is served from disk, byte-identical to a cold run.

Artifact soundness per stage:

* **lint buckets** — a function's diagnostics are keyed by its cone
  fingerprint (own slice + every reachable callee, SCCs as a unit: the
  usage/recursion passes read nothing else), the program interface
  fingerprint (the resolve pass checks arities and name order without
  reading bodies), the resolved entry root and the function's
  reachability from it (the only cross-function facts the deadcode and
  statlint passes consult), and the function's first line: its
  diagnostics lie inside its own slice, so that line and the slice's
  content fix their positions.  Program-level diagnostics (``R016``,
  which has no position) get their own bucket keyed by interface + entry.
* **bound artifacts** — keyed by the cone fingerprint, the degree cap and
  the LP-size budget caps;
  :func:`repro.aara.analyze.run_conventional_function` restricts the
  program to the cone before normalize/typecheck/LP so the verdict is a
  pure function of exactly those inputs.  Only verdicts reached before
  any LP solve (:data:`_POSITIONED`) quote source positions, such as
  R042's ``(at l:c)``; their artifacts also record the first line of
  every cone member, and a load after the cone has moved recomputes them
  (no LP) instead of replaying stale positions.

Programs that cannot be sliced per function (duplicate top-level names,
missing spans) or that fail to parse fall back to whole-program
granularity — still correct, just not incremental.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import LexError, ParseError, ReproError, SourceError
from ..lang.parser import ParseResult, parse_program_ex
from ..store import Store
from .deadcode import entry_function
from .callgraph import reachable
from .diagnostics import Diagnostic, Span, from_source_error, to_json
from .engine import PASSES
from .fingerprint import FINGERPRINT_VERSION, Fingerprints, fingerprint_functions

#: bump to invalidate every persisted incremental artifact
ARTIFACT_VERSION = 2

#: key-family marker baked into every artifact key and payload, keeping
#: the family disjoint from EvalTask result keys sharing the directory
ARTIFACT_FAMILY = "incremental"


def artifact_key(stage: str, payload: Dict[str, Any]) -> str:
    """Content hash for one artifact; the family/version are part of it."""
    doc = {
        "family": ARTIFACT_FAMILY,
        "artifact_version": ARTIFACT_VERSION,
        "fingerprint_version": FINGERPRINT_VERSION,
        "stage": stage,
        **payload,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()


class ArtifactStore(Store):
    """Incremental artifacts: the ``incremental`` family of
    :class:`repro.store.Store`.

    Artifacts share the cache directory with task results, so ``cache
    gc`` sweeps and LRU-evicts them alike, and a corrupt artifact is
    quarantined and recomputed: bit rot degrades to recomputation, never
    to a wrong answer.
    """

    def __init__(self, root: os.PathLike) -> None:
        super().__init__(root, ARTIFACT_FAMILY, ARTIFACT_VERSION)

    # own class attributes, not inherited ones: a profiler that patches
    # them here and later restores them finds them in this class's namespace
    load = Store.load
    store = Store.store


# ---------------------------------------------------------------------------
# Diagnostic / verdict (de)serialization
# ---------------------------------------------------------------------------


def _diag_doc(d: Diagnostic) -> Dict[str, Any]:
    """Path-independent JSON for one diagnostic (path is rehydrated on
    load so one artifact serves the same content at any display path)."""
    return {
        "code": d.code,
        "severity": d.severity,
        "message": d.message,
        "line": None if d.span is None else d.span.line,
        "col": None if d.span is None else d.span.col,
        "length": None if d.span is None else d.span.length,
        "function": d.function,
        "notes": list(d.notes),
    }


def _diag_from_doc(doc: Dict[str, Any], path: str) -> Diagnostic:
    span = None
    if doc.get("line") is not None:
        span = Span(int(doc["line"]), int(doc["col"]), int(doc.get("length") or 1))
    return Diagnostic(
        code=doc["code"],
        severity=doc["severity"],
        message=doc["message"],
        span=span,
        path=path,
        function=doc.get("function"),
        notes=tuple(doc.get("notes") or ()),
    )


def _diag_order(d: Diagnostic) -> Tuple:
    """A total order over diagnostics, so cache-assembled and freshly
    computed lists agree even among same-position ties."""
    return (*d.sort_key(), d.severity, d.message, d.function or "", d.notes)


def _verdict_doc(verdict) -> Dict[str, Any]:
    """Deterministic JSON for a :class:`ConventionalVerdict` (timing
    dropped — artifacts must be byte-identical across runs)."""
    from ..inference.serialize import bound_to_json

    return {
        "status": verdict.status,
        "degree": verdict.degree,
        "detail": verdict.detail,
        "feasible_degrees": list(verdict.feasible_degrees),
        "bound": None if verdict.bound is None else bound_to_json(verdict.bound),
        "describe": None if verdict.bound is None else verdict.bound.describe(),
    }


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass
class StageStats:
    reused: Tuple[str, ...] = ()
    recomputed: Tuple[str, ...] = ()


@dataclass
class IncrementalResult:
    """One analysis cycle's output plus exact artifact reuse accounting."""

    path: str
    entry: Optional[str]
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: function name -> verdict doc (source order); see :func:`_verdict_doc`
    bounds: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    lint: StageStats = field(default_factory=StageStats)
    bound_stage: StageStats = field(default_factory=StageStats)
    #: 'function' | 'program' (unsliceable fallback) | 'parse-error'
    granularity: str = "function"
    fingerprints: Optional[Fingerprints] = None
    #: function name -> 1-based (line, col) of its name token (hint anchors)
    positions: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def reused(self) -> int:
        return len(self.lint.reused) + len(self.bound_stage.reused)

    @property
    def recomputed(self) -> int:
        return len(self.lint.recomputed) + len(self.bound_stage.recomputed)

    def document(self) -> Dict[str, Any]:
        """The byte-comparable product: diagnostics JSON + bounds."""
        return {"diagnostics": to_json(self.diagnostics), "bounds": self.bounds}


#: sentinel bucket name for program-level diagnostics (R016 &c.)
_PROGRAM_BUCKET = "<program>"

#: verdict statuses decided before any LP solve: the R042/R043 guard and
#: front-end errors.  Their details may quote source positions, so their
#: artifacts hold only while the cone stays where it was computed
_POSITIONED = ("unboundable", "front-end-error")


def _cone_lines(fps: Fingerprints, name: str) -> List[int]:
    return [fps.lines[member] for member in fps.cone_members[name]]


def _in_place(value: Dict[str, Any], fps: Fingerprints, name: str) -> bool:
    """Does a loaded bound artifact still hold where ``name``'s cone sits?

    Strips the recorded ``lines`` from ``value``: they key the artifact's
    validity, not the verdict."""
    lines = value.pop("lines", None)
    return lines is None or lines == _cone_lines(fps, name)


class IncrementalEngine:
    """Per-function incremental lint + conventional-AARA bounds.

    ``store=None`` disables persistence — every stage recomputes, which
    is exactly the "cold full analysis" the byte-identity tests compare
    against.  ``budget`` caps the front end (R001/R002/R004 diagnostics
    instead of hangs on hostile files) and the LP size; both are part of
    the artifact keys they influence.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        max_degree: int = 3,
        budget=None,
    ) -> None:
        self.store = store
        self.max_degree = int(max_degree)
        self.budget = budget

    # -- artifact keys ------------------------------------------------------

    def _lp_caps(self) -> Optional[List[Optional[int]]]:
        if self.budget is None:
            return None
        return [
            getattr(self.budget, "lp_variables", None),
            getattr(self.budget, "lp_constraints", None),
        ]

    def _lint_fn_key(self, fps: Fingerprints, name: str, root, live) -> str:
        return artifact_key(
            "lint-fn",
            {
                "fn": name,
                "line": fps.lines[name],
                "cone": fps.cone[name],
                "interface": fps.interface_fp,
                "root": root,
                "reachable": name in live,
            },
        )

    def _lint_prog_key(self, fps: Fingerprints, entry, root) -> str:
        return artifact_key(
            "lint-prog",
            {"interface": fps.interface_fp, "entry": entry, "root": root},
        )

    def _bound_key(self, fps: Fingerprints, name: str) -> str:
        return artifact_key(
            "bound",
            {
                "fn": name,
                "cone": fps.cone[name],
                "max_degree": self.max_degree,
                "lp_caps": self._lp_caps(),
            },
        )

    # -- pipeline -----------------------------------------------------------

    def analyze(
        self,
        source: str,
        path: str = "<input>",
        entry: Optional[str] = None,
        want_bounds: bool = True,
    ) -> IncrementalResult:
        result, parsed = self._front_end(source, path, entry, write=True)
        if result.granularity == "program" and want_bounds:
            names = tuple(dict.fromkeys(f.name for f in parsed.functions))
            result.bound_stage = StageStats(recomputed=names)
            for name in names:
                result.bounds[name] = self._compute_bound(
                    parsed, name, self._cone_errors(result.diagnostics, None, name)
                )
        elif result.granularity == "function":
            if want_bounds:
                self._bound_stage(parsed, result.fingerprints, result)
            telemetry.counter("incr.reused", result.reused)
            telemetry.counter("incr.recomputed", result.recomputed)
        return result

    def lint(
        self, source: str, path: str = "<input>", entry: Optional[str] = None
    ) -> IncrementalResult:
        """The read-only front end: one budgeted parse, one fingerprint
        pass, and the diagnostics from the stored lint buckets when all
        are present, else from the lint passes over that same parse.

        Writes nothing, so callers that must not fill the store (the
        daemon's admission gate: rejected sources are not rate-limited)
        can use it; ``result.fingerprints`` serve
        :func:`peek_conventional_verdict` without a second parse.
        """
        return self._front_end(source, path, entry, write=False)[0]

    def _front_end(
        self, source: str, path: str, entry, write: bool
    ) -> Tuple[IncrementalResult, Optional[ParseResult]]:
        """Parse, fingerprint and lint; the parse is ``None`` when it failed."""
        with telemetry.span("incr.parse", path=path):
            try:
                parsed = parse_program_ex(
                    source,
                    max_chars=getattr(self.budget, "max_source_chars", None),
                    max_tokens=getattr(self.budget, "max_tokens", None),
                    max_depth=getattr(self.budget, "max_nesting_depth", None),
                )
            except (LexError, ParseError) as exc:
                return IncrementalResult(
                    path=path,
                    entry=entry,
                    diagnostics=[from_source_error(exc, path)],
                    granularity="parse-error",
                ), None
        positions = {
            f.name: (f.name_pos.line, f.name_pos.col)
            for f in parsed.functions
            if f.name_pos is not None
        }
        fps = fingerprint_functions(source, parsed)
        if fps is None:
            # unsliceable program: whole-program lint, no artifacts
            result = IncrementalResult(
                path=path, entry=entry, granularity="program", positions=positions
            )
            result.diagnostics = self._run_passes(parsed, entry, path)
            names = tuple(dict.fromkeys(f.name for f in parsed.functions))
            result.lint = StageStats(recomputed=names + (_PROGRAM_BUCKET,))
            return result, parsed
        root = entry_function(parsed.functions, entry)
        live = reachable(fps.graph, [root]) if root is not None else set()
        result = IncrementalResult(
            path=path,
            entry=entry,
            granularity="function",
            fingerprints=fps,
            positions=positions,
        )
        self._lint_stage(parsed, fps, path, entry, root, live, result, write)
        return result, parsed

    def _run_passes(self, parsed: ParseResult, entry, path) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for name, runner in PASSES:
            with telemetry.span(f"lint.{name}", path=path):
                diags.extend(runner(parsed, entry, path))
        diags.sort(key=_diag_order)
        return diags

    # -- lint stage ---------------------------------------------------------

    def _lint_stage(
        self, parsed: ParseResult, fps: Fingerprints, path, entry, root, live, result,
        write: bool,
    ) -> None:
        with telemetry.span("incr.lint", path=path):
            keys = {
                name: self._lint_fn_key(fps, name, root, live) for name in fps.order
            }
            prog_key = self._lint_prog_key(fps, entry, root)
            cached: Dict[str, Any] = {}
            if self.store is not None:
                for name, key in keys.items():
                    value = self.store.load(key)
                    if value is not None:
                        cached[name] = value
                prog_cached = self.store.load(prog_key)
            else:
                prog_cached = None
            if len(cached) == len(keys) and prog_cached is not None:
                diags: List[Diagnostic] = []
                for name in fps.order:
                    diags.extend(_diag_from_doc(doc, path) for doc in cached[name])
                diags.extend(_diag_from_doc(doc, path) for doc in prog_cached)
                diags.sort(key=_diag_order)
                result.diagnostics = diags
                result.lint = StageStats(
                    reused=tuple(fps.order) + (_PROGRAM_BUCKET,)
                )
                return
            # at least one bucket missed: run the (cheap, whole-program)
            # passes once and (when writing) refresh exactly the missing
            # buckets
            diags = self._run_passes(parsed, entry, path)
            result.diagnostics = diags
            buckets: Dict[str, List[Dict[str, Any]]] = {name: [] for name in fps.order}
            prog_bucket: List[Dict[str, Any]] = []
            for d in diags:
                if d.function in buckets:
                    buckets[d.function].append(_diag_doc(d))
                else:
                    prog_bucket.append(_diag_doc(d))
            reused = tuple(name for name in fps.order if name in cached)
            recomputed = tuple(name for name in fps.order if name not in cached)
            if prog_cached is None:
                recomputed = recomputed + (_PROGRAM_BUCKET,)
            else:
                reused = reused + (_PROGRAM_BUCKET,)
            result.lint = StageStats(reused=reused, recomputed=recomputed)
            if write and self.store is not None:
                for name in fps.order:
                    if name not in cached:
                        self.store.store(keys[name], buckets[name])
                if prog_cached is None:
                    self.store.store(prog_key, prog_bucket)

    # -- bound stage --------------------------------------------------------

    @staticmethod
    def _cone_errors(
        diagnostics: Sequence[Diagnostic], cone: Optional[Sequence[str]], name: str
    ) -> List[Diagnostic]:
        """Fatal front-end errors inside ``name``'s cone (R042/R043 are the
        conventional analyzer's own verdict to make, so they don't count)."""
        members = set(cone) if cone is not None else None
        return [
            d
            for d in diagnostics
            if d.severity == "error"
            and d.code not in ("R042", "R043")
            and (members is None or d.function is None or d.function in members)
        ]

    def _compute_bound(
        self, parsed: ParseResult, name: str, fatal: List[Diagnostic]
    ) -> Dict[str, Any]:
        from ..aara.analyze import run_conventional_function

        if fatal:
            first = fatal[0]
            return {
                "status": "front-end-error",
                "degree": 0,
                "detail": f"[{first.code}] {first.message}",
                "feasible_degrees": [],
                "bound": None,
                "describe": None,
            }
        try:
            verdict = run_conventional_function(
                parsed.functions, name, max_degree=self.max_degree, budget=self.budget
            )
        except SourceError as exc:
            d = from_source_error(exc)
            return {
                "status": "front-end-error",
                "degree": 0,
                "detail": f"[{d.code}] {d.message}",
                "feasible_degrees": [],
                "bound": None,
                "describe": None,
            }
        except ReproError as exc:
            return {
                "status": "front-end-error",
                "degree": 0,
                "detail": f"{type(exc).__name__}: {exc}",
                "feasible_degrees": [],
                "bound": None,
                "describe": None,
            }
        return _verdict_doc(verdict)

    def _bound_stage(
        self, parsed: ParseResult, fps: Fingerprints, result: IncrementalResult
    ) -> None:
        with telemetry.span("incr.bounds", path=result.path):
            reused: List[str] = []
            recomputed: List[str] = []
            for name in fps.order:
                key = self._bound_key(fps, name)
                value = self.store.load(key) if self.store is not None else None
                if value is not None and _in_place(value, fps, name):
                    result.bounds[name] = value
                    reused.append(name)
                    continue
                fatal = self._cone_errors(
                    result.diagnostics, fps.cone_members[name], name
                )
                value = self._compute_bound(parsed, name, fatal)
                result.bounds[name] = value
                recomputed.append(name)
                if self.store is not None:
                    if value["status"] in _POSITIONED:
                        value = dict(value, lines=_cone_lines(fps, name))
                    self.store.store(key, value)
            result.bound_stage = StageStats(
                reused=tuple(reused), recomputed=tuple(recomputed)
            )


# ---------------------------------------------------------------------------
# Server fast path
# ---------------------------------------------------------------------------


def peek_conventional_verdict(
    store: ArtifactStore,
    source: str,
    entry: Optional[str] = None,
    max_degree: int = 3,
    budget=None,
    fingerprints: Optional[Fingerprints] = None,
) -> Optional[Dict[str, Any]]:
    """A warm conventional verdict for ``source``'s entry, or ``None``.

    The admission-path probe behind ``POST /analyze {"source": ...}``:
    one artifact read — never an LP solve — so a hit costs milliseconds
    and a miss costs next to nothing.  ``fingerprints`` are ``source``'s
    own, from a parse the caller already made (the daemon's lint gate,
    :meth:`IncrementalEngine.lint`); without them ``source`` is parsed
    here under ``budget``.  Returns the verdict in the batch harness's
    ``_verdict_to_json`` shape (``runtime_seconds`` pinned to 0.0: the
    work was done in a previous editor/watch session).
    """
    engine = IncrementalEngine(store, max_degree=max_degree, budget=budget)
    fps = fingerprints
    if fps is None:
        try:
            parsed = parse_program_ex(
                source,
                max_chars=getattr(budget, "max_source_chars", None),
                max_tokens=getattr(budget, "max_tokens", None),
                max_depth=getattr(budget, "max_nesting_depth", None),
            )
        except (LexError, ParseError):
            return None
        fps = fingerprint_functions(source, parsed)
        if fps is None:
            return None
    # the entry, else the last definition (entry_function over the names)
    root = fps.order[-1] if entry is None else entry
    if root not in fps.cone:
        return None
    value = store.load(engine._bound_key(fps, root))
    if (
        value is None
        or value.get("status") == "front-end-error"
        or not _in_place(value, fps, root)
    ):
        return None
    return {
        "status": value["status"],
        "degree": value.get("degree", 0),
        "detail": value.get("detail", ""),
        "runtime_seconds": 0.0,
        "feasible_degrees": list(value.get("feasible_degrees") or ()),
        "bound": value.get("bound"),
    }
