"""Content fingerprints for the incremental analysis pipeline.

Every per-function artifact (lint bucket, AARA bound) is keyed by what it
actually depends on, so an edit invalidates exactly the artifacts whose
inputs changed:

* the **local fingerprint** of a function hashes its normalized source
  slice (per-line ``rstrip``, blank edge lines dropped) — whitespace-only
  edits and edits to *other* functions leave it untouched;
* the **cone fingerprint** hashes the ordered ``(name, local_fp)`` pairs
  of every function reachable through the call graph (computed by
  :func:`repro.analysis.callgraph.call_graph`), which is the exact input
  set of the AARA constraint build for that root.  All members of a
  strongly connected component reach each other, so an SCC invalidates
  as a unit by construction;
* the **interface fingerprint** hashes the ordered ``(name, arity, rec)``
  triples of the whole program — the cross-function facts the resolve
  pass consults (arity checks, forward-reference messages, name-set
  hints) without reading any body.

Slicing relies on the exact ``pos``/``name_pos`` spans the parser records
(:func:`repro.lang.parser.function_line_spans`); programs that cannot be
sliced unambiguously (duplicate top-level names, missing positions) get
``fingerprint_functions() -> None`` and the incremental engine falls back
to whole-program granularity.

Fingerprints do not depend on where a slice starts: blank lines inserted
above a function leave them unchanged.  Each slice's first line is
recorded beside them (:attr:`Fingerprints.lines`) for the artifacts that
quote positions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..lang.parser import ParseResult, function_line_spans
from .callgraph import call_graph, reachable, tarjan_scc

#: bump whenever a fingerprint-affecting change should invalidate every
#: persisted incremental artifact (the artifact store embeds this)
FINGERPRINT_VERSION = 1


def _digest(*parts: object) -> str:
    blob = json.dumps(parts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def normalize_slice(text: str) -> str:
    """Normalize one function's source slice for fingerprinting.

    CRLF line endings become LF, trailing whitespace per line is dropped,
    and blank edge lines are trimmed — the canonicalization
    :func:`repro.evalharness.adhoc.normalize_source` applies to whole
    programs, so a reformat that cannot change parse output cannot
    change the fingerprint either.  Unlike there, a lone CR stays: the
    lexer does not count it as a line break, so turning it into one would
    give two texts whose positions differ the same fingerprint.
    """
    lines = [ln.rstrip() for ln in text.replace("\r\n", "\n").split("\n")]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def program_fingerprint(source: str) -> str:
    """Whole-program content fingerprint (normalized source)."""
    from ..evalharness.adhoc import normalize_source

    return _digest("program", FINGERPRINT_VERSION, normalize_source(source))


@dataclass
class Fingerprints:
    """Per-function fingerprints plus the call-graph facts keyed off them."""

    interface_fp: str
    #: function name -> fingerprint of its own normalized slice
    local: Dict[str, str] = field(default_factory=dict)
    #: function name -> fingerprint of its reachable cone (ordered
    #: ``(name, local_fp)`` pairs in source order, the constraint build's
    #: exact input); SCC members share their cone set
    cone: Dict[str, str] = field(default_factory=dict)
    #: function name -> sorted names of its reachable cone
    cone_members: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    graph: Dict[str, Set[str]] = field(default_factory=dict)
    sccs: List[List[str]] = field(default_factory=list)
    #: source-order function names
    order: Tuple[str, ...] = ()
    #: function name -> first line of its slice (the line of its ``let``)
    lines: Dict[str, int] = field(default_factory=dict)


def fingerprint_functions(source: str, parsed: ParseResult) -> Optional[Fingerprints]:
    """Compute every fingerprint for one parsed program.

    Returns ``None`` when per-function slicing is ambiguous (duplicate
    top-level names or missing position spans) — callers fall back to
    whole-program granularity.
    """
    functions = list(parsed.functions)
    spans = function_line_spans(functions, source)
    if spans is None:
        return None
    lines = source.split("\n")
    order = tuple(f.name for f in functions)
    local: Dict[str, str] = {}
    for name in order:
        start, end = spans[name]
        text = "\n".join(lines[start - 1 : end])
        local[name] = _digest("fn", FINGERPRINT_VERSION, name, normalize_slice(text))
    interface_fp = _digest(
        "interface",
        FINGERPRINT_VERSION,
        [(f.name, len(f.params), bool(f.recursive)) for f in functions],
    )
    graph = call_graph(functions)
    fps = Fingerprints(
        interface_fp=interface_fp,
        local=local,
        graph=graph,
        sccs=tarjan_scc(graph),
        order=order,
        lines={name: spans[name][0] for name in order},
    )
    for name in order:
        members = reachable(graph, [name]) | {name}
        ordered = tuple(n for n in order if n in members)
        fps.cone_members[name] = ordered
        fps.cone[name] = _digest(
            "cone", FINGERPRINT_VERSION, name, [(n, local[n]) for n in ordered]
        )
    return fps
