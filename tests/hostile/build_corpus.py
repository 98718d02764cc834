"""Materialize the full hostile corpus into a directory.

Five corpus members are generated rather than checked in, because their
whole point is bulk:

* ``token_bomb.raml`` — a single expression of ~120k tokens, tripping
  the lexer's token budget (R001) at the admission lint gate.
* ``match_nest.raml`` — match expressions nested far beyond the parser's
  depth budget, tripping the R004 nesting diagnostic (and, before that
  budget existed, a Python ``RecursionError``).
* ``chain_bomb.raml`` — a ``+`` chain of 1,000 terms: few tokens, but a
  left-nested sum ten times deeper than the untrusted nesting budget,
  tripping R004 (before operator chains were charged against that
  budget, a ``RecursionError`` in lint or compile).
* ``chain_nest.raml`` / ``list_nest.raml`` — 40-operator ``+`` chains
  nested in brackets, and 41-element list literals nested in list
  literals, 30 levels each: every level is shallow, but the tree is
  ~1,200 deep, tripping R004 (while the parser charged a chain or literal
  only against the depth at which it starts, a ``RecursionError`` in
  lint).

Usage::

    python tests/hostile/build_corpus.py /tmp/hostile

The static members (``spin.raml``, ``deep_call.raml``,
``value_bomb.raml``, ``lp_blowup.raml``) are copied alongside, so the
output directory is a complete corpus for ``hybrid-aara loadgen
--hostile`` and the CI hostile-mix soak.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

STATIC_PROGRAMS = (
    "spin.raml",
    "deep_call.raml",
    "value_bomb.raml",
    "lp_blowup.raml",
)


def token_bomb(terms: int = 60_000) -> str:
    """One expression of ``2 * terms`` tokens (far over the 100k default
    token budget at the default 60k)."""
    return "let main n = Raml.stat (n" + " + 1" * terms + ")\n"


def match_nest(depth: int = 300) -> str:
    """Match expressions nested ``depth`` deep (default: 3x the untrusted
    nesting budget)."""
    head = "let rec grind xs =\n"
    body = []
    indent = "  "
    for level in range(depth):
        body.append(
            f"{indent}match xs with | [] -> {level} | hd :: tl ->\n"
        )
        indent += " "
    body.append(f"{indent}0\n")
    return head + "".join(body) + "let main xs = Raml.stat (grind xs)\n"


def chain_nest(levels: int = 30, terms: int = 40) -> str:
    """``levels`` bracketed ``+`` chains, each the first operand of the
    next: ``((n + 1 + …) + 1 + …)``."""
    inner = "n"
    for _ in range(levels):
        inner = "(" + inner + " + 1" * terms + ")"
    return "let main n = Raml.stat " + inner + "\n"


def list_nest(levels: int = 30, width: int = 40) -> str:
    """``levels`` list literals, each the last element of the next:
    ``[[]; …; [[]; …; []]]``."""
    inner = "[]"
    for _ in range(levels):
        inner = "[" + "[]; " * width + inner + "]"
    return "let size xs = 0\nlet main n = Raml.stat (size " + inner + ")\n"


def corpus_programs(token_terms: int = 60_000, nest_depth: int = 300):
    """``{name: source}`` for the complete corpus (static + generated)."""
    programs = {}
    for name in STATIC_PROGRAMS:
        with open(os.path.join(HERE, name), "r") as handle:
            programs[name] = handle.read()
    programs["token_bomb.raml"] = token_bomb(token_terms)
    programs["match_nest.raml"] = match_nest(nest_depth)
    programs["chain_bomb.raml"] = token_bomb(1_000)
    programs["chain_nest.raml"] = chain_nest()
    programs["list_nest.raml"] = list_nest()
    return programs


def materialize(directory: str) -> list:
    """Write the full corpus into ``directory``; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, source in corpus_programs().items():
        dst = os.path.join(directory, name)
        with open(dst, "w") as handle:
            handle.write(source)
        paths.append(dst)
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: build_corpus.py <output-dir>", file=sys.stderr)
        raise SystemExit(2)
    written = materialize(sys.argv[1])
    print(f"wrote {len(written)} hostile program(s) to {sys.argv[1]}")
