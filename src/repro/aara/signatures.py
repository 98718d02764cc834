"""Function signatures and call-graph structure for AARA type inference.

A :class:`FunSignature` is a resource-annotated arrow type
``<Γ, p0> -> <a, q0>`` whose coefficients are LP expressions.  Recursion is
*resource-monomorphic within an SCC instantiation* but each SCC carries a
chain of **cost-free** signature levels (Hoffmann–Hofmann 2010): a
recursive call at level ℓ may superpose the level-ℓ signature with the
level-(ℓ+1) cost-free signature, which is how e.g. insertion sort obtains
its quadratic bound.  Calls *across* SCCs instantiate a fresh copy of the
callee's derivation, giving full resource polymorphism for non-recursive
calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import networkx as nx

from .annot import AnnType
from ..lang import ast as A
from ..lang.builtins import is_builtin
from ..lp import LinExpr


@dataclass
class FunSignature:
    """Resource-annotated signature ``params; p0 ⊢ f : <result, q0>``."""

    fname: str
    params: Tuple[AnnType, ...]
    p0: LinExpr
    result: AnnType
    q0: LinExpr
    level: int = 0

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        return f"{self.fname}[L{self.level}]: <({ps}); {self.p0}> -> <{self.result}; {self.q0}>"


def call_graph(program: A.Program) -> "nx.DiGraph":
    """Directed graph of calls between top-level functions (builtins excluded)."""
    graph = nx.DiGraph()
    for fdef in program:
        graph.add_node(fdef.name)
    for fdef in program:
        for node in fdef.body.walk():
            if isinstance(node, A.App) and not is_builtin(node.fname) and node.fname in program:
                graph.add_edge(fdef.name, node.fname)
    return graph


@dataclass(frozen=True)
class CallStructure:
    """The call-graph facts AARA instantiation reads, for one program."""

    #: each function's strongly-connected component
    sccs: Dict[str, frozenset]
    #: functions that are (mutually) recursive
    recursive: frozenset


def call_structure(program: A.Program) -> CallStructure:
    """SCCs and self-recursion of ``program``, computed once per program.

    A function is in a non-trivial SCC with itself only if it is actually
    (mutually) recursive; non-recursive functions map to singleton frozen
    sets that are treated as *external* at their call sites.  Programs are
    built, never edited, so the result is kept on the program (outside its
    dataclass fields, which equality and ``repr`` read) for every later LP
    build over it.
    """
    structure = vars(program).get("_call_structure")
    if structure is None:
        sccs: Dict[str, frozenset] = {}
        for component in nx.strongly_connected_components(call_graph(program)):
            members = frozenset(component)
            for fname in component:
                sccs[fname] = members
        recursive = frozenset(name for name in sccs if is_self_recursive(program, name, sccs))
        structure = CallStructure(sccs, recursive)
        vars(program)["_call_structure"] = structure
    return structure


def scc_of(program: A.Program) -> Dict[str, frozenset]:
    """Map each function to its strongly-connected component."""
    return dict(call_structure(program).sccs)


def is_self_recursive(program: A.Program, fname: str, sccs: Dict[str, frozenset]) -> bool:
    members = sccs[fname]
    if len(members) > 1:
        return True
    # singleton: recursive iff it calls itself
    for node in program[fname].body.walk():
        if isinstance(node, A.App) and node.fname == fname:
            return True
    return False


def dependency_order(program: A.Program) -> List[str]:
    """Function names in reverse-topological (callee-first) SCC order."""
    graph = call_graph(program)
    condensation = nx.condensation(graph)
    order: List[str] = []
    for scc_id in reversed(list(nx.topological_sort(condensation))):
        order.extend(sorted(condensation.nodes[scc_id]["members"]))
    return order
