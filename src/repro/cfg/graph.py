"""CFG data structure."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cfront.nodes import Node

if TYPE_CHECKING:
    import networkx as nx


class EdgeLabel(enum.Enum):
    """Why control can move from one node to another."""

    NEXT = "next"      # unconditional fall-through
    TRUE = "true"      # predicate evaluated true
    FALSE = "false"    # predicate evaluated false
    BACK = "back"      # loop back edge
    CALL = "call"      # statement contains this call expression


@dataclass
class CFGNode:
    """One control-flow node.

    ``ast`` is ``None`` only for the synthetic entry/exit nodes; every
    other node points at the statement, predicate expression, or call
    expression it represents.
    """

    nid: int
    ast: Node | None
    role: str  # "entry" | "exit" | "stmt" | "cond" | "init" | "inc" | "call"

    @property
    def kind(self) -> str:
        return self.ast.kind if self.ast is not None else self.role


@dataclass
class CFGEdge:
    src: int
    dst: int
    label: EdgeLabel


@dataclass
class CFG:
    """A statement-level control-flow graph."""

    nodes: list[CFGNode] = field(default_factory=list)
    edges: list[CFGEdge] = field(default_factory=list)
    entry: int = 0
    exit: int = 1

    # -- construction helpers (used by the builder) --------------------------

    def add_node(self, ast: Node | None, role: str) -> int:
        nid = len(self.nodes)
        self.nodes.append(CFGNode(nid=nid, ast=ast, role=role))
        return nid

    def add_edge(self, src: int, dst: int, label: EdgeLabel = EdgeLabel.NEXT) -> None:
        self.edges.append(CFGEdge(src=src, dst=dst, label=label))

    # -- queries ---------------------------------------------------------------

    def succ(self, nid: int) -> list[tuple[int, EdgeLabel]]:
        return [(e.dst, e.label) for e in self.edges if e.src == nid]

    def pred(self, nid: int) -> list[tuple[int, EdgeLabel]]:
        return [(e.src, e.label) for e in self.edges if e.dst == nid]

    def node_for(self, ast: Node) -> CFGNode | None:
        """The CFG node representing a given AST node, if any."""
        for node in self.nodes:
            if node.ast is ast:
                return node
        return None

    @property
    def ast_nodes(self) -> list[Node]:
        """AST nodes shared between the AST and this CFG (paper §5.1.2)."""
        return [n.ast for n in self.nodes if n.ast is not None]

    def to_networkx(self) -> nx.DiGraph:
        """Export for dominator/reachability analyses and tests."""
        import networkx as nx

        g = nx.DiGraph()
        for node in self.nodes:
            g.add_node(node.nid, role=node.role, kind=node.kind)
        for edge in self.edges:
            g.add_edge(edge.src, edge.dst, label=edge.label.value)
        return g

    def reachable_from_entry(self) -> set[int]:
        import networkx as nx

        g = self.to_networkx()
        return {self.entry} | set(nx.descendants(g, self.entry))

    def back_edges(self) -> list[CFGEdge]:
        return [e for e in self.edges if e.label is EdgeLabel.BACK]
