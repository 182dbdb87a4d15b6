"""Heterogeneous graph container.

A :class:`HetGraph` is the G = (V, E, A, R) object of paper section 5.2:
``A`` is the set of node types (Clang-style AST kinds), ``R`` the set of
edge types.  Three forward edge types exist — AST tree edges, merged CFG
edges, and lexical token-neighbour edges — and each has a distinct
reverse type so message passing can flow both ways while the model still
knows the direction (HGT attention matrices are per edge type).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx


class EdgeType(str, enum.Enum):
    """The heterogeneous edge types R of the aug-AST."""

    AST = "ast"            # parent -> child tree edge
    AST_REV = "ast_rev"    # child -> parent
    CFG = "cfg"            # control may flow src -> dst
    CFG_REV = "cfg_rev"
    LEX = "lex"            # leaf -> next leaf in token order
    LEX_REV = "lex_rev"


#: Canonical relation order used by models for parameter indexing.
RELATIONS: tuple[EdgeType, ...] = (
    EdgeType.AST,
    EdgeType.AST_REV,
    EdgeType.CFG,
    EdgeType.CFG_REV,
    EdgeType.LEX,
    EdgeType.LEX_REV,
)

#: Positional attribute values: the left/right/ordered-child attribute of
#: section 5.1.1.  Child indices are clipped into this range.
NODE_POSITIONS = 8


@dataclass
class HetGraph:
    """A heterogeneous code graph for one loop.

    Attributes
    ----------
    node_types:
        Per node, the heterogeneous type (AST kind such as ``ForStmt``).
    node_texts:
        Per node, the textual attribute: normalised operand for leaves
        (``v0``/``f1``/literal bucket), operator spelling for operator
        nodes, ``""`` otherwise.
    node_positions:
        Per node, the clipped child index under its AST parent (the
        tree-order attribute); 0 for the root.
    node_is_leaf:
        Per node, whether the node is an AST leaf (carries a token).
    edges:
        ``(src, dst, EdgeType)`` triples.
    meta:
        Free-form provenance (category, source, etc.), carried through to
        training for bookkeeping only.
    """

    node_types: list[str] = field(default_factory=list)
    node_texts: list[str] = field(default_factory=list)
    node_positions: list[int] = field(default_factory=list)
    node_is_leaf: list[bool] = field(default_factory=list)
    edges: list[tuple[int, int, EdgeType]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    def add_node(
        self, node_type: str, text: str = "", position: int = 0,
        is_leaf: bool = False,
    ) -> int:
        nid = len(self.node_types)
        self.node_types.append(node_type)
        self.node_texts.append(text)
        self.node_positions.append(min(position, NODE_POSITIONS - 1))
        self.node_is_leaf.append(is_leaf)
        return nid

    def add_edge(self, src: int, dst: int, etype: EdgeType,
                 reverse: EdgeType | None = None) -> None:
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise IndexError(f"edge ({src},{dst}) out of range")
        self.edges.append((src, dst, etype))
        if reverse is not None:
            self.edges.append((dst, src, reverse))

    # -- queries -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_types)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edges_of_type(self, etype: EdgeType) -> list[tuple[int, int]]:
        return [(s, d) for s, d, t in self.edges if t is etype]

    def type_set(self) -> set[str]:
        return set(self.node_types)

    def validate(self) -> None:
        """Raise ``ValueError`` on structural inconsistencies."""
        n = self.num_nodes
        if not (
            len(self.node_texts) == len(self.node_positions)
            == len(self.node_is_leaf) == n
        ):
            raise ValueError("node attribute arrays disagree on length")
        for src, dst, etype in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src},{dst},{etype}) out of range")
        # Every non-root node must be reachable through AST edges: the AST
        # skeleton is a tree spanning all nodes.
        ast_children = {d for s, d, t in self.edges if t is EdgeType.AST}
        if n and len(ast_children) != n - 1:
            raise ValueError(
                f"AST edges must form a spanning tree: {len(ast_children)} "
                f"children for {n} nodes"
            )

    def to_networkx(self) -> nx.MultiDiGraph:
        import networkx as nx

        g = nx.MultiDiGraph()
        for i in range(self.num_nodes):
            g.add_node(
                i,
                node_type=self.node_types[i],
                text=self.node_texts[i],
                position=self.node_positions[i],
                is_leaf=self.node_is_leaf[i],
            )
        for src, dst, etype in self.edges:
            g.add_edge(src, dst, etype=etype.value)
        return g

    def to_dot(self) -> str:
        """GraphViz rendering (used by examples/visualize_augast.py)."""
        colors = {
            EdgeType.AST: "black",
            EdgeType.CFG: "red",
            EdgeType.LEX: "orange",
        }
        lines = ["digraph augast {", "  rankdir=TB;"]
        for i in range(self.num_nodes):
            label = self.node_types[i]
            if self.node_texts[i]:
                label += f"\\n{self.node_texts[i]}"
            shape = "box" if self.node_is_leaf[i] else "ellipse"
            lines.append(f'  n{i} [label="{label}", shape={shape}];')
        for src, dst, etype in self.edges:
            color = colors.get(etype)
            if color is None:
                continue  # draw forward edges only
            style = "solid" if etype is EdgeType.AST else "dashed"
            lines.append(
                f"  n{src} -> n{dst} [color={color}, style={style}];"
            )
        lines.append("}")
        return "\n".join(lines)
