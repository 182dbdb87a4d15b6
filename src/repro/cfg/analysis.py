"""Analyses over control-flow graphs and statement sequences.

Dominators and reachability come straight from networkx over the CFG;
the liveness helpers answer the question the pragma suggester needs:
*is a scalar consumed after the loop?* — which decides ``private`` vs
``lastprivate`` (a privatized scalar whose final value escapes must be
``lastprivate`` for correctness).
"""

from __future__ import annotations

from repro.cfg.graph import CFG
from repro.cfront.nodes import (
    CompoundStmt,
    DeclRefExpr,
    BinaryOperator,
    Node,
    Stmt,
)


def immediate_dominators(cfg: CFG) -> dict[int, int]:
    """Immediate dominator of every reachable CFG node.

    The entry always maps to itself (newer networkx versions omit the
    trivial self-entry).
    """
    import networkx as nx

    g = cfg.to_networkx()
    idom = dict(nx.immediate_dominators(g, cfg.entry))
    idom.setdefault(cfg.entry, cfg.entry)
    return idom


def dominates(cfg: CFG, a: int, b: int) -> bool:
    """Does node ``a`` dominate node ``b``?"""
    idom = immediate_dominators(cfg)
    node = b
    while node != cfg.entry:
        if node == a:
            return True
        if node not in idom or idom[node] == node:
            return False
        node = idom[node]
    return node == a


def unreachable_nodes(cfg: CFG) -> set[int]:
    """CFG nodes no path from entry reaches (dead code)."""
    reachable = cfg.reachable_from_entry()
    return {n.nid for n in cfg.nodes} - reachable


# ---------------------------------------------------------------------------
# Post-loop liveness (statement-sequence level)
# ---------------------------------------------------------------------------


def _reads_of(node: Node) -> set[str]:
    """Names read inside a subtree (writes' lhs excluded)."""
    reads: set[str] = set()

    def visit(n: Node) -> None:
        if isinstance(n, BinaryOperator) and n.is_assignment:
            if n.is_compound_assignment:
                visit(n.lhs)
            else:
                # Only subscripts of the lhs are reads.
                for child in n.lhs.children():
                    visit(child)
            visit(n.rhs)
            return
        if isinstance(n, DeclRefExpr):
            reads.add(n.name)
            return
        for child in n.children():
            visit(child)

    visit(node)
    return reads


def scalars_read_after(container: Stmt, loop: Stmt) -> set[str]:
    """Names read by statements that follow ``loop`` inside ``container``.

    Walks every compound statement; once ``loop`` is seen, all subsequent
    sibling statements (and, recursively, statements after the enclosing
    block) contribute reads.  Used to decide ``lastprivate``.
    """
    after_reads: set[str] = set()

    def visit(stmt: Stmt) -> bool:
        """Returns True once the loop has been passed inside this subtree."""
        if stmt is loop:
            return True
        passed = False
        if isinstance(stmt, CompoundStmt):
            for inner in stmt.stmts:
                if passed:
                    after_reads.update(_reads_of(inner))
                else:
                    passed = visit(inner)
            return passed
        for child in stmt.children():
            if isinstance(child, Stmt):
                if passed:
                    after_reads.update(_reads_of(child))
                else:
                    passed = visit(child)
        return passed

    visit(container)
    return after_reads
