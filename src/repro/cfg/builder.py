"""AST → CFG construction.

The builder threads a *frontier* (the set of dangling edges waiting for
their destination) through the statement structure.  Loops push
break/continue collection frames; ``goto`` is resolved in a second pass
once every label has a node.

Call expressions inside a statement become their own CFG nodes hanging
off the statement with :data:`EdgeLabel.CALL` edges — this realises the
paper's "edges from nodes shared by the AST and CFG" device that lets the
model look for data races hidden behind function calls (Figure 3, node
``f1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.graph import CFG, EdgeLabel
from repro.cfront.nodes import (
    BreakStmt,
    CallExpr,
    CaseStmt,
    CompoundStmt,
    ContinueStmt,
    DefaultStmt,
    DoStmt,
    Expr,
    ForStmt,
    GotoStmt,
    IfStmt,
    LabelStmt,
    Node,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    WhileStmt,
)

#: (source node id, edge label) pairs waiting to be connected.
Frontier = list[tuple[int, EdgeLabel]]


@dataclass
class _LoopFrame:
    """break/continue collection for the innermost enclosing loop."""

    breaks: Frontier = field(default_factory=list)
    continues: Frontier = field(default_factory=list)


class CFGBuilder:
    """One-shot builder; use :func:`build_cfg`."""

    def __init__(self) -> None:
        self.cfg = CFG()
        self.loop_stack: list[_LoopFrame] = []
        self.switch_breaks: list[Frontier] = []
        self.labels: dict[str, int] = {}
        self.pending_gotos: list[tuple[int, str]] = []
        self.returns: Frontier = []
        #: push/pop record of breakable constructs ("loop" / "switch"),
        #: used to route ``break`` to the innermost one.
        self._frame_order: list[str] = []

    # -- plumbing ----------------------------------------------------------

    def _connect(self, frontier: Frontier, dst: int) -> None:
        for src, label in frontier:
            self.cfg.add_edge(src, dst, label)

    def _stmt_node(self, stmt: Stmt, role: str = "stmt") -> int:
        nid = self.cfg.add_node(stmt, role)
        self._attach_calls(nid, stmt)
        return nid

    def _expr_node(self, expr: Expr, role: str) -> int:
        nid = self.cfg.add_node(expr, role)
        self._attach_calls(nid, expr)
        return nid

    def _attach_calls(self, owner: int, root: Node) -> None:
        """Give every call expression under ``root`` its own CFG node."""
        for call in root.find_all(CallExpr):
            call_nid = self.cfg.add_node(call, "call")
            self.cfg.add_edge(owner, call_nid, EdgeLabel.CALL)

    # -- entry point -------------------------------------------------------

    def build(self, root: Stmt) -> CFG:
        entry = self.cfg.add_node(None, "entry")
        exit_ = self.cfg.add_node(None, "exit")
        self.cfg.entry, self.cfg.exit = entry, exit_
        frontier = self._build_stmt(root, [(entry, EdgeLabel.NEXT)])
        self._connect(frontier, exit_)
        self._connect(self.returns, exit_)
        for src, label_name in self.pending_gotos:
            dst = self.labels.get(label_name)
            if dst is not None:
                self.cfg.add_edge(src, dst, EdgeLabel.NEXT)
        return self.cfg

    # -- statement dispatch ----------------------------------------------------

    def _build_stmt(self, stmt: Stmt, frontier: Frontier) -> Frontier:
        if isinstance(stmt, CompoundStmt):
            for inner in stmt.stmts:
                frontier = self._build_stmt(inner, frontier)
            return frontier
        if isinstance(stmt, IfStmt):
            return self._build_if(stmt, frontier)
        if isinstance(stmt, ForStmt):
            return self._build_for(stmt, frontier)
        if isinstance(stmt, WhileStmt):
            return self._build_while(stmt, frontier)
        if isinstance(stmt, DoStmt):
            return self._build_do(stmt, frontier)
        if isinstance(stmt, SwitchStmt):
            return self._build_switch(stmt, frontier)
        if isinstance(stmt, ReturnStmt):
            nid = self._stmt_node(stmt)
            self._connect(frontier, nid)
            self.returns.append((nid, EdgeLabel.NEXT))
            return []
        if isinstance(stmt, BreakStmt):
            nid = self._stmt_node(stmt)
            self._connect(frontier, nid)
            target = self.switch_breaks[-1] if self.switch_breaks else None
            if self.loop_stack and (
                target is None or self._loop_is_inner_of_switch()
            ):
                self.loop_stack[-1].breaks.append((nid, EdgeLabel.NEXT))
            elif target is not None:
                target.append((nid, EdgeLabel.NEXT))
            return []
        if isinstance(stmt, ContinueStmt):
            nid = self._stmt_node(stmt)
            self._connect(frontier, nid)
            if self.loop_stack:
                self.loop_stack[-1].continues.append((nid, EdgeLabel.NEXT))
            return []
        if isinstance(stmt, GotoStmt):
            nid = self._stmt_node(stmt)
            self._connect(frontier, nid)
            self.pending_gotos.append((nid, stmt.label))
            return []
        if isinstance(stmt, LabelStmt):
            nid = self._stmt_node(stmt)
            self._connect(frontier, nid)
            self.labels[stmt.name] = nid
            return self._build_stmt(stmt.stmt, [(nid, EdgeLabel.NEXT)])
        if isinstance(stmt, (CaseStmt, DefaultStmt)):
            nid = self._stmt_node(stmt)
            self._connect(frontier, nid)
            inner = getattr(stmt, "stmt", None)
            if inner is not None:
                return self._build_stmt(inner, [(nid, EdgeLabel.NEXT)])
            return [(nid, EdgeLabel.NEXT)]
        # DeclStmt, ExprStmt and anything else: a plain sequential node.
        nid = self._stmt_node(stmt)
        self._connect(frontier, nid)
        return [(nid, EdgeLabel.NEXT)]

    def _loop_is_inner_of_switch(self) -> bool:
        """True when the innermost breakable construct is a loop."""
        return bool(self._frame_order) and self._frame_order[-1] == "loop"

    # -- structured statements ----------------------------------------------------

    def _build_if(self, stmt: IfStmt, frontier: Frontier) -> Frontier:
        cond = self._expr_node(stmt.cond, "cond")
        self._connect(frontier, cond)
        then_out = self._build_stmt(stmt.then, [(cond, EdgeLabel.TRUE)])
        if stmt.els is not None:
            else_out = self._build_stmt(stmt.els, [(cond, EdgeLabel.FALSE)])
            return then_out + else_out
        return then_out + [(cond, EdgeLabel.FALSE)]

    def _build_for(self, stmt: ForStmt, frontier: Frontier) -> Frontier:
        if stmt.init is not None:
            init = self._stmt_node(stmt.init, "init")
            self._connect(frontier, init)
            frontier = [(init, EdgeLabel.NEXT)]
        if stmt.cond is not None:
            cond = self._expr_node(stmt.cond, "cond")
            self._connect(frontier, cond)
            body_in: Frontier = [(cond, EdgeLabel.TRUE)]
            loop_exit: Frontier = [(cond, EdgeLabel.FALSE)]
            loop_head = cond
        else:
            # ``for (;;)`` — the body head is the loop head.
            cond = None
            body_in = frontier
            loop_exit = []
            loop_head = -1

        frame = _LoopFrame()
        self.loop_stack.append(frame)
        self._frame_order.append("loop")
        body_out = self._build_stmt(stmt.body, body_in)
        self._frame_order.pop()
        self.loop_stack.pop()

        continue_target = body_out + frame.continues
        if stmt.inc is not None:
            inc = self._expr_node(stmt.inc, "inc")
            self._connect(continue_target, inc)
            back_from: Frontier = [(inc, EdgeLabel.BACK)]
        else:
            back_from = [(nid, EdgeLabel.BACK) for nid, _ in continue_target]

        if cond is not None:
            self._connect(back_from, cond)
        elif self.cfg.nodes and body_in:
            # Headless infinite loop: back edge to the first body node.
            first_body = body_in[0][0]
            self._connect(back_from, first_body)
        return loop_exit + frame.breaks

    def _build_while(self, stmt: WhileStmt, frontier: Frontier) -> Frontier:
        cond = self._expr_node(stmt.cond, "cond")
        self._connect(frontier, cond)
        frame = _LoopFrame()
        self.loop_stack.append(frame)
        self._frame_order.append("loop")
        body_out = self._build_stmt(stmt.body, [(cond, EdgeLabel.TRUE)])
        self._frame_order.pop()
        self.loop_stack.pop()
        back = [(nid, EdgeLabel.BACK) for nid, _ in body_out + frame.continues]
        self._connect(back, cond)
        return [(cond, EdgeLabel.FALSE)] + frame.breaks

    def _build_do(self, stmt: DoStmt, frontier: Frontier) -> Frontier:
        frame = _LoopFrame()
        self.loop_stack.append(frame)
        self._frame_order.append("loop")
        # The body entry: we need a handle before building; use a pass-through
        # by building the body and connecting the incoming frontier to its
        # first node.  Simplest correct approach: a synthetic head via the
        # body itself — build body with the external frontier.
        body_out = self._build_stmt(stmt.body, frontier)
        self._frame_order.pop()
        self.loop_stack.pop()
        cond = self._expr_node(stmt.cond, "cond")
        self._connect(body_out + frame.continues, cond)
        # Back edge: cond true -> first body node.
        first_body = None
        for node in self.cfg.nodes:
            if node.ast is not None and self._contains(stmt.body, node.ast):
                first_body = node.nid
                break
        if first_body is not None:
            self.cfg.add_edge(cond, first_body, EdgeLabel.BACK)
        return [(cond, EdgeLabel.FALSE)] + frame.breaks

    @staticmethod
    def _contains(root: Node, target: Node) -> bool:
        return any(n is target for n in root.walk())

    def _build_switch(self, stmt: SwitchStmt, frontier: Frontier) -> Frontier:
        cond = self._expr_node(stmt.cond, "cond")
        self._connect(frontier, cond)
        breaks: Frontier = []
        self.switch_breaks.append(breaks)
        self._frame_order.append("switch")
        # Every case label gets an edge from the switch head; fall-through
        # comes from sequential construction inside the body.
        out = self._build_switch_body(stmt.body, cond)
        self._frame_order.pop()
        self.switch_breaks.pop()
        return out + breaks

    def _build_switch_body(self, body: Stmt, cond_nid: int) -> Frontier:
        if not isinstance(body, CompoundStmt):
            return self._build_stmt(body, [(cond_nid, EdgeLabel.TRUE)])
        frontier: Frontier = []
        has_default = False
        for inner in body.stmts:
            if isinstance(inner, (CaseStmt, DefaultStmt)):
                has_default = has_default or isinstance(inner, DefaultStmt)
                nid = self._stmt_node(inner)
                self.cfg.add_edge(cond_nid, nid, EdgeLabel.TRUE)
                self._connect(frontier, nid)  # fall-through from previous case
                frontier = [(nid, EdgeLabel.NEXT)]
                sub = getattr(inner, "stmt", None)
                if sub is not None:
                    frontier = self._build_stmt(sub, frontier)
            else:
                frontier = self._build_stmt(inner, frontier)
        if not has_default:
            frontier = frontier + [(cond_nid, EdgeLabel.FALSE)]
        return frontier


def build_cfg(root: Stmt) -> CFG:
    """Build the control-flow graph of a statement (loop or function body)."""
    return CFGBuilder().build(root)
