"""Memory access extraction from statements and expressions.

Produces the read/write sets the dependence analyses consume.  Every
access resolves to a *base* name (scalar variable or array) plus its
subscript expression list; member and pointer accesses resolve to their
root variable with a flag, which makes the consuming tools conservative
about them exactly like their real counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfront.nodes import (
    ArraySubscriptExpr,
    BinaryOperator,
    CallExpr,
    CastExpr,
    CompoundStmt,
    DeclRefExpr,
    DeclStmt,
    DoStmt,
    Expr,
    ExprStmt,
    ForStmt,
    IfStmt,
    MemberExpr,
    Node,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    UnaryOperator,
    WhileStmt,
)


@dataclass
class Access:
    """One memory access.

    ``base`` is the root variable; ``subscripts`` the index expressions
    (empty for scalars); ``exact`` is False when the analysis could not
    fully resolve the location (pointer deref, member chains, unknown
    call effects) and consumers must be conservative.
    """

    is_write: bool
    base: str
    subscripts: list[Expr] = field(default_factory=list)
    exact: bool = True
    node: Node | None = None
    #: statement index inside the loop body (textual order)
    stmt_index: int = 0
    #: True when the access happens under a condition (if/ternary/&&)
    conditional: bool = False
    #: global record order — follows C evaluation order (a compound
    #: assignment reads before it writes)
    order: int = 0

    @property
    def is_scalar(self) -> bool:
        return not self.subscripts and self.exact


@dataclass
class AccessSummary:
    """All accesses of a loop body plus structural facts."""

    accesses: list[Access] = field(default_factory=list)
    calls: list[CallExpr] = field(default_factory=list)
    local_decls: set[str] = field(default_factory=set)
    has_inner_loop: bool = False

    def reads(self, base: str | None = None) -> list[Access]:
        return [a for a in self.accesses
                if not a.is_write and (base is None or a.base == base)]

    def writes(self, base: str | None = None) -> list[Access]:
        return [a for a in self.accesses
                if a.is_write and (base is None or a.base == base)]

    def written_bases(self) -> set[str]:
        return {a.base for a in self.accesses if a.is_write}

    def bases(self) -> set[str]:
        return {a.base for a in self.accesses}

    @property
    def has_calls(self) -> bool:
        return bool(self.calls)


def _resolve_lvalue(expr: Expr) -> tuple[str, list[Expr], bool]:
    """Root variable, subscripts, and exactness of an lvalue expression."""
    subs: list[Expr] = []
    exact = True
    node = expr
    while True:
        if isinstance(node, ArraySubscriptExpr):
            subs.insert(0, node.index)
            node = node.base
        elif isinstance(node, MemberExpr):
            exact = exact and not node.is_arrow
            node = node.base
        elif isinstance(node, UnaryOperator) and node.op == "*":
            exact = False
            node = node.operand
        elif isinstance(node, CastExpr):
            node = node.operand
        elif isinstance(node, DeclRefExpr):
            return node.name, subs, exact
        else:
            # Computed base (e.g. call returning pointer).
            return "<computed>", subs, False


class _Collector:
    """Stateful walker producing an :class:`AccessSummary`."""

    def __init__(self) -> None:
        self.summary = AccessSummary()
        self.stmt_index = 0
        self.cond_depth = 0

    # -- recording -------------------------------------------------------------

    def _record(self, is_write: bool, expr: Expr, node: Node) -> None:
        base, subs, exact = _resolve_lvalue(expr)
        self.summary.accesses.append(
            Access(
                is_write=is_write, base=base, subscripts=subs, exact=exact,
                node=node, stmt_index=self.stmt_index,
                conditional=self.cond_depth > 0,
                order=len(self.summary.accesses),
            )
        )
        # Subscript expressions are themselves reads.
        for sub in subs:
            self.expr(sub, as_read=True)

    # -- expression traversal ----------------------------------------------------

    def expr(self, e: Expr | None, as_read: bool = True) -> None:
        if e is None:
            return
        if isinstance(e, BinaryOperator) and e.is_assignment:
            # Compound assignments read the lvalue before writing it.
            if e.is_compound_assignment:
                self._record(False, e.lhs, e)
            self.expr(e.rhs)
            self._record(True, e.lhs, e)
            return
        if isinstance(e, UnaryOperator) and e.is_incdec:
            self._record(False, e.operand, e)
            self._record(True, e.operand, e)
            return
        if isinstance(e, UnaryOperator) and e.op == "&":
            # Address-taken: no access now, but the pointee may be touched
            # by whoever receives the pointer; callers handle that.
            return
        if isinstance(e, (DeclRefExpr, ArraySubscriptExpr, MemberExpr)):
            if as_read:
                self._record(False, e, e)
            return
        if isinstance(e, UnaryOperator) and e.op == "*":
            if as_read:
                self._record(False, e, e)
            return
        if isinstance(e, CallExpr):
            self.summary.calls.append(e)
            for arg in e.args:
                if isinstance(arg, UnaryOperator) and arg.op == "&":
                    # &x passed to a call: unknown read+write of x.
                    base, subs, _ = _resolve_lvalue(arg.operand)
                    for w in (False, True):
                        self.summary.accesses.append(Access(
                            is_write=w, base=base, subscripts=subs,
                            exact=False, node=e, stmt_index=self.stmt_index,
                            conditional=self.cond_depth > 0,
                            order=len(self.summary.accesses),
                        ))
                else:
                    self.expr(arg)
            return
        for child in e.children():
            if isinstance(child, Expr):
                self.expr(child)

    # -- statement traversal -------------------------------------------------------

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, CompoundStmt):
            for inner in s.stmts:
                self.stmt(inner)
                self.stmt_index += 1
            return
        if isinstance(s, DeclStmt):
            for d in s.decls:
                self.summary.local_decls.add(d.name)
                if d.init is not None:
                    self.expr(d.init)
                    self.summary.accesses.append(Access(
                        is_write=True, base=d.name, node=d,
                        stmt_index=self.stmt_index,
                        conditional=self.cond_depth > 0,
                        order=len(self.summary.accesses),
                    ))
            return
        if isinstance(s, ExprStmt):
            self.expr(s.expr)
            return
        if isinstance(s, IfStmt):
            self.expr(s.cond)
            self.cond_depth += 1
            self.stmt(s.then)
            if s.els is not None:
                self.stmt(s.els)
            self.cond_depth -= 1
            return
        if isinstance(s, (ForStmt, WhileStmt, DoStmt)):
            self.summary.has_inner_loop = True
            if isinstance(s, ForStmt):
                if s.init is not None:
                    self.stmt(s.init)
                self.expr(s.cond)
                self.expr(s.inc)
            else:
                self.expr(s.cond)
            self.cond_depth += 1
            self.stmt(s.body)
            self.cond_depth -= 1
            return
        if isinstance(s, SwitchStmt):
            self.expr(s.cond)
            self.cond_depth += 1
            self.stmt(s.body)
            self.cond_depth -= 1
            return
        if isinstance(s, ReturnStmt):
            self.expr(s.value)
            return
        # break/continue/goto/labels/case: traverse children statements.
        for child in s.children():
            if isinstance(child, Stmt):
                self.stmt(child)
            elif isinstance(child, Expr):
                self.expr(child)


def collect_accesses(body: Stmt) -> AccessSummary:
    """Access summary of a loop body (or any statement)."""
    collector = _Collector()
    collector.stmt(body)
    return collector.summary
