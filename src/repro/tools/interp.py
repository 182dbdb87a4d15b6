"""A mini C interpreter with memory-access tracing.

This is the stand-in for DiscoPoP's pipeline (LLVM instrumentation →
execution → dependence graph): it executes a loop on synthesized inputs
and records every memory access as ``(iteration, address, read/write)``.

Scope is deliberately the executable subset a dynamic tool could handle
on a lone crawled file: scalar ints/floats, (multi-)dimensional arrays,
arithmetic/logic, if/for/while/do, and a whitelist of libm functions.
Structs, pointers, ``goto``, I/O and unknown calls raise
:class:`UnsupportedConstruct`, which the DiscoPoP simulator maps to
"cannot process" — the real tool's dominant failure mode (3.7 % coverage
in the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cfront.nodes import (
    ArraySubscriptExpr,
    BinaryOperator,
    BreakStmt,
    CallExpr,
    CastExpr,
    CharLiteral,
    CompoundStmt,
    ConditionalOperator,
    ContinueStmt,
    DeclRefExpr,
    DeclStmt,
    DoStmt,
    Expr,
    ExprStmt,
    FloatingLiteral,
    ForStmt,
    IfStmt,
    IntegerLiteral,
    Node,
    SizeofExpr,
    Stmt,
    UnaryOperator,
    WhileStmt,
)


class UnsupportedConstruct(Exception):
    """The interpreter cannot execute this program fragment."""


class ExecutionBudgetExceeded(Exception):
    """The step budget ran out (non-terminating or huge loop)."""


#: Pure libm-style functions a dynamic tool can link against.
MATH_FUNCTIONS: dict[str, object] = {
    "fabs": abs, "abs": abs, "labs": abs,
    "sqrt": lambda x: math.sqrt(abs(x)),
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": lambda x: math.exp(min(x, 50.0)),
    "log": lambda x: math.log(abs(x) + 1e-9),
    "log2": lambda x: math.log2(abs(x) + 1e-9),
    "floor": math.floor, "ceil": math.ceil,
    "pow": lambda x, y: math.pow(abs(x) + 1e-9, min(y, 8.0)),
    "fmin": min, "fmax": max, "min": min, "max": max,
    "round": round, "trunc": math.trunc,
}


@dataclass
class AccessEvent:
    iteration: int
    address: int
    is_write: bool
    base: str


@dataclass
class Trace:
    """Execution trace of the target loop."""

    events: list[AccessEvent] = field(default_factory=list)
    iterations: int = 0
    #: address → variable name (for reporting)
    names: dict[int, str] = field(default_factory=dict)
    #: variables allocated as plain scalars (privatization candidates)
    scalar_bases: set[str] = field(default_factory=set)

    def touched_addresses(self) -> set[int]:
        return {e.address for e in self.events}


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


@dataclass
class _Cell:
    """A scalar memory cell."""

    value: float | int = 0


class Memory:
    """Flat address space; every variable/array element has an address."""

    def __init__(self) -> None:
        self._next = 0x1000
        self.cells: dict[int, _Cell] = {}
        self.bases: dict[str, tuple[int, tuple[int, ...]]] = {}

    def allocate(self, name: str, shape: tuple[int, ...] = ()) -> int:
        count = 1
        for dim in shape:
            count *= dim
        base = self._next
        self._next += max(count, 1)
        self.bases[name] = (base, shape)
        for off in range(max(count, 1)):
            self.cells[base + off] = _Cell()
        return base

    def address_of(self, name: str, indices: tuple[int, ...] = ()) -> int:
        base, shape = self.bases[name]
        if len(indices) != len(shape):
            raise UnsupportedConstruct(
                f"{name}: {len(indices)} subscripts for {len(shape)}-d array"
            )
        addr = base
        stride = 1
        for dim, idx in zip(reversed(shape), reversed(indices)):
            if not 0 <= idx < dim:
                idx = idx % dim  # wrap out-of-range synthetic accesses
            addr += idx * stride
            stride *= dim
        return addr

    def read(self, addr: int):
        return self.cells[addr].value

    def write(self, addr: int, value) -> None:
        self.cells[addr].value = value

    def checkpoint(self) -> tuple:
        """A restorable snapshot of the whole address space.

        The verifier uses this to share one input synthesis across
        many simulated runs instead of re-preparing a fresh
        interpreter per run.
        """
        return (self._next, dict(self.bases),
                {addr: cell.value for addr, cell in self.cells.items()})

    def restore(self, state: tuple) -> None:
        """Reset the address space to a :meth:`checkpoint`."""
        nxt, bases, values = state
        self._next = nxt
        self.bases = dict(bases)
        cells = self.cells
        if len(cells) != len(values):
            for addr in [a for a in cells if a not in values]:
                del cells[addr]
        for addr, value in values.items():
            cell = cells.get(addr)
            if cell is None:
                cells[addr] = _Cell(value)
            else:
                cell.value = value


class Interpreter:
    """Execute a loop statement over synthesized inputs, tracing accesses."""

    def __init__(self, max_steps: int = 200_000, array_extent: int = 16,
                 max_trip: int = 12, seed: int = 0) -> None:
        self.max_steps = max_steps
        self.array_extent = array_extent
        #: symbolic loop bounds are bound to this trip count
        self.max_trip = max_trip
        self.seed = seed
        self.memory = Memory()
        self.trace = Trace()
        self.steps = 0
        self.current_iteration = -1
        self._target_loop: Stmt | None = None

    # -- environment synthesis ----------------------------------------------------

    def prepare(self, loop: Stmt) -> None:
        """Allocate every variable the loop touches, with synthetic values."""
        subscript_depth: dict[str, int] = {}
        scalars: set[str] = set()
        for node in loop.walk():
            if isinstance(node, ArraySubscriptExpr):
                depth = 0
                inner: Node = node
                while isinstance(inner, ArraySubscriptExpr):
                    depth += 1
                    inner = inner.base
                if isinstance(inner, DeclRefExpr):
                    subscript_depth[inner.name] = max(
                        subscript_depth.get(inner.name, 0), depth
                    )
            elif isinstance(node, DeclRefExpr):
                scalars.add(node.name)
        called = {
            c.name for c in loop.find_all(CallExpr)
        }
        # Variables appearing in loop conditions but never written inside
        # the loop are bounds: give them the full trip count so the trace
        # observes enough iterations.  Written scalars (inductions,
        # accumulators) start at zero; everything else gets small values.
        from repro.cfront.nodes import LOOP_KINDS
        written: set[str] = set()
        for node in loop.walk():
            if isinstance(node, BinaryOperator) and node.is_assignment \
                    and isinstance(node.lhs, DeclRefExpr):
                written.add(node.lhs.name)
            elif isinstance(node, UnaryOperator) and node.is_incdec \
                    and isinstance(node.operand, DeclRefExpr):
                written.add(node.operand.name)
        bound_vars: set[str] = set()
        for node in loop.walk():
            if isinstance(node, LOOP_KINDS) and node.cond is not None:
                for ref in node.cond.find_all(DeclRefExpr):
                    if ref.name not in written:
                        bound_vars.add(ref.name)
        import numpy as np
        rng = np.random.default_rng(self.seed)
        cells = self.memory.cells
        for name, depth in subscript_depth.items():
            shape = (self.array_extent,) * depth
            base = self.memory.allocate(name, shape)
            # one vector draw: the same PCG64 stream as one scalar
            # ``uniform`` call per cell, in cell order
            values = rng.uniform(-4.0, 4.0, size=self.array_extent ** depth)
            for off, value in enumerate(values.tolist()):
                cells[base + off].value = value
            self.trace.names[base] = name
        for name in scalars - set(subscript_depth) - called:
            base = self.memory.allocate(name)
            if name in bound_vars:
                self.memory.cells[base].value = self.max_trip
            elif name in written:
                self.memory.cells[base].value = 0
            else:
                self.memory.cells[base].value = int(rng.integers(1, 4))
            self.trace.names[base] = name

    # -- tracing helpers -------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ExecutionBudgetExceeded(f"exceeded {self.max_steps} steps")

    def _record(self, addr: int, is_write: bool, base: str) -> None:
        if self.current_iteration >= 0:
            self.trace.events.append(AccessEvent(
                iteration=self.current_iteration, address=addr,
                is_write=is_write, base=base,
            ))

    # -- lvalues ---------------------------------------------------------------------

    def _lvalue_address(self, expr: Expr) -> tuple[int, str]:
        if isinstance(expr, DeclRefExpr):
            if expr.name not in self.memory.bases:
                self.memory.allocate(expr.name)
            return self.memory.address_of(expr.name), expr.name
        if isinstance(expr, ArraySubscriptExpr):
            indices: list[int] = []
            inner: Expr = expr
            while isinstance(inner, ArraySubscriptExpr):
                indices.insert(0, int(self.eval(inner.index)))
                inner = inner.base
            if not isinstance(inner, DeclRefExpr):
                raise UnsupportedConstruct("computed array base")
            return (
                self.memory.address_of(inner.name, tuple(indices)),
                inner.name,
            )
        raise UnsupportedConstruct(f"unsupported lvalue {expr.kind}")

    # -- expressions ------------------------------------------------------------------

    def eval(self, expr: Expr):
        self._tick()
        if isinstance(expr, IntegerLiteral):
            return expr.value
        if isinstance(expr, FloatingLiteral):
            return expr.value
        if isinstance(expr, CharLiteral):
            return expr.value
        if isinstance(expr, DeclRefExpr):
            addr, base = self._lvalue_address(expr)
            self._record(addr, False, base)
            return self.memory.read(addr)
        if isinstance(expr, ArraySubscriptExpr):
            addr, base = self._lvalue_address(expr)
            self._record(addr, False, base)
            return self.memory.read(addr)
        if isinstance(expr, CastExpr):
            value = self.eval(expr.operand)
            if expr.to_type.base in ("int", "long", "short", "char",
                                     "unsigned", "signed"):
                return int(value)
            return float(value)
        if isinstance(expr, SizeofExpr):
            return 8
        if isinstance(expr, UnaryOperator):
            return self._eval_unary(expr)
        if isinstance(expr, BinaryOperator):
            return self._eval_binary(expr)
        if isinstance(expr, ConditionalOperator):
            return self.eval(expr.then) if self.eval(expr.cond) else self.eval(expr.els)
        if isinstance(expr, CallExpr):
            return self._eval_call(expr)
        raise UnsupportedConstruct(f"unsupported expression {expr.kind}")

    def _eval_unary(self, expr: UnaryOperator):
        if expr.is_incdec:
            addr, base = self._lvalue_address(expr.operand)
            self._record(addr, False, base)
            old = self.memory.read(addr)
            new = old + (1 if expr.op == "++" else -1)
            self._record(addr, True, base)
            self.memory.write(addr, new)
            return new if expr.prefix else old
        value_ops = {"-": lambda v: -v, "+": lambda v: v,
                     "!": lambda v: int(not v), "~": lambda v: ~int(v)}
        if expr.op in value_ops:
            return value_ops[expr.op](self.eval(expr.operand))
        raise UnsupportedConstruct(f"unary {expr.op}")

    def _eval_binary(self, expr: BinaryOperator):
        op = expr.op
        if op == "=":
            value = self.eval(expr.rhs)
            addr, base = self._lvalue_address(expr.lhs)
            self._record(addr, True, base)
            self.memory.write(addr, value)
            return value
        if expr.is_compound_assignment:
            addr, base = self._lvalue_address(expr.lhs)
            self._record(addr, False, base)
            old = self.memory.read(addr)
            rhs = self.eval(expr.rhs)
            new = self._apply(op[:-1], old, rhs)
            self._record(addr, True, base)
            self.memory.write(addr, new)
            return new
        if op == "&&":
            return int(bool(self.eval(expr.lhs)) and bool(self.eval(expr.rhs)))
        if op == "||":
            return int(bool(self.eval(expr.lhs)) or bool(self.eval(expr.rhs)))
        if op == ",":
            self.eval(expr.lhs)
            return self.eval(expr.rhs)
        return self._apply(op, self.eval(expr.lhs), self.eval(expr.rhs))

    @staticmethod
    def _apply(op: str, a, b):
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                return 0
            if isinstance(a, int) and isinstance(b, int):
                return int(a / b)
            return a / b
        if op == "%":
            return int(a) % int(b) if int(b) else 0
        if op == "<":
            return int(a < b)
        if op == "<=":
            return int(a <= b)
        if op == ">":
            return int(a > b)
        if op == ">=":
            return int(a >= b)
        if op == "==":
            return int(a == b)
        if op == "!=":
            return int(a != b)
        if op == "&":
            return int(a) & int(b)
        if op == "|":
            return int(a) | int(b)
        if op == "^":
            return int(a) ^ int(b)
        if op == "<<":
            return int(a) << min(int(b), 31)
        if op == ">>":
            return int(a) >> min(int(b), 31)
        raise UnsupportedConstruct(f"binary {op}")

    def _eval_call(self, expr: CallExpr):
        name = expr.name
        fn = MATH_FUNCTIONS.get(name)
        if fn is None:
            raise UnsupportedConstruct(f"call to unknown function {name!r}")
        args = [self.eval(a) for a in expr.args]
        try:
            return fn(*args)
        except (TypeError, ValueError, OverflowError):
            return 0.0

    # -- statements ---------------------------------------------------------------------

    def exec_stmt(self, stmt: Stmt) -> None:
        self._tick()
        if isinstance(stmt, CompoundStmt):
            for inner in stmt.stmts:
                self.exec_stmt(inner)
            return
        if isinstance(stmt, DeclStmt):
            for d in stmt.decls:
                shape: tuple[int, ...] = ()
                if d.var_type.array_dims:
                    dims = []
                    for dim_expr in d.var_type.array_dims:
                        if dim_expr is None:
                            dims.append(self.array_extent)
                        else:
                            dims.append(min(int(self.eval(dim_expr)),
                                            self.array_extent))
                    shape = tuple(dims)
                if d.name not in self.memory.bases:
                    self.memory.allocate(d.name, shape)
                if d.init is not None and not shape:
                    addr = self.memory.address_of(d.name)
                    value = self.eval(d.init)
                    self._record(addr, True, d.name)
                    self.memory.write(addr, value)
            return
        if isinstance(stmt, ExprStmt):
            if stmt.expr is not None:
                self.eval(stmt.expr)
            return
        if isinstance(stmt, IfStmt):
            if self.eval(stmt.cond):
                self.exec_stmt(stmt.then)
            elif stmt.els is not None:
                self.exec_stmt(stmt.els)
            return
        if isinstance(stmt, (ForStmt, WhileStmt, DoStmt)):
            self._exec_loop(stmt, traced=stmt is self._target_loop)
            return
        if isinstance(stmt, BreakStmt):
            raise _BreakSignal()
        if isinstance(stmt, ContinueStmt):
            raise _ContinueSignal()
        raise UnsupportedConstruct(f"unsupported statement {stmt.kind}")

    def _exec_loop(self, loop: Stmt, traced: bool) -> None:
        iteration = 0

        def begin_iteration() -> None:
            nonlocal iteration
            if traced:
                self.current_iteration = iteration
                self.trace.iterations = iteration + 1
            iteration += 1

        def end_loop() -> None:
            if traced:
                self.current_iteration = -1

        try:
            # Only the traced target loop is sampled at max_trip
            # iterations; inner loops run for real under the global step
            # budget — profiling cost is the dynamic tool's weakness.
            def trip_capped() -> bool:
                return traced and iteration >= self.max_trip

            if isinstance(loop, ForStmt):
                if loop.init is not None:
                    self.exec_stmt(loop.init)
                while loop.cond is None or self.eval(loop.cond):
                    begin_iteration()
                    try:
                        self.exec_stmt(loop.body)
                    except _ContinueSignal:
                        pass
                    if loop.inc is not None:
                        self.eval(loop.inc)
                    if trip_capped():
                        break
            elif isinstance(loop, WhileStmt):
                while self.eval(loop.cond):
                    begin_iteration()
                    try:
                        self.exec_stmt(loop.body)
                    except _ContinueSignal:
                        pass
                    if trip_capped():
                        break
            elif isinstance(loop, DoStmt):
                while True:
                    begin_iteration()
                    try:
                        self.exec_stmt(loop.body)
                    except _ContinueSignal:
                        pass
                    if not self.eval(loop.cond) or trip_capped():
                        break
        except _BreakSignal:
            pass
        finally:
            end_loop()

    # -- public API -----------------------------------------------------------------------

    def run_loop(self, loop: Stmt) -> Trace:
        """Synthesize inputs, execute ``loop``, and return its trace.

        Raises :class:`UnsupportedConstruct` or
        :class:`ExecutionBudgetExceeded` when execution is impossible —
        the DiscoPoP simulator's "cannot process" signal.
        """
        self.prepare(loop)
        self._target_loop = loop
        self._exec_loop(loop, traced=True)
        self.trace.scalar_bases = {
            name for name, (_, shape) in self.memory.bases.items() if not shape
        }
        return self.trace
