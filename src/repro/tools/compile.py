"""Closure compilation of the executable C subset to Python bytecode.

:mod:`repro.tools.interp` executes loops by walking the AST — one
method dispatch, one ``isinstance`` chain and one budget tick per node
per visit.  That is the dominant cost of differential verification
(`rewrite/verify.py`), which re-executes every candidate loop dozens of
times.  :func:`compile_loop` lowers a loop's body **once** into one
generated Python function (compiled to a code object) that runs one
iteration, sharing the interpreter's exact memory model, step
accounting and trace format.  The verifier drives the loop header
(init, condition, increment, trip cap) through the interpreter and
every iteration through that function; the traced whole-loop form the
parity suite compares against the tree-walker is generated only on
its first :meth:`CompiledLoop.run`.

- every value is computed by the same primitive semantics
  (:meth:`Interpreter._apply` is replicated by ``_div``/``_mod``/...),
  in the same evaluation order, so observable state is bit-identical;
- budget ticks are counted statically per straight-line segment and
  added in one ``S += n``; the budget is re-checked at every loop
  back-edge, before every refusal site and at function exit, so a run
  raises :class:`ExecutionBudgetExceeded` iff the tree-walker would
  (the exact raise *point* inside a straight-line segment may differ —
  only post-refusal state, which nothing observes, is affected);
- the traced whole loop appends the same :class:`AccessEvent` stream
  the tree-walker records; the body function skips all trace
  bookkeeping (the verifier's trace-elision);
- constructs the generator does not inline (``DeclStmt``) are
  *delegated* back to the live :class:`Interpreter` node-by-node, and
  constructs the interpreter itself refuses compile into raise sites
  producing the identical :class:`UnsupportedConstruct` message at the
  identical execution point (a refusing call in a dead branch still
  never refuses).

Anything the compiler cannot lower safely — non-``for`` targets, a
name used both as a function and a variable, oversized bodies, or any
internal codegen failure — falls back to the tree-walker by returning
``None``.  Compiled forms are memoized by the loop's unparsed source,
so all (schedule, nthreads, seed) verification runs share one
compilation.  ``REPRO_NO_LOOP_COMPILE=1`` disables the whole fast path.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import OrderedDict

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
    ExprStmt,
    FloatingLiteral,
    ForStmt,
    IfStmt,
    IntegerLiteral,
    SizeofExpr,
    Stmt,
    UnaryOperator,
    WhileStmt,
)
from repro.tools.interp import (
    MATH_FUNCTIONS,
    AccessEvent,
    ExecutionBudgetExceeded,
    Interpreter,
    UnsupportedConstruct,
    _BreakSignal,
)

#: loops with more AST nodes than this are not worth compiling
_MAX_NODES = 4000
#: memoized compilations (keyed by unparsed loop source hash)
_MEMO_MAX = 256


class CompileUnavailable(Exception):
    """A compiled form cannot run against this interpreter state
    (a referenced name is not allocated yet).  Raised before any state
    is touched, so the caller can safely fall back to the tree-walker.
    """


class _CannotCompile(Exception):
    """Internal: the loop is outside the compilable subset."""


def _call(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError, OverflowError):
        return 0.0


def _div(a, b):
    if b == 0:
        return 0
    if isinstance(a, int) and isinstance(b, int):
        return int(a / b)
    return a / b


def _mod(a, b):
    return int(a) % int(b) if int(b) else 0


def _unsup(msg):
    raise UnsupportedConstruct(msg)


def _has_effects(node) -> bool:
    """Whether evaluating ``node`` can mutate memory (assignments or
    ``++``/``--`` anywhere in the subtree)."""
    for n in node.walk():
        if isinstance(n, BinaryOperator) and n.is_assignment:
            return True
        if isinstance(n, UnaryOperator) and n.is_incdec:
            return True
    return False


_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
_INT_TYPES = ("int", "long", "short", "char", "unsigned", "signed")


class _Codegen:
    """Emit one Python function body for a loop (or its body alone)."""

    def __init__(self, loop, record: bool) -> None:
        self.loop = loop
        self.record = record
        self.guard_ci = False
        self.lines: list[str] = []
        self.indent = 2
        self.pending = 0          # merged, not-yet-emitted budget ticks
        self.ntmp = 0
        self.nnode = 0
        self.nloop = 0
        self.loop_flags: list[str | None] = []   # break flag per C loop
        self.bindings: dict[str, object] = {}
        # static allocation plan: mirrors Interpreter.prepare()
        self.arrays: dict[str, int] = {}         # base name -> depth
        self.scalars: set[str] = set()
        self._scan(loop)

    # -- scanning -------------------------------------------------------------

    def _scan(self, loop) -> None:
        nodes = 0
        called: set[str] = set()
        referenced: set[str] = set()
        callee_ids = {
            id(n.callee) for n in loop.find_all(CallExpr)
            if isinstance(n.callee, DeclRefExpr)
        }
        for node in loop.walk():
            nodes += 1
            if isinstance(node, ArraySubscriptExpr):
                depth = 0
                inner = node
                while isinstance(inner, ArraySubscriptExpr):
                    depth += 1
                    inner = inner.base
                if isinstance(inner, DeclRefExpr):
                    self.arrays[inner.name] = max(
                        self.arrays.get(inner.name, 0), depth)
            elif isinstance(node, DeclRefExpr):
                if id(node) not in callee_ids:
                    referenced.add(node.name)
            elif isinstance(node, CallExpr):
                called.add(node.name)
        if nodes > _MAX_NODES:
            raise _CannotCompile(f"{nodes} nodes")
        if called & (referenced | set(self.arrays)):
            # prepare() skips allocating called names; the interpreter
            # then allocates lazily at first variable use, an order the
            # static hoist below cannot reproduce
            raise _CannotCompile("name used as both function and variable")
        self.scalars = referenced - set(self.arrays) - called

    # -- emission helpers -----------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def bind(self, prefix: str, obj) -> str:
        self.nnode += 1
        name = f"_{prefix}{self.nnode}"
        self.bindings[name] = obj
        return name

    def tick(self, n: int = 1) -> None:
        self.pending += n

    def flush(self) -> None:
        if self.pending:
            self.line(f"S += {self.pending}")
            self.pending = 0

    def check(self) -> None:
        self.flush()
        self.line("if S > MS: raise _EBE(_ebe)")

    def rec(self, addr: str, is_write: bool, base: str) -> None:
        if not self.record:
            return
        stmt = f"TE.append(_AE(CI, {addr}, {is_write}, {base!r}))"
        if self.guard_ci:
            self.line("if CI >= 0:")
            self.line("    " + stmt)
        else:
            self.line(stmt)

    def refuse(self, msg: str) -> str:
        """A runtime refusal site: matches the interpreter, which
        would have raised ``ExecutionBudgetExceeded`` first had the
        budget already run out by this point."""
        self.check()
        t = self.tmp()
        self.line(f"{t} = _unsup({msg!r})")
        return t

    # -- lvalues --------------------------------------------------------------

    def lv(self, expr) -> tuple[str, str]:
        """Address expression (temp or hoisted name) and base name.
        Matches ``Interpreter._lvalue_address`` (no tick of its own)."""
        if isinstance(expr, DeclRefExpr):
            name = expr.name
            if name in self.arrays:
                d = self.arrays[name]
                return self.refuse(
                    f"{name}: 0 subscripts for {d}-d array"), name
            return f"_a_{name}", name
        if isinstance(expr, ArraySubscriptExpr):
            index_nodes = []
            inner = expr
            while isinstance(inner, ArraySubscriptExpr):
                index_nodes.append(inner.index)   # outermost first
                inner = inner.base
            if not isinstance(inner, DeclRefExpr):
                return self.refuse("computed array base"), "?"
            name = inner.name
            d = self.arrays[name]
            temps = self._indices(index_nodes)
            if len(index_nodes) != d:
                # the interpreter evaluates every index, then
                # address_of refuses — reproduce that order
                return self.refuse(
                    f"{name}: {len(index_nodes)} subscripts "
                    f"for {d}-d array"), name
            # temps is in evaluation order (outermost subscript first);
            # dimension order is the reverse
            dims = list(reversed(temps))
            wrapped = [f"({t} if 0 <= {t} < E else {t} % E)" for t in dims]
            addr = wrapped[0]
            for w in wrapped[1:]:
                addr = f"({addr}) * E + {w}"
            t = self.tmp()
            self.line(f"{t} = _b_{name} + {addr}")
            return t, name
        return self.refuse(f"unsupported lvalue {expr.kind}"), "?"

    def _indices(self, index_nodes) -> list[str]:
        temps = []
        for node in index_nodes:
            e = self.ex(node)
            t = self.tmp()
            self.line(f"{t} = int({e})")
            temps.append(t)
        return temps

    # -- expressions ----------------------------------------------------------

    def operands(self, nodes) -> list[str]:
        """Compile operand expressions left to right, hoisting earlier
        values into temps whenever a later sibling can mutate memory
        (pure reads inlined past a later write would misread)."""
        out = []
        for i, node in enumerate(nodes):
            e = self.ex(node)
            if any(_has_effects(m) for m in nodes[i + 1:]) \
                    and not e.isidentifier():
                t = self.tmp()
                self.line(f"{t} = {e}")
                e = t
            out.append(e)
        return out

    def ex(self, expr) -> str:
        if isinstance(expr, IntegerLiteral):
            self.tick()
            return repr(expr.value)
        if isinstance(expr, FloatingLiteral):
            self.tick()
            value = expr.value
            if math.isfinite(value):
                return repr(value)
            # repr(inf) is no Python expression: bind the value instead
            return self.bind("c", value)
        if isinstance(expr, CharLiteral):
            self.tick()
            return repr(expr.value)
        if isinstance(expr, (DeclRefExpr, ArraySubscriptExpr)):
            self.tick()
            addr, base = self.lv(expr)
            self.rec(addr, False, base)
            return f"cells[{addr}].value"
        if isinstance(expr, CastExpr):
            self.tick()
            v = self.ex(expr.operand)
            if expr.to_type.base in _INT_TYPES:
                return f"int({v})"
            return f"float({v})"
        if isinstance(expr, SizeofExpr):
            self.tick()
            return "8"
        if isinstance(expr, UnaryOperator):
            return self._unary(expr)
        if isinstance(expr, BinaryOperator):
            return self._binary(expr)
        if isinstance(expr, ConditionalOperator):
            return self._conditional(expr)
        if isinstance(expr, CallExpr):
            return self._callexpr(expr)
        self.tick()
        return self.refuse(f"unsupported expression {expr.kind}")

    def _unary(self, expr) -> str:
        self.tick()
        if expr.is_incdec:
            addr, base = self.lv(expr.operand)
            self.rec(addr, False, base)
            old = self.tmp()
            self.line(f"{old} = cells[{addr}].value")
            new = self.tmp()
            delta = "+ 1" if expr.op == "++" else "- 1"
            self.line(f"{new} = {old} {delta}")
            self.rec(addr, True, base)
            self.line(f"cells[{addr}].value = {new}")
            return new if expr.prefix else old
        if expr.op == "-":
            return f"(-({self.ex(expr.operand)}))"
        if expr.op == "+":
            return f"({self.ex(expr.operand)})"
        if expr.op == "!":
            return f"int(not ({self.ex(expr.operand)}))"
        if expr.op == "~":
            return f"(~int({self.ex(expr.operand)}))"
        return self.refuse(f"unary {expr.op}")

    def _binary(self, expr) -> str:
        op = expr.op
        self.tick()
        if op == "=":
            v = self.ex(expr.rhs)
            t = self.tmp()
            self.line(f"{t} = {v}")
            addr, base = self.lv(expr.lhs)
            self.rec(addr, True, base)
            self.line(f"cells[{addr}].value = {t}")
            return t
        if expr.is_compound_assignment:
            addr, base = self.lv(expr.lhs)
            self.rec(addr, False, base)
            old = self.tmp()
            self.line(f"{old} = cells[{addr}].value")
            rhs = self.ex(expr.rhs)
            new = self.tmp()
            self.line(f"{new} = {self._apply(op[:-1], old, rhs)}")
            self.rec(addr, True, base)
            self.line(f"cells[{addr}].value = {new}")
            return new
        if op in ("&&", "||"):
            lhs = self.ex(expr.lhs)
            t = self.tmp()
            self.line(f"{t} = bool({lhs})")
            self.flush()
            cond = t if op == "&&" else f"not {t}"
            self.line(f"if {cond}:")
            self.indent += 1
            rhs = self.ex(expr.rhs)
            self.flush()
            self.line(f"{t} = bool({rhs})")
            self.indent -= 1
            out = self.tmp()
            self.line(f"{out} = int({t})")
            return out
        if op == ",":
            self.ex(expr.lhs)   # value discarded; side effects emitted
            return self.ex(expr.rhs)
        a, b = self.operands([expr.lhs, expr.rhs])
        return self._apply(op, a, b)

    def _apply(self, op: str, a: str, b: str) -> str:
        if op in ("+", "-", "*"):
            return f"(({a}) {op} ({b}))"
        if op == "/":
            return f"_div({a}, {b})"
        if op == "%":
            return f"_mod({a}, {b})"
        if op in _CMP_OPS:
            return f"int(({a}) {op} ({b}))"
        if op in ("&", "|", "^"):
            return f"(int({a}) {op} int({b}))"
        if op == "<<":
            return f"(int({a}) << min(int({b}), 31))"
        if op == ">>":
            return f"(int({a}) >> min(int({b}), 31))"
        return self.refuse(f"binary {op}")

    def _conditional(self, expr) -> str:
        self.tick()
        cond = self.ex(expr.cond)
        self.flush()
        t = self.tmp()
        self.line(f"if {cond}:")
        self.indent += 1
        v = self.ex(expr.then)
        self.flush()
        self.line(f"{t} = {v}")
        self.indent -= 1
        self.line("else:")
        self.indent += 1
        v = self.ex(expr.els)
        self.flush()
        self.line(f"{t} = {v}")
        self.indent -= 1
        return t

    def _callexpr(self, expr) -> str:
        self.tick()
        fn = MATH_FUNCTIONS.get(expr.name)
        if fn is None:
            # evaluated lazily: a dead-branch unknown call never refuses
            return self.refuse(
                f"call to unknown function {expr.name!r}")
        fname = f"_f_{expr.name}"
        self.bindings[fname] = fn
        args = self.operands(list(expr.args))
        t = self.tmp()
        self.line(f"{t} = _call({fname}{''.join(', ' + a for a in args)})")
        return t

    # -- statements -----------------------------------------------------------

    def st(self, stmt) -> None:
        if isinstance(stmt, CompoundStmt):
            self.tick()
            for inner in stmt.stmts:
                self.st(inner)
            return
        if isinstance(stmt, DeclStmt):
            # delegate: declarations allocate (order-sensitive) and
            # evaluate dim/init expressions — the tree-walker is the
            # single source of truth for that
            self.flush()
            node = self.bind("n", stmt)
            self.line("I.steps = S")
            self.line("try:")
            self.line(f"    I.exec_stmt({node})")
            self.line("finally:")
            self.line("    S = I.steps")
            return
        if isinstance(stmt, ExprStmt):
            self.tick()
            if stmt.expr is not None:
                self.ex(stmt.expr)
            return
        if isinstance(stmt, IfStmt):
            self.tick()
            cond = self.ex(stmt.cond)
            self.flush()
            self.line(f"if {cond}:")
            self.indent += 1
            self.st(stmt.then)
            self.flush()
            self.line("pass")
            self.indent -= 1
            if stmt.els is not None:
                self.line("else:")
                self.indent += 1
                self.st(stmt.els)
                self.flush()
                self.line("pass")
                self.indent -= 1
            return
        if isinstance(stmt, (ForStmt, WhileStmt, DoStmt)):
            self.tick()              # the exec_stmt tick for the loop node
            self._inner_loop(stmt)
            return
        if isinstance(stmt, BreakStmt):
            self.tick()
            self.flush()
            flag = self.loop_flags[-1] if self.loop_flags else None
            if flag is None:
                self.line("raise _BS()")
            else:
                self.line(f"{flag} = True")
                self.line("break")
            return
        if isinstance(stmt, ContinueStmt):
            self.tick()
            self.flush()
            self.line("break")       # exits the body-once wrapper
            return
        self.tick()
        self.check()
        self.line(f"_unsup({('unsupported statement ' + stmt.kind)!r})")

    def _inner_loop(self, loop) -> None:
        """A non-target loop: no tracing flips, no trip cap."""
        self.nloop += 1
        flag = f"_brk{self.nloop}"
        if isinstance(loop, ForStmt) and loop.init is not None:
            self.st(loop.init)
        self.flush()
        self.line(f"{flag} = False")
        self.line("while True:")
        self.indent += 1
        self.check()
        if isinstance(loop, (ForStmt, WhileStmt)):
            if isinstance(loop, WhileStmt) or loop.cond is not None:
                cond = self.ex(loop.cond)
                self.flush()
                self.line(f"if not ({cond}): break")
        self._body_once(loop.body, flag)
        self.line(f"if {flag}: break")
        if isinstance(loop, ForStmt) and loop.inc is not None:
            self.ex(loop.inc)
            self.flush()
        if isinstance(loop, DoStmt):
            cond = self.ex(loop.cond)
            self.flush()
            self.line(f"if not ({cond}): break")
        self.flush()
        self.line("pass")
        self.indent -= 1

    def _body_once(self, body, flag: str | None) -> None:
        """Wrap one loop-body execution so a C ``continue`` becomes a
        Python ``break`` out of the wrapper (the enclosing loop's
        increment still runs)."""
        self.line("while True:")
        self.indent += 1
        self.loop_flags.append(flag)
        self.st(body)
        self.loop_flags.pop()
        self.flush()
        self.line("break")
        self.indent -= 1

    # -- function assembly ----------------------------------------------------

    def preamble(self) -> list[str]:
        lines = [
            "    M = I.memory; cells = M.cells; B = M.bases",
            "    MS = I.max_steps; MT = I.max_trip; E = I.array_extent",
        ]
        if self.record:
            lines.append("    TR = I.trace; TE = TR.events")
        lines.append("    CI = I.current_iteration")
        lines.append("    try:")
        for name in sorted(self.arrays):
            lines.append(f"        _b_{name} = B[{name!r}][0]")
        for name in sorted(self.scalars):
            lines.append(f"        _a_{name} = B[{name!r}][0]")
        lines.append("        pass")
        lines.append("    except KeyError:")
        lines.append("        raise _CU()")
        lines.append("    _ebe = 'exceeded %d steps' % MS")
        lines.append("    S = I.steps")
        lines.append("    try:")
        return lines

    def emit_run(self, fname: str) -> str:
        """The whole target loop, as ``Interpreter._exec_loop`` runs it
        for the traced target (trip cap, iteration accounting, access
        events); ``record`` must be set."""
        loop = self.loop
        self.line("it = 0")
        if loop.init is not None:
            self.record = False
            self.st(loop.init)
            self.record = True
        self.flush()
        self.line("_brk0 = False")
        self.line("while True:")
        self.indent += 1
        self.check()
        if loop.cond is not None:
            self.guard_ci = True
            cond = self.ex(loop.cond)
            self.guard_ci = False
            self.flush()
            self.line(f"if not ({cond}): break")
        self.line("CI = it")
        self.line("I.current_iteration = it")
        self.line("TR.iterations = it + 1")
        self.line("it += 1")
        self._body_once(loop.body, "_brk0")
        self.line("if _brk0: break")
        if loop.inc is not None:
            self.ex(loop.inc)
            self.flush()
        self.line("if it >= MT: break")
        self.flush()
        self.line("pass")
        self.indent -= 1
        self.check()
        self.line("CI = -1")
        self.line("I.current_iteration = -1")
        self.line("return it")
        return self._render(fname)

    def emit_body(self, fname: str) -> str:
        """One body execution, as ``exec_stmt(loop.body)`` under a
        ``_ContinueSignal`` catch (the verifier's per-iteration call)."""
        self._body_once(self.loop.body, None)
        self.check()
        self.line("return None")
        return self._render(fname)

    def _render(self, fname: str) -> str:
        body = self.preamble() + self.lines + [
            "    finally:",
            "        I.steps = S",
        ]
        return "\n".join([f"def {fname}(I):"] + body)


class CompiledLoop:
    """One loop lowered to a Python function sharing the interpreter's
    memory model: a single untraced body execution.  The traced whole
    target loop is generated on the first :meth:`run`."""

    __slots__ = ("loop", "source", "_body", "_traced")

    def __init__(self, loop, source: str, body) -> None:
        self.loop = loop
        self.source = source
        self._body = body
        self._traced = None

    def run(self, interp: Interpreter, traced: bool = True) -> int:
        """Execute the whole (prepared) target loop as
        :meth:`Interpreter.run_loop` does, recording its exact
        access-event stream and trace iteration count; returns the trip
        count.  Only the traced form exists: an untraced whole-loop run
        is the interpreter's loop header around :meth:`run_body` (the
        verifier's sequential reference).  Raises
        :class:`CompileUnavailable` — before touching any state — when
        a referenced name is not allocated; callers fall back to
        :meth:`Interpreter._exec_loop`.
        """
        if not traced:
            raise ValueError("only the traced whole loop is compiled; "
                             "drive the header around run_body instead")
        if self._traced is None:
            gen = _Codegen(self.loop, record=True)
            self._traced = _load(gen, gen.emit_run("_run_traced"),
                                 "_run_traced")
        it = self._traced(interp)
        interp.trace.scalar_bases = {
            name for name, (_, shape) in interp.memory.bases.items()
            if not shape
        }
        return it

    def run_body(self, interp: Interpreter) -> None:
        """One untraced body execution (one iteration of the loop);
        top-level ``continue`` is absorbed exactly like ``exec_stmt``
        under a ``_ContinueSignal`` catch, and a top-level ``break``
        raises :class:`~repro.tools.interp._BreakSignal`.  Raises
        :class:`CompileUnavailable` before touching any state when a
        referenced name is not allocated."""
        self._body(interp)


def _load(gen: _Codegen, code: str, fname: str):
    """Compile ``gen``'s generated ``code`` and return its function."""
    namespace = {
        "_EBE": ExecutionBudgetExceeded,
        "_AE": AccessEvent,
        "_BS": _BreakSignal,
        "_CU": CompileUnavailable,
        "_call": _call,
        "_div": _div,
        "_mod": _mod,
        "_unsup": _unsup,
        **gen.bindings,
    }
    exec(compile(code, "<repro.tools.compile>", "exec"), namespace)
    return namespace[fname]


def _compile(loop) -> CompiledLoop | None:
    if not isinstance(loop, ForStmt):
        return None
    try:
        gen = _Codegen(loop, record=False)
        code = gen.emit_body("_run_body")
        return CompiledLoop(loop, code, _load(gen, code, "_run_body"))
    except Exception:
        # any codegen failure degrades to the tree-walker, never to a
        # wrong answer; the parity suite keeps this path honest
        return None


_MEMO: OrderedDict[str, CompiledLoop | None] = OrderedDict()
_STATS = {"hits": 0, "misses": 0, "fallbacks": 0}


def compile_loop(loop: Stmt) -> CompiledLoop | None:
    """Memoized compilation of one loop; ``None`` means "use the
    tree-walker" (unsupported shape, oversized, or compilation
    disabled via ``REPRO_NO_LOOP_COMPILE``).

    The memo key is the unparsed source, so a re-parsed copy of an
    already-compiled loop reuses the code objects: execution only
    depends on loop *structure* (delegated statement nodes from the
    original parse are structurally identical stand-ins).
    """
    if os.environ.get("REPRO_NO_LOOP_COMPILE"):
        return None
    from repro.cfront import unparse

    key = hashlib.sha256(unparse(loop).encode("utf-8")).hexdigest()
    if key in _MEMO:
        _STATS["hits"] += 1
        _MEMO.move_to_end(key)
        return _MEMO[key]
    _STATS["misses"] += 1
    compiled = _compile(loop)
    if compiled is None:
        _STATS["fallbacks"] += 1
    _MEMO[key] = compiled
    while len(_MEMO) > _MEMO_MAX:
        _MEMO.popitem(last=False)
    return compiled


def compile_cache_stats() -> dict:
    """Hit/miss/fallback counters of the in-process compile memo."""
    return {"entries": len(_MEMO), **_STATS}


__all__ = [
    "CompileUnavailable",
    "CompiledLoop",
    "compile_cache_stats",
    "compile_loop",
]
