"""Pluto simulator: polyhedral static parallelism detection.

Decision surface of the real tool (Bondhugula et al. 2008):

- **Applicability** — Pluto extracts Static Control Parts (SCoPs): for
  loops in canonical affine form, bodies made of assignments over arrays
  with affine subscripts, constant-or-parametric affine bounds, *no*
  function calls, no while/do loops, no conditionals, no pointer or
  member accesses.  Anything else is outside the polyhedral model →
  unprocessable.
- **Detection** — inside a SCoP, the loop is parallel iff the polyhedral
  dependence test proves no loop-carried dependence.  Scalar writes
  (including reductions!) create loop-carried dependences: classic
  polyhedral tools do not recognise reduction idioms, which is exactly
  why the paper's Figure 2 shows Pluto missing 1019 reduction loops and
  Listings 1/2 (reduction + call) defeat it.
- **Zero false positives** — the dependence test is exact on the affine
  subset it accepts.
"""

from __future__ import annotations

from repro.cfront.nodes import (
    BinaryOperator,
    CallExpr,
    ConditionalOperator,
    DeclRefExpr,
    DoStmt,
    ForStmt,
    GotoStmt,
    IfStmt,
    MemberExpr,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    UnaryOperator,
    WhileStmt,
)
from repro.tools.base import ParallelTool, ToolResult, ToolVerdict
from repro.tools.deps import analyze_loop


class Pluto(ParallelTool):
    name = "pluto"

    def analyze_loop(self, loop: Stmt, *,
                     pointer_arrays: frozenset[str] = frozenset(),
                     file_meta: dict | None = None) -> ToolResult:
        if pointer_arrays:
            accessed = {
                n.name for n in loop.find_all(DeclRefExpr)
            }
            touched = accessed & set(pointer_arrays)
            if touched:
                # Pointer-based arrays are outside the polyhedral model:
                # the SCoP extractor rejects the region.
                return ToolResult(
                    ToolVerdict.UNPROCESSABLE,
                    reason=f"pointer-based array {sorted(touched)[0]} "
                           f"outside SCoP",
                )
        reason = self._scop_violation(loop)
        if reason is not None:
            return ToolResult(ToolVerdict.UNPROCESSABLE, reason=reason)
        deps = analyze_loop(loop)
        if deps.canonical is None:
            return ToolResult(
                ToolVerdict.UNPROCESSABLE, reason="non-canonical loop"
            )
        if deps.non_affine or deps.inexact_access:
            return ToolResult(
                ToolVerdict.UNPROCESSABLE, reason="non-affine accesses"
            )
        # Polyhedral model: any scalar write that is not privatizable is a
        # loop-carried dependence; reductions are NOT recognised.
        if deps.array_deps:
            return ToolResult(
                ToolVerdict.NOT_PARALLEL,
                reason=f"loop-carried dependence on {deps.array_deps[0].base}",
            )
        if deps.reductions:
            return ToolResult(
                ToolVerdict.NOT_PARALLEL,
                reason="scalar cycle (reduction idiom not in polyhedral model)",
            )
        if deps.shared_scalar_writes:
            return ToolResult(
                ToolVerdict.NOT_PARALLEL,
                reason=f"scalar dependence on {sorted(deps.shared_scalar_writes)[0]}",
            )
        # The polyhedral model has no scalar privatization: a scalar
        # temporary written in the body carries output/anti dependences
        # across iterations (scalar expansion is not applied).
        non_local_privates = deps.privatizable - deps.summary.local_decls
        if non_local_privates:
            return ToolResult(
                ToolVerdict.NOT_PARALLEL,
                reason=f"scalar temporary {sorted(non_local_privates)[0]} "
                       f"(no privatization in the polyhedral model)",
            )
        return ToolResult(ToolVerdict.PARALLEL, patterns={"do-all"})

    # -- SCoP gate -------------------------------------------------------------

    def _scop_violation(self, loop: Stmt) -> str | None:
        """First reason this loop is not a static control part, if any."""
        if not isinstance(loop, ForStmt):
            return f"{loop.kind} is not a SCoP loop"
        for node in loop.walk():
            if isinstance(node, CallExpr):
                return f"function call {node.name or '<indirect>'}()"
            if isinstance(node, (WhileStmt, DoStmt)):
                return "irregular inner loop"
            if isinstance(node, (IfStmt, SwitchStmt, ConditionalOperator)):
                return "data-dependent control flow"
            if isinstance(node, (GotoStmt, ReturnStmt)):
                return "control-flow escape"
            if isinstance(node, MemberExpr):
                return "member access outside polyhedral model"
            if isinstance(node, UnaryOperator) and node.op == "*":
                return "pointer dereference"
            if isinstance(node, BinaryOperator) and node.op in ("%", "/"):
                # Non-affine operators in subscripts/bounds break SCoPs;
                # Pluto rejects the region when they feed control or
                # subscripts.  Conservatively reject on sight.
                return f"non-affine operator {node.op}"
        return None

    def can_process_file(self, file_meta: dict) -> bool:
        """Pluto needs a parseable file; it does not need main() or linking."""
        return bool(file_meta.get("compiles", True))
