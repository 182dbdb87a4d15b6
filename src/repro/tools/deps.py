"""Loop dependence analysis shared by the static tools.

Combines the canonical-loop recogniser, the access collector and the
affine dependence tests into a single verdict object describing:

- loop-carried array dependences (with the access pair that causes them),
- scalar classification: induction / local / privatizable / reduction /
  shared (the last one blocks parallelism),
- structural facts (calls, inner loops, inexact accesses).

All decisions are conservative: "maybe" means "dependence".

:func:`analyze_loop` memoizes by *structural* loop hash (the unparsed
source, so two parses of the same loop — ubiquitous in warm serving
workloads and deduplicated corpora — share one analysis).  The cached
:class:`LoopDeps` is returned as-is and must be treated as immutable;
:func:`cache_stats` exposes hit/miss counters.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cfront.nodes import (
    BinaryOperator,
    DeclRefExpr,
    Expr,
    ExprStmt,
    Stmt,
    UnaryOperator,
)
from repro.tools.access import Access, AccessSummary, collect_accesses
from repro.tools.affine import affine_pair_dependent, to_affine
from repro.tools.canonical import CanonicalLoop, recognize_canonical

#: Reduction operators our recognisers accept (associative + commutative,
#: matching the paper's synthetic generator plus min/max via operators).
REDUCTION_BINOPS = {"+": "+", "-": "+", "*": "*", "&": "&", "|": "|", "^": "^"}
REDUCTION_COMPOUND = {"+=": "+", "-=": "+", "*=": "*", "&=": "&",
                      "|=": "|", "^=": "^"}


@dataclass
class ArrayDependence:
    """A (possible) loop-carried dependence between two array accesses."""

    base: str
    kind: str          # "flow" (W->R), "anti" (R->W), "output" (W->W)
    src: Access
    dst: Access
    reason: str = ""


@dataclass
class ReductionInfo:
    var: str
    op: str
    statements: int     # number of update statements


@dataclass
class LoopDeps:
    """Full static analysis result for one loop."""

    canonical: CanonicalLoop | None
    summary: AccessSummary
    array_deps: list[ArrayDependence] = field(default_factory=list)
    reductions: list[ReductionInfo] = field(default_factory=list)
    privatizable: set[str] = field(default_factory=set)
    shared_scalar_writes: set[str] = field(default_factory=set)
    non_affine: bool = False
    inexact_access: bool = False

    @property
    def has_calls(self) -> bool:
        return self.summary.has_calls

    @property
    def has_inner_loop(self) -> bool:
        return self.summary.has_inner_loop

    def is_doall(self, allow_reductions: bool = False,
                 assume_calls_pure: bool = False) -> bool:
        """Can iterations run independently?

        ``allow_reductions``: treat recognised reductions as removable
        dependences (what autoPar does with a reduction clause).
        ``assume_calls_pure``: ignore function calls (no real tool does
        this by default — exposed for the oracle/labelling path).
        """
        if self.canonical is None:
            return False
        if self.non_affine or self.inexact_access:
            return False
        if self.has_calls and not assume_calls_pure:
            return False
        if self.array_deps:
            return False
        if self.shared_scalar_writes:
            return False
        if self.reductions and not allow_reductions:
            return False
        return True


def _reduction_statements(body: Stmt, var_blacklist: set[str],
                          include_conditional: bool = False) -> dict[str, list[str]]:
    """Map scalar name → list of reduction ops from its update statements.

    Recognises the classic shapes on unconditional statements (including
    inside inner loops, where they still accumulate for the outer loop)::

        s += expr;   s = s + expr;   s = expr + s;   s++;   s--;

    Anything else touching ``s`` disqualifies it (handled by the caller
    via access counting).
    """
    updates: dict[str, list[str]] = {}

    def visit(stmt: Stmt) -> None:
        from repro.cfront.nodes import CompoundStmt, ForStmt, WhileStmt, DoStmt, IfStmt
        if isinstance(stmt, CompoundStmt):
            for inner in stmt.stmts:
                visit(inner)
            return
        if isinstance(stmt, (ForStmt, WhileStmt, DoStmt)):
            visit(stmt.body)
            return
        if isinstance(stmt, IfStmt) and include_conditional:
            # ``if (c) s += e;`` is a legal OpenMP reduction; only the
            # idealised oracle accepts it — real pattern tables do not.
            visit(stmt.then)
            if stmt.els is not None:
                visit(stmt.els)
            return
        if not isinstance(stmt, ExprStmt) or stmt.expr is None:
            return
        e = stmt.expr
        # Counting updates: ``n++`` / ``n--`` are + reductions.
        if isinstance(e, UnaryOperator) and e.is_incdec \
                and isinstance(e.operand, DeclRefExpr) \
                and e.operand.name not in var_blacklist:
            updates.setdefault(e.operand.name, []).append("+")
            return
        if not isinstance(e, BinaryOperator) or not e.is_assignment:
            return
        if not isinstance(e.lhs, DeclRefExpr):
            return
        name = e.lhs.name
        if name in var_blacklist:
            return
        if e.op in REDUCTION_COMPOUND:
            # s op= expr, with expr not reading s
            if not _reads_var(e.rhs, name):
                updates.setdefault(name, []).append(REDUCTION_COMPOUND[e.op])
            return
        if e.op == "=" and isinstance(e.rhs, BinaryOperator):
            op = _chain_reduction_op(e.rhs, name)
            if op is not None:
                updates.setdefault(name, []).append(op)

    visit(body)
    return updates


def _chain_reduction_op(rhs: BinaryOperator, name: str) -> str | None:
    """Reduction operator when ``rhs`` is an op-chain folding ``name``.

    Handles associativity chains like ``s = s * a[i] * b[i]`` or
    ``s = a[i] + s + b[i]``: flatten the chain of one operator family
    (``+/-`` or ``*`` or one bitwise op), require exactly one leaf to be
    ``name`` — positively signed for the additive family — and no other
    leaf to read it.
    """
    family: str | None = None
    if rhs.op in ("+", "-"):
        family = "+"
        ops = ("+", "-")
    elif rhs.op in ("*", "&", "|", "^"):
        family = REDUCTION_BINOPS[rhs.op]
        ops = (rhs.op,)
    else:
        return None

    leaves: list[tuple[Expr, bool]] = []  # (leaf, negated?)

    def flatten(node: Expr, negated: bool) -> None:
        if isinstance(node, BinaryOperator) and node.op in ops \
                and not node.is_assignment:
            flatten(node.lhs, negated)
            flatten(node.rhs, negated or node.op == "-")
        else:
            leaves.append((node, negated))

    flatten(rhs, False)
    self_leaves = [
        (leaf, neg) for leaf, neg in leaves
        if isinstance(leaf, DeclRefExpr) and leaf.name == name
    ]
    if len(self_leaves) != 1:
        return None
    if self_leaves[0][1]:
        return None  # s appears negated: not an accumulation
    others = [leaf for leaf, _ in leaves if leaf is not self_leaves[0][0]]
    if any(_reads_var(leaf, name) for leaf in others):
        return None
    return family


def _reads_var(expr: Expr, name: str) -> bool:
    return any(
        isinstance(n, DeclRefExpr) and n.name == name for n in expr.walk()
    )


#: LRU memo of (structural hash, conditional_reductions) → LoopDeps
_DEPS_CACHE: OrderedDict[tuple[str, bool], LoopDeps] = OrderedDict()
_DEPS_CACHE_MAX = 4096
_deps_cache_counts = {"hits": 0, "misses": 0}


def loop_structural_hash(loop: Stmt) -> str:
    """Identity of a loop up to formatting: SHA-1 of its unparse.

    Two independently parsed copies of the same loop hash equal (the
    unparser canonicalises whitespace and redundant parentheses), so
    the memo fires across files, shards and repeated requests.
    """
    from repro.cfront.unparse import unparse

    return hashlib.sha1(unparse(loop).encode("utf-8")).hexdigest()


def cache_stats() -> dict:
    """Hit/miss/entry counters of the :func:`analyze_loop` memo."""
    return {**_deps_cache_counts, "entries": len(_DEPS_CACHE)}


def clear_cache() -> None:
    """Drop the :func:`analyze_loop` memo and reset its counters."""
    _DEPS_CACHE.clear()
    _deps_cache_counts["hits"] = 0
    _deps_cache_counts["misses"] = 0


def analyze_loop(loop: Stmt, conditional_reductions: bool = False) -> LoopDeps:
    """Run the full static dependence analysis on one loop statement.

    ``conditional_reductions`` widens reduction recognition to updates
    under ``if`` — legal OpenMP, but outside real tools' pattern tables;
    only the labelling oracle turns it on.

    Results are memoized by :func:`loop_structural_hash`: the analysis
    is a pure function of loop structure, so repeated loops (warm
    serving workloads, duplicated corpora, the suggester's per-loop
    compose step) pay for it once.  Callers must treat the returned
    :class:`LoopDeps` as read-only.
    """
    key = (loop_structural_hash(loop), conditional_reductions)
    cached = _DEPS_CACHE.get(key)
    if cached is not None:
        _DEPS_CACHE.move_to_end(key)
        _deps_cache_counts["hits"] += 1
        return cached
    _deps_cache_counts["misses"] += 1
    deps = _analyze_loop_uncached(loop, conditional_reductions)
    _DEPS_CACHE[key] = deps
    while len(_DEPS_CACHE) > _DEPS_CACHE_MAX:
        _DEPS_CACHE.popitem(last=False)
    return deps


def _analyze_loop_uncached(loop: Stmt,
                           conditional_reductions: bool) -> LoopDeps:
    canonical = recognize_canonical(loop)
    body = getattr(loop, "body", loop)
    summary = collect_accesses(body)
    deps = LoopDeps(canonical=canonical, summary=summary)
    if canonical is None:
        return deps

    loop_var = canonical.var
    loop_vars = {loop_var} | _inner_loop_vars(body)

    # --- scalar classification ------------------------------------------------
    scalar_writes: dict[str, list[Access]] = {}
    for acc in summary.accesses:
        if acc.is_scalar and acc.is_write and acc.base not in loop_vars:
            scalar_writes.setdefault(acc.base, []).append(acc)
    reduction_updates = _reduction_statements(
        body, loop_vars, include_conditional=conditional_reductions,
    )

    for name, writes in scalar_writes.items():
        if name in summary.local_decls:
            deps.privatizable.add(name)
            continue
        reads = summary.reads(name)
        ops = reduction_updates.get(name, [])
        n_updates = len(ops)
        # Reduction: every write and read of the scalar comes from its
        # reduction statements (1 read + 1 write per compound update).
        if ops and len(set(ops)) == 1 and len(writes) == n_updates \
                and len(reads) == n_updates:
            deps.reductions.append(
                ReductionInfo(var=name, op=ops[0], statements=n_updates)
            )
            continue
        # Privatizable: first access in evaluation order is an
        # unconditional write.
        all_accs = sorted(
            [a for a in summary.accesses if a.base == name and a.is_scalar],
            key=lambda a: a.order,
        )
        if all_accs and all_accs[0].is_write and not all_accs[0].conditional:
            deps.privatizable.add(name)
            continue
        deps.shared_scalar_writes.add(name)

    # --- array dependence testing ----------------------------------------------
    for base in summary.written_bases():
        accs = [a for a in summary.accesses if a.base == base and a.subscripts]
        if not accs:
            continue
        if any(not a.exact for a in accs):
            deps.inexact_access = True
        writes = [a for a in accs if a.is_write]
        if not writes:
            continue
        others = accs
        for w in writes:
            for o in others:
                if o is w:
                    continue
                if not w.is_write and not o.is_write:
                    continue
                dep = _pair_dependent(w, o, loop_var, loop_vars)
                if dep is None:
                    deps.non_affine = True
                elif dep:
                    kind = "output" if o.is_write else (
                        "flow" if w.stmt_index <= o.stmt_index else "anti"
                    )
                    deps.array_deps.append(ArrayDependence(
                        base=base, kind=kind, src=w, dst=o,
                        reason="affine test reports possible loop-carried dependence",
                    ))
        # Writes whose subscripts ignore the loop variable hit the same
        # cell every iteration: loop-carried output dependence.  A write
        # through a non-affine subscript is flagged for conservatism.
        for w in writes:
            affs = [to_affine(s, loop_vars) for s in w.subscripts]
            if any(a is None for a in affs):
                deps.non_affine = True
            elif all(a.coeff(loop_var) == 0 for a in affs):
                deps.array_deps.append(ArrayDependence(
                    base=base, kind="output", src=w, dst=w,
                    reason="subscript invariant in loop variable",
                ))

    # Deduplicate symmetrical pairs.
    seen: set[tuple[int, int]] = set()
    unique: list[ArrayDependence] = []
    for d in deps.array_deps:
        key = tuple(sorted((id(d.src), id(d.dst))))
        if key not in seen:
            seen.add(key)
            unique.append(d)
    deps.array_deps = unique
    return deps


def _inner_loop_vars(body: Stmt) -> set[str]:
    """Induction variables of inner loops (treated as extra loop dims)."""
    from repro.cfront.nodes import LOOP_KINDS
    out: set[str] = set()
    for node in body.walk():
        if isinstance(node, LOOP_KINDS):
            canon = recognize_canonical(node)
            if canon is not None:
                out.add(canon.var)
    return out


def _pair_dependent(a: Access, b: Access, loop_var: str,
                    loop_vars: set[str]) -> bool | None:
    """Loop-carried dependence between two subscripted accesses.

    ``None`` = non-affine (caller turns that into conservatism),
    ``False`` = proven independent w.r.t. the outer loop variable.
    """
    if len(a.subscripts) != len(b.subscripts):
        return None
    any_dim_independent = False
    for sa, sb in zip(a.subscripts, b.subscripts):
        fa = to_affine(sa, loop_vars)
        fb = to_affine(sb, loop_vars)
        if fa is None or fb is None:
            return None
        if not affine_pair_dependent(fa, fb, loop_var):
            any_dim_independent = True
    return not any_dim_independent
