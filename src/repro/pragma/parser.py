"""Parser for ``#pragma omp`` lines and the OMP_Serial labelling rule."""

from __future__ import annotations

import re

from repro.pragma.model import (
    CATEGORIES,
    OmpClause,
    OmpPragma,
    PragmaError,
    REDUCTION_OPS,
)

#: Directive words that may open an ``omp`` pragma, in composition order.
_DIRECTIVE_WORDS = frozenset(
    """
    parallel for simd target teams distribute sections section single task
    taskloop master critical atomic barrier taskwait flush ordered declare
    threadprivate
    """.split()
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_omp_pragma(text: str) -> OmpPragma | None:
    """Parse one pragma line.

    ``text`` is the pragma body with or without the leading ``#``
    (``"pragma omp parallel for reduction(+:sum)"``).  Returns ``None``
    when the pragma is not an OpenMP one (e.g. ``#pragma unroll``), raises
    :class:`PragmaError` when an ``omp`` pragma is malformed.
    """
    body = text.strip()
    if body.startswith("#"):
        body = body[1:].strip()
    if body.startswith("pragma"):
        body = body[len("pragma"):].strip()
    if not body.startswith("omp"):
        return None
    rest = body[len("omp"):].strip()

    directives: list[str] = []
    pos = 0
    while True:
        m = _IDENT_RE.match(rest, pos)
        if not m:
            break
        word = m.group(0)
        # A directive word followed by '(' is actually a clause (e.g. the
        # pathological ``omp parallel for private(i)``: 'private' is not in
        # _DIRECTIVE_WORDS so the loop stops there anyway).
        if word not in _DIRECTIVE_WORDS:
            break
        follow = rest[m.end():m.end() + 1]
        if follow == "(":
            break
        directives.append(word)
        pos = m.end()
        while pos < len(rest) and rest[pos] in " \t":
            pos += 1
    if not directives:
        raise PragmaError(f"no OpenMP directive in {text!r}")

    clauses = _parse_clauses(rest[pos:], text)
    return OmpPragma(directives=directives, clauses=clauses, raw=text)


def _parse_clauses(text: str, origin: str) -> list[OmpClause]:
    clauses: list[OmpClause] = []
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos] in " \t,":
            pos += 1
        if pos >= n:
            break
        m = _IDENT_RE.match(text, pos)
        if not m:
            raise PragmaError(f"malformed clause list in {origin!r}")
        name = m.group(0)
        pos = m.end()
        args: list[str] = []
        reduction_op: str | None = None
        if pos < n and text[pos] == "(":
            depth = 1
            start = pos + 1
            pos += 1
            while pos < n and depth:
                if text[pos] == "(":
                    depth += 1
                elif text[pos] == ")":
                    depth -= 1
                pos += 1
            if depth:
                raise PragmaError(f"unbalanced parens in {origin!r}")
            inner = text[start : pos - 1].strip()
            if name == "reduction":
                if ":" not in inner:
                    raise PragmaError(f"reduction clause missing ':' in {origin!r}")
                op, _, varlist = inner.partition(":")
                reduction_op = op.strip()
                if reduction_op not in REDUCTION_OPS:
                    raise PragmaError(
                        f"unknown reduction operator {reduction_op!r} in {origin!r}"
                    )
                args = [v.strip() for v in varlist.split(",") if v.strip()]
            else:
                args = [v.strip() for v in inner.split(",") if v.strip()]
        clauses.append(OmpClause(name=name, args=args, reduction_op=reduction_op))
    return clauses


def pragma_category(pragma: OmpPragma) -> str:
    """Map a pragma to its OMP_Serial category.

    Priority follows Table 1's partition: ``target`` and ``simd`` are
    directive-level properties and take precedence, then ``reduction`` and
    ``private`` clause presence, finally plain ``parallel``.
    """
    if pragma.has_directive("target"):
        return "target"
    if pragma.has_directive("simd"):
        return "simd"
    if pragma.has_clause("reduction"):
        return "reduction"
    if (
        pragma.has_clause("private")
        or pragma.has_clause("firstprivate")
        or pragma.has_clause("lastprivate")
    ):
        return "private"
    return "parallel"


def loop_label(pragmas: list[str]) -> tuple[bool, str | None]:
    """OMP_Serial labelling rule for a loop's attached pragma lines.

    Returns ``(parallel?, category)``.  A loop is *parallel* when any
    attached OpenMP pragma carries a worksharing-loop directive; its
    category is that of the first such pragma.  Loops without OpenMP
    pragmas are non-parallel (category ``None``).
    """
    for text in pragmas:
        try:
            parsed = parse_omp_pragma(text)
        except PragmaError:
            continue
        if parsed is None:
            continue
        if parsed.is_loop_directive:
            category = pragma_category(parsed)
            assert category in CATEGORIES
            return True, category
    return False, None
