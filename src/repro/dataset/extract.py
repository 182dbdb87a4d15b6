"""Loop extraction and labelling from C source text.

Mirrors the paper's data-processing step (section 4.2): parse the file
(the compilability check), walk every function body, emit one sample per
loop, labelled by the OpenMP pragma attached to it.  Nested loops yield a
sample for the outermost statement only — the paper's loop count treats a
nest as one (outer) loop with ``Nested Loops`` set.

:func:`function_loops` is the one walk that decides which loops a file
has, their order and their pragma-free text.  Training samples
(:func:`extract_loops_from_source`), served requests
(:func:`repro.suggest.file_requests`) and verified rewrites
(:func:`repro.rewrite.rewrite_file`) all take their loops from it, so
the three agree on every file's loops.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.cfront import parse_source, unparse
from repro.cfront.nodes import LOOP_KINDS, FunctionDecl, Stmt
from repro.dataset.sample import LoopSample
from repro.pragma import loop_label
from repro.tools.access import collect_accesses


def _outermost_loops(root) -> list[Stmt]:
    """Loop statements not contained in another loop."""
    out: list[Stmt] = []

    def visit(node, inside_loop: bool) -> None:
        is_loop = isinstance(node, LOOP_KINDS)
        if is_loop and not inside_loop:
            out.append(node)
        for child in node.children():
            visit(child, inside_loop or is_loop)

    visit(root, False)
    return out


def function_loops(tu) -> Iterator[tuple[FunctionDecl, Stmt, str]]:
    """``(function, loop, source)`` for every outermost loop of every
    function body of a parsed translation unit, in source order.

    ``source`` is the loop unparsed without its own pragmas — the text
    models see, suggestions describe and rewrites align on.  The unit
    is left as it was.
    """
    for fn in tu.functions():
        if fn.body is None:
            continue
        for loop in _outermost_loops(fn.body):
            saved = loop.pragmas
            loop.pragmas = []
            try:
                source = unparse(loop)
            finally:
                loop.pragmas = saved
            yield fn, loop, source


def _loop_sample(fn, loop: Stmt, source: str, origin: str, file_id: int,
                 file_meta: dict | None) -> LoopSample:
    """One outermost loop as a sample labelled by its pragma."""
    parallel, category = loop_label(loop.pragmas)
    summary = collect_accesses(getattr(loop, "body", loop))
    # One walk collects every name; checking each pointer param with
    # its own walk made extraction quadratic in parameter count.
    names_in_loop = {
        name for n in loop.walk()
        if (name := getattr(n, "name", None)) is not None
    }
    return LoopSample(
        source=source,
        parallel=parallel,
        category=category,
        pragma=loop.pragmas[0] if loop.pragmas else None,
        origin=origin,
        has_call=summary.has_calls,
        nested=summary.has_inner_loop,
        loc=sum(1 for line in source.splitlines() if line.strip()),
        file_id=file_id,
        file_meta=dict(file_meta or {}),
        pointer_arrays=sorted(
            p.name for p in fn.params
            if p.var_type.pointers > 0 and p.name in names_in_loop
        ),
    )


def extract_loops_from_source(
    source: str,
    origin: str = "github",
    file_id: int = -1,
    file_meta: dict | None = None,
) -> list[LoopSample]:
    """Parse a C file and return one labelled sample per outermost loop.

    Raises :class:`ParseError`/:class:`LexError` when the file does not
    "compile" — callers drop such files, like the paper dropped the
    10 269 files Clang rejected.
    """
    return [
        _loop_sample(fn, loop, loop_source, origin, file_id, file_meta)
        for fn, loop, loop_source in function_loops(parse_source(source))
    ]
