"""CPU-bound file-parse stage of the suggestion service.

The cfront frontend is pure python and dominates serving latency for
large corpora, so this stage can fan out over a process pool.  Workers
exchange only plain picklable payloads (loop sources + live-out name
sets wrapped in :class:`~repro.suggest.LoopRequest`), never AST
objects; files the frontend rejects come back as per-file errors, the
way the paper's pipeline dropped files Clang rejected.  An in-process
parse keeps each file's translation unit beside its requests, so a
rewrite attaches pragmas to that parse instead of parsing again.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from repro.cfront import ParseError, TranslationUnit, parse_source
from repro.cfront.lexer import LexError
from repro.suggest import LoopRequest, file_requests


@dataclass
class ParsedFile:
    """Parse-stage output for one file."""

    name: str
    requests: list[LoopRequest] = field(default_factory=list)
    error: str | None = None
    #: the translation unit the requests' ``ast`` statements belong to,
    #: in process only: never in a payload, the store or a pickle
    tu: TranslationUnit | None = field(default=None, compare=False,
                                       repr=False)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "tu"}

    def to_payload(self) -> dict:
        """JSON-safe payload for the persistent parse cache.

        Attached ASTs are deliberately dropped (like the process-pool
        path): cached requests re-parse lazily on use, which keeps the
        cache plain data and the suggestions identical either way.
        """
        return {
            "error": self.error,
            "requests": [
                {"source": r.source, "live_out": sorted(r.live_out)}
                for r in self.requests
            ],
        }

    @classmethod
    def from_payload(cls, name: str, payload: dict) -> "ParsedFile":
        return cls(
            name=name,
            requests=[
                LoopRequest(source=d["source"],
                            live_out=frozenset(d["live_out"]))
                for d in payload["requests"]
            ],
            error=payload["error"],
        )


def parse_one(item: tuple[str, str], with_asts: bool = True) -> ParsedFile:
    """(name, source) → extracted loop requests, or a per-file error.

    ``with_asts=False`` keeps the requests plain (no attached loop
    statements, no translation unit) so they pickle cheaply across
    process boundaries.
    """
    name, source = item
    try:
        tu = parse_source(source)
        return ParsedFile(
            name=name, requests=file_requests(tu, with_asts=with_asts),
            tu=tu if with_asts else None,
        )
    except (ParseError, LexError, RecursionError) as exc:
        return ParsedFile(name=name,
                          error=f"{type(exc).__name__}: {exc}")


def parse_many(
    named_sources: list[tuple[str, str]],
    workers: int = 1,
) -> list[ParsedFile]:
    """Parse many ``(name, source)`` pairs, preserving order.

    ``workers <= 1`` (or a single file) runs in-process; otherwise a
    :class:`ProcessPoolExecutor` spreads the CPU-bound frontend across
    cores.  Environments that cannot spawn processes fall back to the
    serial path rather than failing the request.
    """
    items = list(named_sources)
    if workers <= 1 or len(items) < 2:
        return [parse_one(item) for item in items]
    chunksize = max(1, len(items) // (workers * 4))
    plain = partial(parse_one, with_asts=False)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(plain, items, chunksize=chunksize))
    except (OSError, PermissionError):
        return [parse_one(item) for item in items]
