"""File-parse stage of the suggestion service.

The cfront frontend is pure python.  The service parses one file at a
time, in process, as it fills each round
(:meth:`~repro.serve.pipeline.SuggestionService.iter_sources`); corpora
parallelise across shard workers, never inside this stage.  Files the
frontend rejects come back as per-file errors, the way the paper's
pipeline dropped files Clang rejected.  Each parse keeps its file's
translation unit beside its requests, so a rewrite attaches pragmas to
that parse instead of parsing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

        Attached ASTs are deliberately dropped: cached requests
        re-parse lazily on use, which keeps the cache plain data and
        the suggestions identical either way.
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


def parse_one(item: tuple[str, str]) -> ParsedFile:
    """(name, source) → extracted loop requests, or a per-file error."""
    name, source = item
    try:
        tu = parse_source(source)
        return ParsedFile(name=name, requests=file_requests(tu), tu=tu)
    except (ParseError, LexError, RecursionError) as exc:
        return ParsedFile(name=name,
                          error=f"{type(exc).__name__}: {exc}")
