"""What one serving request computes: suggestions, or verified rewrites.

Graph2Par answers each loop with one OpenMP pragma, and rewriting only
applies and verifies that same answer — so suggest and rewrite are one
pipeline, and :class:`Job` is the one place that knows which of the
two a request asks for.  Exactly four things depend on it:

- the in-process core that runs (:meth:`Job.run`):
  :meth:`~repro.serve.pipeline.SuggestionService.iter_sources` or
  :meth:`~repro.serve.pipeline.SuggestionService.iter_rewrites`;
- the type a result payload revives into (:meth:`Job.revive`):
  :class:`~repro.serve.pipeline.FileSuggestions` or
  :class:`~repro.rewrite.FileRewrite`;
- the wire request (:meth:`Job.request`, and back via :meth:`Job.of`):
  :class:`~repro.serve.protocol.SuggestRequest` or
  :class:`~repro.serve.protocol.RewriteRequest`;
- the per-file step over one file's finished suggestions
  (:meth:`Job.finish`): none, or the verified AST rewrite with the
  service's verdict store and verifier counters.

Shard workers, the shard supervisor, fabric relays, the daemon, the
client and the CLI carry a ``Job`` through and never branch on it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.serve import protocol

#: the job kinds, one per wire request kind
MODES = ("suggest", "rewrite")


@dataclass(frozen=True)
class Job:
    """One request's kind: ``Job()`` suggests, ``Job("rewrite")``
    applies the suggestions as verified rewrites.

    ``verify`` only matters for rewrite: ``False`` skips the
    interpreter gate and accepted loops carry code ``unverified``.  A
    frozen value, so it pickles into shard workers unchanged.
    """

    mode: str = "suggest"
    verify: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"job mode must be one of {MODES}, "
                             f"got {self.mode!r}")

    @classmethod
    def of(cls, request: protocol.SuggestRequest) -> "Job":
        """The job a wire request asks for."""
        from repro.serve import protocol

        if isinstance(request, protocol.RewriteRequest):
            return cls("rewrite", verify=request.verify)
        return cls()

    def request(self, **fields) -> protocol.SuggestRequest:
        """This job's wire request; ``fields`` are the ones every
        request kind shares (``sources``/``paths``/``dir``, ``bundle``,
        ``ordered``, ``stream``, ``shards``, ...)."""
        from repro.serve import protocol

        if self.mode == "rewrite":
            return protocol.RewriteRequest(verify=self.verify, **fields)
        return protocol.SuggestRequest(**fields)

    def served_by(self, capabilities: dict) -> bool:
        """Whether a daemon advertising ``capabilities`` takes this job:
        every daemon suggests, rewrite is an additive capability."""
        return self.mode == "suggest" or bool(capabilities.get(self.mode))

    def run(self, service, named) -> Iterator[tuple[int, object]]:
        """``(input_index, result)`` pairs from ``service``'s in-process
        core, in completion order."""
        if self.mode == "rewrite":
            return service.iter_rewrites(named, verify=self.verify)
        return service.iter_sources(named)

    def finish(self, service, name: str, source: str, suggestions):
        """This job's result for one file whose ``FileSuggestions`` are
        done: the suggestions themselves, or their verified rewrite —
        ``service``'s store serves cached verdicts and its verifier
        counters accumulate the simulations."""
        if self.mode != "rewrite":
            return suggestions
        from repro.rewrite import rewrite_file

        return rewrite_file(name, source, suggestions, verify=self.verify,
                            store=service.store,
                            stats=service.counts["verify"])

    def revive(self, name: str, payload: dict):
        """A result back from its ``(name, payload)`` wire form."""
        if self.mode == "rewrite":
            from repro.rewrite import FileRewrite

            return FileRewrite.from_payload(name, payload)
        from repro.serve.pipeline import FileSuggestions

        return FileSuggestions.from_payload(name, payload)


#: the default job
SUGGEST = Job()
#: a verified rewrite
REWRITE = Job("rewrite")
