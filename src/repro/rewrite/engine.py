"""The rewrite pass: suggestions in, verified transformed C out.

:func:`rewrite_file` consumes one file's :class:`FileSuggestions` (from
any serving path — in-process, sharded, daemon).  Fresh suggestions
carry their file's parse, so the file is not parsed again; only
suggestions replayed from the store or revived from the wire are
re-parsed and aligned with the file's outermost loops (the same
function-by-function walk :func:`repro.suggest.file_requests` uses).
For each predicted-parallel loop the pass synthesizes the clause plan
(:mod:`repro.rewrite.clauses`), verifies it against the interpreter
(:mod:`repro.rewrite.verify`), and — only on acceptance — attaches the
pragma to the AST.  The result carries per-loop outcomes plus the
whole transformed file unparsed as round-trippable C.

Every outcome has a stable ``code``:

===================== =====================================================
``verified``          accepted; sequential and simulated-parallel agree
``unverified``        accepted without verification (``verify=False``)
``not-parallel``      the model kept the loop sequential (not a refusal)
``unparseable``       the snippet does not parse (bare-loop path)
``misaligned``        suggestions do not line up with the file's loops
``non-canonical``     no enumerable iteration space
``shared-scalar``     a scalar write no clause can legalise
``divergence``        observable state differs across schedules
``unsupported-construct`` the interpreter cannot execute the loop
``budget-exceeded``   the execution budget ran out
``no-iterations``     zero-trip runs verified nothing
===================== =====================================================

The pass is deterministic end to end (fixed seeds, sorted clause
lists), so daemon-served rewrites are byte-identical to in-process
ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cfg.analysis import scalars_read_after
from repro.cfront import LexError, ParseError, parse_source, unparse
from repro.cfront.parser import parse_loop
from repro.dataset.extract import _outermost_loops
from repro.rewrite.clauses import PlanError, plan_clauses
from repro.rewrite.verify import (
    DEFAULT_CONFIG,
    VerifyConfig,
    revive_verdict,
    verdict_key,
    verify_loop,
)

#: codes of accepted rewrites
ACCEPT_CODES = ("verified", "unverified")
#: stable refusal codes (shared with the verifier and the wire)
REFUSAL_CODES = ("not-parallel", "unparseable", "misaligned",
                 "non-canonical", "shared-scalar", "divergence",
                 "unsupported-construct", "budget-exceeded",
                 "no-iterations")


@dataclass
class LoopRewrite:
    """The outcome of rewriting one loop."""

    loop_source: str
    accepted: bool
    code: str
    pragma: str | None = None
    rewritten: str | None = None      # pragma + loop, round-trippable C
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "loop_source": self.loop_source,
            "accepted": self.accepted,
            "code": self.code,
            "pragma": self.pragma,
            "rewritten": self.rewritten,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopRewrite":
        return cls(
            loop_source=data["loop_source"],
            accepted=bool(data["accepted"]),
            code=data["code"],
            pragma=data.get("pragma"),
            rewritten=data.get("rewritten"),
            detail=data.get("detail", ""),
        )


@dataclass
class FileRewrite:
    """All rewrite outcomes for one file (or its frontend error)."""

    name: str
    rewrites: list[LoopRewrite] = field(default_factory=list)
    rewritten_source: str | None = None
    error: str | None = None
    #: per-file verifier counters (simulations, compiled vs interpreted
    #: runs, cached verdicts, elapsed seconds) — local observability
    #: only: excluded from equality and from the wire payload, so the
    #: byte-identity contracts with PR 7 outputs hold
    verifier: dict | None = field(default=None, compare=False,
                                  repr=False)

    @property
    def n_accepted(self) -> int:
        return sum(r.accepted for r in self.rewrites)

    @property
    def n_refused(self) -> int:
        return sum(not r.accepted and r.code != "not-parallel"
                   for r in self.rewrites)

    def to_payload(self) -> dict:
        """JSON-safe payload (minus the name, matching the
        :class:`~repro.serve.pipeline.FileSuggestions` convention)."""
        return {
            "error": self.error,
            "rewritten_source": self.rewritten_source,
            "rewrites": [r.to_dict() for r in self.rewrites],
        }

    @classmethod
    def from_payload(cls, name: str, payload: dict) -> "FileRewrite":
        return cls(
            name=name,
            rewrites=[LoopRewrite.from_dict(d)
                      for d in payload["rewrites"]],
            rewritten_source=payload["rewritten_source"],
            error=payload["error"],
        )


def _strip_unparse(loop) -> str:
    """The loop's source without its pragmas — the form suggestions
    (and the dataset extractor) describe loops in."""
    saved = loop.pragmas
    loop.pragmas = []
    try:
        return unparse(loop)
    finally:
        loop.pragmas = saved


def _verdict_for(loop, loop_source: str, plan, config, store,
                 stats: dict | None):
    """The verdict for one planned loop: persistent cache first (keyed
    by loop source, plan, config fingerprint and verifier version),
    simulation only on a miss.  ``store`` is duck-typed — anything with
    ``get_verdict``/``put_verdict`` (the serve layer's
    ``SuggestionStore``) or ``None``."""
    key = None
    if store is not None and hasattr(store, "get_verdict"):
        key = verdict_key(loop_source, plan, config or DEFAULT_CONFIG)
        verdict = revive_verdict(store.get_verdict(key))
        if verdict is not None:
            if stats is not None:
                stats["cached_verdicts"] = \
                    stats.get("cached_verdicts", 0) + 1
            return verdict
    verdict = verify_loop(loop, plan, config, stats=stats)
    if key is not None:
        store.put_verdict(key, verdict.to_dict())
    return verdict


def _attempt(loop, loop_source: str, live_out: frozenset[str],
             verify: bool, config: VerifyConfig | None,
             store=None, stats: dict | None = None) -> LoopRewrite:
    """Plan, verify, and (on acceptance) attach the pragma to ``loop``."""
    t0 = time.perf_counter()
    try:
        plan = plan_clauses(loop, live_out)
    except PlanError as exc:
        return LoopRewrite(loop_source=loop_source, accepted=False,
                           code=exc.code, detail=exc.detail)
    if verify:
        verdict = _verdict_for(loop, loop_source, plan, config, store,
                               stats)
        if stats is not None:
            stats["elapsed_s"] = (stats.get("elapsed_s", 0.0)
                                  + time.perf_counter() - t0)
        if not verdict.ok:
            return LoopRewrite(loop_source=loop_source, accepted=False,
                               code=verdict.code, detail=verdict.detail)
        code, detail = "verified", verdict.detail
    else:
        code, detail = "unverified", "verification disabled"
    pragma = plan.pragma()
    # replace any pre-existing pragma: the rewrite owns this loop now
    loop.pragmas = [pragma.lstrip("#")]
    return LoopRewrite(loop_source=loop_source, accepted=True, code=code,
                       pragma=pragma, rewritten=unparse(loop),
                       detail=detail)


def rewrite_loop(loop_source: str,
                 live_out: frozenset[str] = frozenset(), *,
                 verify: bool = True,
                 config: VerifyConfig | None = None,
                 store=None, stats: dict | None = None) -> LoopRewrite:
    """Rewrite one bare loop snippet (no model in the loop: the caller
    asserts parallel intent; analysis and the verifier gate it)."""
    try:
        loop = parse_loop(loop_source)
    except (LexError, ParseError) as exc:
        return LoopRewrite(loop_source=loop_source, accepted=False,
                           code="unparseable", detail=str(exc))
    loop.pragmas = []
    return _attempt(loop, loop_source, frozenset(live_out),
                    verify=verify, config=config, store=store,
                    stats=stats)


def _parsed_requests(file_suggestions, suggestions) -> list | None:
    """The :class:`~repro.suggest.LoopRequest` behind each suggestion
    when the suggestions carry the in-process parse they were computed
    from (``FileSuggestions.parsed``), else ``None``."""
    parsed = getattr(file_suggestions, "parsed", None)
    if parsed is None or parsed.tu is None:
        return None
    requests = parsed.requests
    if len(requests) != len(suggestions) or any(
            r.ast is None or r.source != s.loop_source
            for r, s in zip(requests, suggestions)):
        return None
    return requests


def rewrite_file(name: str, source: str, file_suggestions, *,
                 verify: bool = True,
                 config: VerifyConfig | None = None,
                 store=None, stats: dict | None = None) -> FileRewrite:
    """Apply one file's suggestions as verified AST rewrites.

    ``file_suggestions`` is a
    :class:`~repro.serve.pipeline.FileSuggestions` (or anything with
    ``suggestions`` / ``error``).  Fresh suggestions carry the parse
    they were computed from, and each loop and its live-out set come
    straight from it.  Suggestions replayed from the store or revived
    from the wire carry none: the file is parsed again and each
    suggestion aligned with its outermost loop in extraction order,
    where a mismatch refuses with ``misaligned`` rather than guessing.  The returned ``rewritten_source`` is the
    whole file with accepted pragmas attached — refused and sequential
    loops keep their original text.  A shared parse is left as it came:
    every pragma attached here is restored before returning.

    ``store`` (optional, duck-typed) serves cached verdicts; ``stats``
    (optional dict) accumulates the verifier counters also attached to
    the result as ``FileRewrite.verifier``.
    """
    error = getattr(file_suggestions, "error", None)
    suggestions = getattr(file_suggestions, "suggestions",
                          file_suggestions)
    if error is not None:
        return FileRewrite(name=name, error=error)
    requests = _parsed_requests(file_suggestions, suggestions)
    if requests is not None:
        tu = file_suggestions.parsed.tu
        loops = [r.ast for r in requests]
    else:
        try:
            tu = parse_source(source)
        except (LexError, ParseError) as exc:
            return FileRewrite(name=name, error=str(exc))
        functions = []
        loops = []
        for fn in tu.functions():
            if fn.body is None:
                continue
            for loop in _outermost_loops(fn.body):
                functions.append(fn)
                loops.append(loop)
        if len(loops) != len(suggestions):
            detail = (f"file has {len(loops)} outermost loops but "
                      f"{len(suggestions)} suggestions")
            return FileRewrite(
                name=name,
                rewrites=[LoopRewrite(loop_source=s.loop_source,
                                      accepted=False, code="misaligned",
                                      detail=detail)
                          for s in suggestions],
                rewritten_source=unparse(tu),
            )
    fstats = {"simulations": 0, "compiled_runs": 0,
              "interpreted_runs": 0, "cached_verdicts": 0,
              "elapsed_s": 0.0}
    rewrites: list[LoopRewrite] = []
    saved = [(loop, loop.pragmas) for loop in loops]
    try:
        for k, (loop, suggestion) in enumerate(zip(loops, suggestions)):
            if not suggestion.parallel:
                rewrites.append(LoopRewrite(
                    loop_source=suggestion.loop_source, accepted=False,
                    code="not-parallel", detail=suggestion.rationale))
                continue
            if requests is None \
                    and _strip_unparse(loop) != suggestion.loop_source:
                rewrites.append(LoopRewrite(
                    loop_source=suggestion.loop_source, accepted=False,
                    code="misaligned",
                    detail="suggestion does not describe the loop at "
                           "this position"))
                continue
            live_out = (requests[k].live_out if requests is not None
                        else frozenset(scalars_read_after(
                            functions[k].body, loop)))
            rewrites.append(_attempt(loop, suggestion.loop_source,
                                     live_out, verify=verify,
                                     config=config, store=store,
                                     stats=fstats))
        rewritten_source = unparse(tu)
    finally:
        for loop, pragmas in saved:
            loop.pragmas = pragmas
    if stats is not None:
        for key, value in fstats.items():
            stats[key] = stats.get(key, 0) + value
    return FileRewrite(name=name, rewrites=rewrites,
                       rewritten_source=rewritten_source, verifier=fstats)
