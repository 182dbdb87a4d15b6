"""The rewrite pass: suggestions in, verified transformed C out.

:func:`rewrite_file` consumes one file's :class:`FileSuggestions` (from
any serving path — in-process, sharded, daemon) and aligns them, loop
by loop, with the file's :func:`repro.suggest.file_requests`: the
loops, their text and their live-out sets that the suggestions were
computed from.  Fresh suggestions carry those requests with their
parse, so the file is not parsed again; for suggestions replayed from
the store or revived from the wire the file is parsed once more.
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

from repro.cfront import LexError, ParseError, parse_source, unparse
from repro.cfront.parser import parse_loop
from repro.rewrite.clauses import PlanError, plan_clauses
from repro.rewrite.verify import (
    DEFAULT_CONFIG,
    VerifyConfig,
    _bump,
    revive_verdict,
    verdict_key,
    verify_loop,
)
from repro.suggest import file_requests

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
            _bump(stats, "cached_verdicts")
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
        _bump(stats, "elapsed_s", time.perf_counter() - t0)
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


def rewrite_file(name: str, source: str, file_suggestions, *,
                 verify: bool = True,
                 config: VerifyConfig | None = None,
                 store=None, stats: dict | None = None) -> FileRewrite:
    """Apply one file's suggestions as verified AST rewrites.

    ``file_suggestions`` is a
    :class:`~repro.serve.pipeline.FileSuggestions` (or anything with
    ``suggestions`` / ``error``).  Each suggestion is aligned with the
    file's :func:`~repro.suggest.file_requests` in order: those of the
    parse fresh suggestions carry, or of a new parse for suggestions
    replayed from the store or revived from the wire.  A count
    mismatch refuses every loop, and a suggestion that describes
    another loop's text refuses that loop, with ``misaligned`` rather
    than guessing.
    The returned ``rewritten_source`` is the whole file with accepted
    pragmas attached — refused and sequential loops keep their original
    text.  A shared parse is left as it came: every pragma attached
    here is restored before returning.

    ``store`` (optional, duck-typed) serves cached verdicts; ``stats``
    (optional dict or ``Counter``, such as a service's
    ``counts["verify"]``) accumulates the verifier counters in place:
    ``simulations``, ``compiled_runs``, ``interpreted_runs``,
    ``cached_verdicts`` and ``elapsed_s``.
    """
    error = getattr(file_suggestions, "error", None)
    suggestions = getattr(file_suggestions, "suggestions",
                          file_suggestions)
    if error is not None:
        return FileRewrite(name=name, error=error)
    parsed = getattr(file_suggestions, "parsed", None)
    if parsed is not None and parsed.tu is not None:
        tu, requests = parsed.tu, parsed.requests
    else:
        try:
            tu = parse_source(source)
        except (LexError, ParseError) as exc:
            return FileRewrite(name=name, error=str(exc))
        requests = file_requests(tu)
    if len(requests) != len(suggestions):
        detail = (f"file has {len(requests)} outermost loops but "
                  f"{len(suggestions)} suggestions")
        return FileRewrite(
            name=name,
            rewrites=[LoopRewrite(loop_source=s.loop_source,
                                  accepted=False, code="misaligned",
                                  detail=detail)
                      for s in suggestions],
            rewritten_source=unparse(tu),
        )
    rewrites: list[LoopRewrite] = []
    saved = [(r.ast, r.ast.pragmas) for r in requests]
    try:
        for request, suggestion in zip(requests, suggestions):
            if not suggestion.parallel:
                rewrites.append(LoopRewrite(
                    loop_source=suggestion.loop_source, accepted=False,
                    code="not-parallel", detail=suggestion.rationale))
            elif request.source != suggestion.loop_source:
                rewrites.append(LoopRewrite(
                    loop_source=suggestion.loop_source, accepted=False,
                    code="misaligned",
                    detail="suggestion does not describe the loop at "
                           "this position"))
            else:
                rewrites.append(_attempt(
                    request.ast, suggestion.loop_source, request.live_out,
                    verify=verify, config=config, store=store,
                    stats=stats))
        rewritten_source = unparse(tu)
    finally:
        for loop, pragmas in saved:
            loop.pragmas = pragmas
    return FileRewrite(name=name, rewrites=rewrites,
                       rewritten_source=rewritten_source)
