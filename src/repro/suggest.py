"""Pragma suggestion and generation.

Section 8 of the paper names "generating complete OpenMP pragmas" as the
future-work step beyond clause-presence prediction.  This module builds
that: the trained models decide *whether* a loop parallelises and which
clause families apply, then the static dependence machinery fills in the
concrete clause arguments (reduction operator + variable, private list),
yielding a full pragma string.

The two layers deliberately mirror §6.4's deployment story: the learned
model proposes, the analysis grounds the proposal in variables the loop
actually uses, and the developer stays in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.analysis import scalars_read_after
from repro.cfront import ParseError, parse_source
from repro.cfront.nodes import Stmt
from repro.dataset.extract import _outermost_loops, extract_loops_by_function
from repro.dataset.sample import LoopSample
from repro.pragma.model import PragmaError
from repro.tools.deps import analyze_loop


@dataclass
class Suggestion:
    """One loop's suggestion."""

    loop_source: str
    parallel: bool
    pragma: str | None = None
    clause_families: list[str] = field(default_factory=list)
    rationale: str = ""

    def render(self) -> str:
        if not self.parallel:
            return f"// keep sequential: {self.rationale}\n{self.loop_source}"
        return f"{self.pragma}\n{self.loop_source}"

    def to_dict(self) -> dict:
        """JSON-safe payload (CLI output and the persistent store)."""
        return {
            "loop_source": self.loop_source,
            "parallel": self.parallel,
            "pragma": self.pragma,
            "clause_families": list(self.clause_families),
            "rationale": self.rationale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Suggestion":
        return cls(
            loop_source=data["loop_source"],
            parallel=bool(data["parallel"]),
            pragma=data.get("pragma"),
            clause_families=list(data.get("clause_families") or []),
            rationale=data.get("rationale", ""),
        )


@dataclass(frozen=True)
class LoopRequest:
    """One loop queued for suggestion.

    ``live_out`` lists scalars read after the loop in its enclosing
    function (when known): privatized scalars in that set must be
    ``lastprivate`` for correctness.  ``ast`` optionally carries the
    already-parsed loop statement so batch consumers skip a re-parse;
    it is advisory (never part of equality) and is dropped when a
    request is pickled or stored, and such requests re-parse lazily,
    which keeps payloads small and the suggestions identical either
    way.
    """

    source: str
    live_out: frozenset[str] = frozenset()
    ast: Stmt | None = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> dict:
        return {"source": self.source, "live_out": self.live_out}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "source", state["source"])
        object.__setattr__(self, "live_out", state["live_out"])
        object.__setattr__(self, "ast", None)


class PragmaSuggester:
    """Composes complete pragmas from model predictions + static analysis.

    ``parallel_model`` and ``clause_models`` are
    :class:`repro.eval.context.TrainedGraphModel`-like objects exposing
    ``predict_samples``; any drop-in with that interface works.
    """

    def __init__(self, parallel_model, clause_models: dict) -> None:
        self.parallel_model = parallel_model
        self.clause_models = dict(clause_models)

    # -- single loop ---------------------------------------------------------

    def suggest_loop(self, loop_source: str,
                     live_out: frozenset[str] = frozenset()) -> Suggestion:
        """Suggestion for one loop (thin wrapper over the batch path)."""
        return self.suggest_batch(
            [LoopRequest(source=loop_source, live_out=live_out)]
        )[0]

    # -- batched -------------------------------------------------------------

    def suggest_batch(
        self, requests: list[LoopRequest | str],
    ) -> list[Suggestion]:
        """Suggestions for many loops with one model call per task.

        The per-loop path costs ``L×(C+1)`` single-graph forward passes
        for L loops and C clause families; here the parallel model sees
        all parseable loops in one ``predict_samples`` call and each
        clause model sees the predicted-parallel subset in one call, so
        every model runs a single batched (block-diagonal) forward.
        Results are order-aligned with ``requests``.

        Duplicate requests — ubiquitous in crawled corpora, which is
        why the paper deduplicated its dataset — are computed once and
        fanned back out to every occurrence.
        """
        all_reqs = [
            r if isinstance(r, LoopRequest) else LoopRequest(source=r)
            for r in requests
        ]
        unique_index: dict[LoopRequest, int] = {}
        positions: list[int] = []
        reqs: list[LoopRequest] = []
        for req in all_reqs:
            j = unique_index.get(req)
            if j is None:
                j = unique_index[req] = len(reqs)
                reqs.append(req)
            positions.append(j)
        suggestions: list[Suggestion | None] = [None] * len(reqs)
        parseable: list[int] = []
        samples: list[LoopSample] = []
        for i, req in enumerate(reqs):
            sample = LoopSample(source=req.source, parallel=False)
            if req.ast is not None:
                sample._ast_cache = req.ast
            try:
                sample.ast()
            except ParseError as exc:
                suggestions[i] = Suggestion(
                    loop_source=req.source, parallel=False,
                    rationale=f"unparseable loop: {exc}",
                )
                continue
            parseable.append(i)
            samples.append(sample)

        if samples:
            is_parallel = self.parallel_model.predict_samples(samples)
        else:
            is_parallel = []
        par_idx = [i for i, p in zip(parseable, is_parallel) if bool(p)]
        par_samples = [s for s, p in zip(samples, is_parallel) if bool(p)]
        for i, p in zip(parseable, is_parallel):
            if not bool(p):
                suggestions[i] = Suggestion(
                    loop_source=reqs[i].source, parallel=False,
                    rationale="model predicts loop-carried dependence",
                )

        families_per_loop: dict[int, list[str]] = {i: [] for i in par_idx}
        if par_samples:
            for clause, model in self.clause_models.items():
                votes = model.predict_samples(par_samples)
                for i, vote in zip(par_idx, votes):
                    if bool(vote):
                        families_per_loop[i].append(clause)
        for i, sample in zip(par_idx, par_samples):
            families = families_per_loop[i]
            pragma, rationale = self._compose(
                sample.ast(), families, reqs[i].live_out,
            )
            suggestions[i] = Suggestion(
                loop_source=reqs[i].source, parallel=True, pragma=pragma,
                clause_families=families, rationale=rationale,
            )
        return [suggestions[j] for j in positions]

    # -- composition -----------------------------------------------------------

    def _compose(self, loop: Stmt, families: list[str],
                 live_out: frozenset[str] = frozenset()) -> tuple[str, str]:
        """Ground predicted clause families in the loop's actual variables."""
        deps = analyze_loop(loop, conditional_reductions=True)
        parts: list[str] = []
        notes: list[str] = []

        if "target" in families:
            parts.append("target teams distribute")
            notes.append("offload-style kernel")
        parts.append("parallel for")
        if "simd" in families and "target" not in families:
            parts.append("simd")
            notes.append("vectorisable body")

        clauses: list[str] = []
        if "reduction" in families or deps.reductions:
            if deps.reductions:
                ops: dict[str, list[str]] = {}
                for r in deps.reductions:
                    ops.setdefault(r.op, []).append(r.var)
                for op, variables in sorted(ops.items()):
                    clauses.append(f"reduction({op}:{', '.join(sorted(variables))})")
                notes.append(
                    "reduction variables grounded by dependence analysis"
                )
            else:
                notes.append(
                    "model suggests a reduction but analysis found no "
                    "accumulator; emitting plain parallel for"
                )
        private_vars = sorted(deps.privatizable - deps.summary.local_decls)
        if private_vars and ("private" in families or deps.privatizable):
            escaping = [v for v in private_vars if v in live_out]
            plain = [v for v in private_vars if v not in live_out]
            if plain:
                clauses.append(f"private({', '.join(plain)})")
            if escaping:
                # The scalar's final value is consumed after the loop:
                # plain privatization would drop it.
                clauses.append(f"lastprivate({', '.join(escaping)})")
                notes.append("post-loop reads require lastprivate")
            notes.append("privatizable scalars from write-before-read analysis")

        pragma = "#pragma omp " + " ".join(parts)
        if clauses:
            pragma += " " + " ".join(clauses)
        return pragma, "; ".join(notes) or "independent iterations"

    # -- whole files ---------------------------------------------------------------

    def suggest_file(self, source: str) -> list[Suggestion]:
        """Suggestions for every outermost loop of a C file.

        File context enables liveness: scalars consumed after a loop are
        suggested as ``lastprivate`` rather than ``private``.  Parsing
        errors propagate — callers drop uncompilable files.
        """
        return self.suggest_batch(file_requests(parse_source(source)))


def file_requests(tu) -> list[LoopRequest]:
    """Every outermost loop of a parsed C file (its translation unit)
    as a :class:`LoopRequest`, carrying its already-parsed loop
    statement so nothing downstream parses it again.

    Loops are paired with per-function liveness so suggestion paths
    (single-file and batched serving) share one extraction/alignment
    rule: when a function's loop count disagrees with its extracted
    samples, liveness falls back to empty sets for *that function
    only* — a mismatch must not drop ``lastprivate`` correctness for
    every other loop in the file.
    """
    requests: list[LoopRequest] = []
    for fn, samples in extract_loops_by_function(tu):
        loops = _outermost_loops(fn.body)
        aligned = len(loops) == len(samples)
        for i, sample in enumerate(samples):
            live_out = (
                frozenset(scalars_read_after(fn.body, loops[i]))
                if aligned else frozenset()   # defensive: per-function
            )
            requests.append(LoopRequest(
                source=sample.source, live_out=live_out,
                ast=loops[i] if aligned else None,
            ))
    return requests


def agreement(suggested: str | None, original: str | None) -> dict:
    """Clause-level agreement between a suggested and an original pragma.

    Returns directive/reduction/private agreement flags used by the
    pragma-generation bench.
    """
    from repro.pragma import parse_omp_pragma

    if suggested is None or original is None:
        return {"both_present": suggested is None and original is None,
                "directive_match": False, "reduction_match": False}
    try:
        sp = parse_omp_pragma(suggested)
        op = parse_omp_pragma(original)
    except PragmaError:
        # Malformed omp pragmas (clause-only like "omp private(t)", junk
        # clause lists) count as no usable pragma, not a crash.
        sp = op = None
    if sp is None or op is None:
        return {"both_present": False, "directive_match": False,
                "reduction_match": False}
    return {
        "both_present": True,
        "directive_match": ("for" in sp.directives) == ("for" in op.directives)
        and sp.has_directive("target") == op.has_directive("target"),
        "reduction_match": {v for _, v in sp.reductions}
        == {v for _, v in op.reductions},
    }
