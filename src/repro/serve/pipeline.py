"""The staged, worker-sharded, streaming suggestion pipeline.

Per-loop serving costs ``L×(C+1)`` single-graph forward passes for L
loops and C clause families, each preceded by its own parse + graph
build + encode.  :class:`SuggestionService` restructures that into

1. a parse stage over whole files, one file at a time,
2. one encode per distinct loop source per vocabulary — models that
   agree on (representation, vocab content) share an
   :class:`~repro.graphs.encode.EncodeCache`,
3. one block-diagonal ``collate`` + forward per model per *round* of
   files, rounds doubling from :data:`FIRST_ROUND_LOOPS` loops up to
   ``batch_size``, so the first files stream out after one small round,
4. a fan-out back to per-file :class:`FileSuggestions`.

Corpora additionally shard end-to-end: ``stream_sources`` with
``shards > 1`` partitions the workload by file size
(:mod:`repro.serve.plan`), runs the whole parse → encode → forward →
fan-out pipeline *locally* inside each worker process
(:mod:`repro.serve.worker`), and yields per-file results as they stream
back over the result queue (:mod:`repro.serve.stream`) — in input
order or as completed.  The same stream serves verified rewrites: a
:class:`~repro.serve.job.Job` says which of the two a caller wants.

A :class:`~repro.serve.store.SuggestionStore` extends the caching
across processes: finished per-file suggestions (keyed by content hash
and model fingerprint) short-circuit the whole pipeline, cached parse
results skip the frontend even when the models changed, and every
shard worker consults/commits the same store.

Predictions are identical to the per-loop path: batching, caching and
sharding only change how much work is shared, never a graph's own
numbers.
"""

from __future__ import annotations

import inspect
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

from repro.serve.job import SUGGEST, Job
from repro.serve.parse import ParsedFile, parse_one
from repro.serve.store import SuggestionStore, content_key, open_store
from repro.suggest import PragmaSuggester, Suggestion


#: loops in the first round of a pass; each later round holds twice as
#: many, up to ``ServeConfig.batch_size``
FIRST_ROUND_LOOPS = 16

#: every counter a service keeps, by group, each with its zero: the
#: model forwards, the daemon's coalesced rounds, and the verifier.
#: Readers index a group by these names and never iterate its live
#: ``Counter``, which another thread may be counting into.
COUNTERS = {
    "forwards": {"calls": 0, "graphs": 0},
    "coalesce": {"rounds": 0, "requests": 0, "deduped_files": 0},
    "verify": {"simulations": 0, "compiled_runs": 0,
               "interpreted_runs": 0, "cached_verdicts": 0,
               "elapsed_s": 0.0},
}


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving pipeline."""

    workers: int = 1          # must be 1: rounds parse in process
    batch_size: int = 256     # graphs per collate; loops per full round
    cache_entries: int = 4096  # per-vocab encode-cache capacity
    #: end-to-end corpus shards; 1 = in-process, "auto" (or 0) picks a
    #: count from corpus stats and CPU count (1 CPU stays in-process)
    shards: int | str = 1
    #: shard supervision: worker deaths tolerated per retry lineage
    #: before the remaining files are emitted as ``worker-retry`` error
    #: records instead of respawning again
    max_retries: int = 3
    #: seconds of worker silence (no results or beats) before
    #: the supervisor presumes it hung, kills it, and requeues its work
    heartbeat_s: float = 30.0
    #: base of the exponential respawn backoff (doubles per death)
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise ValueError("workers must be 1: there is no parse pool; "
                             "spread a corpus over cores with --shards")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be at least 1, got {self.batch_size}")


@dataclass
class FileSuggestions:
    """All suggestions for one file (or its frontend error)."""

    name: str
    suggestions: list[Suggestion] = field(default_factory=list)
    error: str | None = None
    #: the parse the suggestions were computed from: a rewrite reuses
    #: its translation unit (present only for an in-process parse)
    #: instead of parsing the file again.  ``None`` for suggestions
    #: replayed from the store or revived from the wire; never in
    #: ``to_payload``
    parsed: ParsedFile | None = field(default=None, compare=False,
                                      repr=False)

    @property
    def n_parallel(self) -> int:
        return sum(s.parallel for s in self.suggestions)

    def to_payload(self) -> dict:
        """JSON-safe payload (minus the name: the store keys on
        content, and the same content may live under many names)."""
        return {
            "error": self.error,
            "suggestions": [s.to_dict() for s in self.suggestions],
        }

    @classmethod
    def from_payload(cls, name: str, payload: dict) -> "FileSuggestions":
        return cls(
            name=name,
            suggestions=[Suggestion.from_dict(d)
                         for d in payload["suggestions"]],
            error=payload["error"],
        )


def _revive(cls, name: str, payload: dict):
    """``cls.from_payload`` with store semantics: entries that don't
    match the expected shape (same-version schema drift, hand edits)
    degrade to cache misses, never abort the run."""
    try:
        return cls.from_payload(name, payload)
    except (KeyError, TypeError, AttributeError):
        return None


def _model_fingerprint(model, require: bool = False) -> str:
    """Identity string for the persistent store's model key.

    With ``require`` (a persistent store is configured), a model
    without ``fingerprint()`` is an error: falling back to its class
    name would hand retrained weights another model's cached
    suggestions.
    """
    fp = getattr(model, "fingerprint", None)
    if callable(fp):
        return fp()
    if require:
        raise ValueError(
            f"{type(model).__qualname__} exposes no fingerprint(); a "
            f"persistent SuggestionStore needs one to invalidate cached "
            f"suggestions when models change"
        )
    return f"{type(model).__module__}.{type(model).__qualname__}"


class _CountingModel:
    """``predict_samples`` pass-through that counts model forwards."""

    def __init__(self, model, forwards: Counter) -> None:
        self.model = model
        self.forwards = forwards

    def predict_samples(self, samples):
        self.forwards["calls"] += 1
        self.forwards["graphs"] += len(samples)
        return self.model.predict_samples(samples)


class _BatchedGraphModel:
    """``predict_samples`` adapter: shared encode cache + pre-encoded
    batched forward, replacing the model's own parse/encode-per-call
    path on the serving hot loop.  ``collate_cache`` is shared across
    all models of one service, so the clause models (which see the
    same predicted-parallel subset) reuse one collated batch."""

    def __init__(self, model, cache, batch_size: int,
                 collate_cache: dict, forwards: Counter) -> None:
        self.model = model
        self.cache = cache
        self.batch_size = batch_size
        self.forwards = forwards
        # Probe once whether the model's predict_encoded can share
        # collated batches; catching TypeError per call would mask
        # genuine type bugs inside prediction.
        try:
            supports = "collate_cache" in inspect.signature(
                model.predict_encoded).parameters
        except (TypeError, ValueError):
            supports = False
        self.collate_cache = collate_cache if supports else None

    def predict_samples(self, samples):
        graphs = [
            self.cache.encode_loop(s.source, loop=s.ast()) for s in samples
        ]
        self.forwards["calls"] += 1
        self.forwards["graphs"] += len(graphs)
        if self.collate_cache is not None:
            return self.model.predict_encoded(
                graphs, batch_size=self.batch_size,
                collate_cache=self.collate_cache,
            )
        return self.model.predict_encoded(graphs,
                                          batch_size=self.batch_size)


class SuggestionService:
    """Batched, cached pragma suggestion over files and directories.

    ``parallel_model`` / ``clause_models`` follow the same contract as
    :class:`~repro.suggest.PragmaSuggester`.  Models additionally
    exposing ``predict_encoded`` / ``encode_cache`` / ``encoder_key``
    (:class:`~repro.eval.context.TrainedGraphModel` does) are routed
    through shared encode caches; anything else still gets one batched
    ``predict_samples`` call per model.

    ``store`` plugs in a persistent :class:`SuggestionStore`: files
    whose (content hash, model fingerprint) already have stored
    suggestions skip parsing *and* inference entirely, and cached
    parse results survive model swaps.

    Shard workers serve these same model objects (see
    :class:`~repro.serve.worker.WorkerSpec`), so sharded output never
    depends on what is on disk after the models were loaded.
    """

    def __init__(self, parallel_model, clause_models: dict,
                 config: ServeConfig | None = None,
                 store: SuggestionStore | None = None) -> None:
        self.config = config or ServeConfig()
        self.store = store
        self._model_key = self._compute_model_key(
            parallel_model, clause_models, require=store is not None,
        )
        self._source_models = (parallel_model, dict(clause_models))
        self._caches: dict[tuple, object] = {}
        self._collate_cache: dict = {}
        #: one ``Counter`` per :data:`COUNTERS` group
        self.counts = {group: Counter(zeros)
                       for group, zeros in COUNTERS.items()}
        self.suggester = PragmaSuggester(
            self._wrap(parallel_model),
            {name: self._wrap(m) for name, m in clause_models.items()},
        )

    @staticmethod
    def _compute_model_key(parallel_model, clause_models: dict,
                           require: bool = False) -> str:
        import hashlib

        parts = [_model_fingerprint(parallel_model, require)] + [
            f"{name}:{_model_fingerprint(model, require)}"
            for name, model in sorted(clause_models.items())
        ]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]

    def _wrap(self, model):
        if not all(
            hasattr(model, attr)
            for attr in ("predict_encoded", "encode_cache", "encoder_key")
        ):
            return _CountingModel(model, self.counts["forwards"])
        key = model.encoder_key()
        cache = self._caches.get(key)
        if cache is None:
            cache = model.encode_cache(max_entries=self.config.cache_entries)
            self._caches[key] = cache
        return _BatchedGraphModel(model, cache, self.config.batch_size,
                                  self._collate_cache, self.counts["forwards"])

    # -- streaming core ------------------------------------------------------

    def iter_sources(
        self, named_sources: list[tuple[str, str]],
    ) -> Iterator[tuple[int, FileSuggestions]]:
        """Yield ``(input_index, FileSuggestions)`` as files complete.

        Completion order inside one workload: store-cached files first
        (they skip the whole pipeline and cost one disk read each),
        then the rest in input order, round by round (:meth:`_rounds`):
        one batched forward per model per round, whose files are yielded
        before the next round is parsed, so the first costs one small
        round and no pass holds every file's parse at once.
        Rounds never change a file's own numbers.  This is the
        in-process streaming core that both the collecting wrappers and
        the shard workers drive.
        """
        named = list(named_sources)
        store = self.store
        keys = ([content_key(source) for _, source in named]
                if store is not None else [])
        pending: list[int] = []
        for i, (name, _) in enumerate(named):
            fs = None
            if store is not None:
                payload = store.get_suggestions(self._model_key, keys[i])
                if payload is not None:
                    fs = _revive(FileSuggestions, name, payload)
            if fs is not None:
                yield i, fs
            else:
                pending.append(i)

        for batch in self._rounds(named, keys, pending):
            flat = [req for _, pf in batch for req in pf.requests]
            # Collate sharing is per round: ``id()`` keys must not
            # outlive the graphs they describe.
            self._collate_cache.clear()
            suggestions = iter(self.suggester.suggest_batch(flat))
            self._collate_cache.clear()
            for i, pf in batch:
                fs = FileSuggestions(
                    name=pf.name, error=pf.error, parsed=pf,
                    suggestions=list(islice(suggestions,
                                            len(pf.requests))))
                if store is not None:
                    store.put_suggestions(self._model_key, keys[i],
                                          fs.to_payload())
                yield i, fs

    def _rounds(
        self, named: list[tuple[str, str]], keys: list[str],
        pending: list[int],
    ) -> Iterator[list[tuple[int, ParsedFile]]]:
        """``pending``'s files as rounds of ``(input_index,
        ParsedFile)``, each parsed only when the round is asked for.

        Files parse one at a time in input order (a stored parse, else
        the frontend) until the round holds its target number of loops;
        every file counts at least one, so loop-less or unparseable
        files never hold a round open.  The target starts at
        :data:`FIRST_ROUND_LOOPS` and doubles per round up to
        ``config.batch_size``.
        """
        store = self.store
        target = min(FIRST_ROUND_LOOPS, self.config.batch_size)
        batch: list[tuple[int, ParsedFile]] = []
        loops = 0
        for n, i in enumerate(pending, 1):
            payload = None if store is None else store.get_parse(keys[i])
            pf = None if payload is None else _revive(
                ParsedFile, named[i][0], payload)
            if pf is None:
                pf = parse_one(named[i])
                if store is not None:
                    store.put_parse(keys[i], pf.to_payload())
            batch.append((i, pf))
            loops += max(1, len(pf.requests))
            if loops >= target or n == len(pending):
                yield batch
                batch, loops = [], 0
                target = min(2 * target, self.config.batch_size)

    def iter_joint(
        self, workloads: list[tuple[object, list[tuple[str, str]]]],
    ) -> Iterator[tuple[object, int, FileSuggestions]]:
        """Coalesce many tagged workloads into one pipeline pass.

        ``workloads`` is a list of ``(tag, named_sources)`` pairs — one
        per admitted client request (the network server's micro-batcher
        is the canonical caller).  Yields ``(tag, index,
        FileSuggestions)`` in completion order, where ``index`` is the
        file's position inside that tag's *own* ``named_sources``.

        This generalises the fan-out key from (request, file) to
        (client, request, file): files with identical *content* across
        different clients' requests are parsed, encoded and forwarded
        exactly once — one warm block-diagonal forward per round
        answers every client — and the per-(tag, index) fan-out
        re-labels the shared result with each request's own file name.  Per-file results are
        byte-identical to serving each workload alone: batching only
        changes how much work is shared, never a file's own numbers.
        """
        distinct: list[tuple[str, str]] = []
        first_seen: dict[str, int] = {}
        subscribers: dict[int, list[tuple[object, int, str]]] = {}
        total_files = 0
        for tag, named in workloads:
            for i, (name, source) in enumerate(named):
                total_files += 1
                di = first_seen.get(source)
                if di is None:
                    di = len(distinct)
                    first_seen[source] = di
                    distinct.append((name, source))
                subscribers.setdefault(di, []).append((tag, i, name))
        self.counts["coalesce"]["rounds"] += 1
        self.counts["coalesce"]["requests"] += len(workloads)
        self.counts["coalesce"]["deduped_files"] += total_files - len(distinct)
        for di, fs in self.iter_sources(distinct):
            for tag, i, name in subscribers[di]:
                out = fs if fs.name == name else replace(fs, name=name)
                yield tag, i, out

    def iter_rewrites(
        self, named_sources: list[tuple[str, str]], *,
        verify: bool = True,
    ) -> Iterator[tuple[int, "FileRewrite"]]:
        """In-process rewrite core: suggestions off :meth:`iter_sources`
        applied as verified AST rewrites the moment they complete, with
        the persistent verdict layer and this service's verifier
        counters threaded through.  Shard workers drive this directly.
        """
        job = Job("rewrite", verify=verify)
        named = list(named_sources)
        for i, fs in self.iter_sources(named):
            yield i, job.finish(self, named[i][0], named[i][1], fs)

    def stream_tagged(
        self, named_sources: list[tuple[str, str]], *,
        job: Job = SUGGEST, shards: int | str | None = None,
    ) -> Iterator[tuple[int, object]]:
        """``(input_index, result)`` pairs in completion order.

        The index-tagged core under :meth:`stream_sources`, exposed for
        consumers that need to know *which* input each result answers
        while still observing completion order — the network server
        forwards these tags to its clients verbatim.  ``job`` and
        ``shards`` follow the same rules as :meth:`stream_sources`.
        """
        from repro.serve.plan import resolve_shards
        from repro.serve.stream import stream_shards

        named = list(named_sources)
        n_shards = resolve_shards(
            self.config.shards if shards is None else shards, named)
        if n_shards > 1 and len(named) > 1:
            return stream_shards(
                self._worker_spec(job), named, n_shards,
                on_stats=self._absorb_worker_stats,
            )
        return job.run(self, named)

    def stream_sources(
        self, named_sources: list[tuple[str, str]], *,
        ordered: bool = True, shards: int | str | None = None,
        job: Job = SUGGEST,
    ) -> Iterator:
        """Stream ``job``'s results for many ``(name, source)`` pairs:
        :class:`FileSuggestions` by default, verified
        :class:`~repro.rewrite.FileRewrite` for a rewrite job.

        ``shards > 1`` partitions the corpus by file size and runs the
        entire pipeline — verification included — inside that many
        worker processes, each committing to the shared persistent
        store and streaming finished files back as they complete;
        ``shards`` defaults to the service config, and ``"auto"`` (or
        ``0``) picks a count from corpus statistics and the CPU count —
        falling back to in-process on a single CPU, where forked
        workers only add overhead.  ``ordered=True`` re-interleaves
        results into input order (buffering out-of-order arrivals);
        ``ordered=False`` yields in completion order for lowest
        first-result latency.  With a persistent store, files with
        cached suggestions never reach the parse stage and cached
        verdicts skip simulation.  Results are byte-identical across
        shard counts and orderings.
        """
        from repro.serve.stream import merge_results

        return merge_results(self.stream_tagged(named_sources, job=job,
                                                shards=shards),
                             ordered=ordered)

    def stream_rewrite_sources(
        self, named_sources: list[tuple[str, str]], *,
        ordered: bool = True, verify: bool = True,
        shards: int | str | None = None,
    ) -> Iterator["FileRewrite"]:
        """:meth:`stream_sources` with a rewrite job; kept by name
        because ``perfbench/child.py`` calls it."""
        return self.stream_sources(named_sources, ordered=ordered,
                                   shards=shards,
                                   job=Job("rewrite", verify=verify))

    # -- sharding support ----------------------------------------------------

    def _worker_spec(self, job: Job = SUGGEST):
        """Picklable recipe for rebuilding this service in a worker."""
        from repro.serve.worker import WorkerSpec

        store_root = None if self.store is None else str(self.store.base)
        return WorkerSpec(
            # shard workers are daemonic: they cannot re-shard
            config=replace(self.config, shards=1),
            store_root=store_root,
            # free under fork, a few MB of pickle under spawn
            models=self._source_models,
            job=job,
        )

    def _absorb_worker_stats(self, stats: dict) -> None:
        """Fold one shard worker's ``cache_stats()`` into this service,
        so forward counts, verifier counters and store hit rates stay
        meaningful when the pipeline ran in child processes."""
        for group, counts in self.counts.items():
            counts.update(stats.get(group, {}))
        if self.store is not None:
            self.store.counts.update(stats.get("store", {}))

    # -- introspection -------------------------------------------------------

    def cache_stats(self) -> dict:
        """Hit/miss/entry counts per shared encode cache, then every
        :data:`COUNTERS` group by name (zeros included), then (when
        configured) the persistent store's ``stats()``."""
        stats = {
            f"{key[0]}#{i}": cache.stats()
            for i, (key, cache) in enumerate(sorted(
                self._caches.items(), key=lambda kv: kv[0][0],
            ))
        }
        for group, zeros in COUNTERS.items():
            counts = self.counts[group]
            stats[group] = {name: counts[name] for name in zeros}
        if self.store is not None:
            stats["store"] = self.store.stats()
        return stats


#: clause families a context-backed service trains by default
DEFAULT_CLAUSES = ("reduction", "private", "simd", "target")


def build_service(source, config: ServeConfig | None = None,
                  clauses: tuple[str, ...] | None = None,
                  cache_dir: str | Path | None = None,
                  ) -> SuggestionService:
    """A service over trained aug-AST suggester models.

    ``source`` is either an
    :class:`~repro.eval.context.ExperimentContext` (models train on
    first use) or a loaded
    :class:`~repro.artifacts.SuggesterBundle` (zero training steps).
    ``clauses`` selects the clause families to serve; ``None`` means
    :data:`DEFAULT_CLAUSES` for a context and everything the bundle
    ships for a bundle (asking a bundle for a family it lacks is an
    error).  ``cache_dir`` adds a persistent :class:`SuggestionStore`
    so warm runs over unchanged files skip parsing and inference
    entirely.  A ``cache_dir`` of the form ``net:HOST:PORT`` mounts a
    remote daemon's store instead of a local directory
    (:func:`~repro.serve.store.open_store`).  Shard workers serve the
    returned service's own in-memory models, so a bundle's files may
    change or vanish after it was loaded without changing any output.
    """
    store = open_store(cache_dir) if cache_dir is not None else None
    if hasattr(source, "graph_model"):
        parallel = source.graph_model(representation="aug", task="parallel")
        clause_models = {
            clause: source.graph_model(representation="aug", task=clause)
            for clause in (DEFAULT_CLAUSES if clauses is None else clauses)
        }
    else:
        parallel = source.parallel
        if clauses is None:
            clause_models = dict(source.clause_models)
        else:
            absent = [c for c in clauses if c not in source.clause_models]
            if absent:
                raise ValueError(
                    f"bundle has no clause model(s) {absent}; "
                    f"available: {sorted(source.clause_models)}"
                )
            clause_models = {c: source.clause_models[c] for c in clauses}
    return SuggestionService(parallel, clause_models, config, store=store)
