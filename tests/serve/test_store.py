"""Service-level tests of the persistent suggestion store.

The contract: a second suggest run over an unchanged corpus
performs zero model forwards (everything replays from disk), edited
files are invalidated selectively by content hash, and a different
model fingerprint never sees another model's cached suggestions.

The backend-independent store contract itself (atomicity, counters,
gc, fsck, describe) lives in ``test_store_conformance.py``, where it
runs against both the disk store and the network store; this file
keeps what is disk- or service-specific — warm-run accounting, the
rewrite engine's verdict replay, and fault-injected writes.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cfront import parse_loop
from repro.graphs import EncodeCache, build_aug_ast, build_graph_vocab
from repro.serve import (
    ServeConfig,
    SuggestionService,
    SuggestionStore,
    content_key,
)

SOURCE_A = """
double a[100], b[100]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 100; i++) a[i] = b[i];
    for (i = 0; i < 100; i++) s += a[i];
}
"""

SOURCE_B = """
double c[50];
void scale(void) {
    int j;
    for (j = 0; j < 50; j++) c[j] = c[j] * 2.0;
}
"""

SOURCE_B_EDITED = SOURCE_B.replace("* 2.0", "* 3.0")

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"


def _read_dir(directory):
    """Every ``*.c`` file under ``directory`` as sorted ``(name, source)``
    pairs — the corpus ``repro suggest-dir`` reads."""
    return [(str(p), p.read_text()) for p in sorted(Path(directory).rglob("*.c"))]


def _vocab():
    graphs = [
        build_aug_ast(parse_loop(src))
        for src in ("for (i = 0; i < n; i++) s += a[i];",
                    "for (i = 0; i < n; i++) a[i] = b[i];")
    ]
    return build_graph_vocab(graphs)


class _FakeTrained:
    """TrainedGraphModel serving protocol with a stable fingerprint."""

    representation = "aug"

    def __init__(self, value: int, vocab, name: str = "fake") -> None:
        self.value = value
        self.vocab = vocab
        self.name = name

    def predict_samples(self, samples, cache=None):
        return np.full(len(samples), self.value, dtype=int)

    def predict_encoded(self, graphs, batch_size=None):
        return np.full(len(graphs), self.value, dtype=int)

    def encode_cache(self, max_entries=4096):
        return EncodeCache(self.vocab, representation=self.representation,
                           max_entries=max_entries)

    def encoder_key(self):
        return (
            self.representation,
            tuple(sorted(self.vocab.types.tokens.items())),
            tuple(sorted(self.vocab.texts.tokens.items())),
        )

    def fingerprint(self):
        return f"{self.name}:{self.value}"


def _service(store, vocab=None, name="fake"):
    vocab = vocab or _vocab()
    parallel = _FakeTrained(1, vocab, name=name)
    clauses = {c: _FakeTrained(0, vocab, name=f"{name}-{c}")
               for c in ("reduction", "private")}
    return SuggestionService(parallel, clauses, ServeConfig(),
                             store=store)


@pytest.fixture()
def corpus(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "a.c").write_text(SOURCE_A)
    (directory / "b.c").write_text(SOURCE_B)
    (directory / "broken.c").write_text(BAD_SOURCE)
    return directory


class TestWarmCache:
    def test_second_run_does_zero_model_forwards(self, tmp_path, corpus):
        cache = tmp_path / "cache"
        cold = _service(SuggestionStore(cache))
        cold_results = list(cold.stream_sources(_read_dir(corpus)))
        cold_stats = cold.cache_stats()
        assert cold_stats["forwards"]["graphs"] > 0
        assert cold_stats["store"]["suggest_misses"] == 3
        assert cold_stats["store"]["suggest_hits"] == 0

        # a fresh service + store instance: only the disk is shared
        warm = _service(SuggestionStore(cache))
        warm_results = list(warm.stream_sources(_read_dir(corpus)))
        warm_stats = warm.cache_stats()
        assert warm_stats["forwards"] == {"calls": 0, "graphs": 0}
        assert warm_stats["store"]["suggest_hits"] == 3
        assert warm_stats["store"]["suggest_misses"] == 0
        # including the parse stage: nothing was re-parsed
        assert warm_stats["store"]["parse_hits"] == 0
        assert warm_stats["store"]["parse_misses"] == 0

        assert [r.name for r in warm_results] == \
            [r.name for r in cold_results]
        assert [[s.render() for s in r.suggestions]
                for r in warm_results] == \
            [[s.render() for s in r.suggestions] for r in cold_results]
        assert [r.error for r in warm_results] == \
            [r.error for r in cold_results]

    def test_edited_file_selectively_invalidated(self, tmp_path, corpus):
        cache = tmp_path / "cache"
        cold = _service(SuggestionStore(cache))
        list(cold.stream_sources(_read_dir(corpus)))

        (corpus / "b.c").write_text(SOURCE_B_EDITED)
        warm = _service(SuggestionStore(cache))
        results = list(warm.stream_sources(_read_dir(corpus)))
        stats = warm.cache_stats()
        # a.c and broken.c replay from disk; only b.c recomputes
        assert stats["store"]["suggest_hits"] == 2
        assert stats["store"]["suggest_misses"] == 1
        assert stats["forwards"]["calls"] > 0
        by_name = {r.name.rsplit("/", 1)[-1]: r for r in results}
        assert "* 3.0" in by_name["b.c"].suggestions[0].loop_source

    def test_rename_stays_warm(self, tmp_path, corpus):
        cache = tmp_path / "cache"
        cold = _service(SuggestionStore(cache))
        list(cold.stream_sources(_read_dir(corpus)))

        (corpus / "b.c").rename(corpus / "renamed.c")
        warm = _service(SuggestionStore(cache))
        results = list(warm.stream_sources(_read_dir(corpus)))
        stats = warm.cache_stats()
        assert stats["forwards"] == {"calls": 0, "graphs": 0}
        assert any(r.name.endswith("renamed.c") and r.suggestions
                   for r in results)

    def test_different_models_never_share_suggestions(self, tmp_path,
                                                      corpus):
        cache = tmp_path / "cache"
        vocab = _vocab()
        first = _service(SuggestionStore(cache), vocab, name="modelA")
        list(first.stream_sources(_read_dir(corpus)))

        second = _service(SuggestionStore(cache), vocab, name="modelB")
        list(second.stream_sources(_read_dir(corpus)))
        stats = second.cache_stats()
        assert stats["store"]["suggest_hits"] == 0
        assert stats["store"]["suggest_misses"] == 3
        # ... but the model-independent parse layer is still reused
        assert stats["store"]["parse_hits"] == 3
        assert stats["store"]["parse_misses"] == 0
        assert stats["forwards"]["graphs"] > 0

    def test_corrupt_entries_degrade_to_misses(self, tmp_path, corpus):
        cache = tmp_path / "cache"
        cold = _service(SuggestionStore(cache))
        cold_results = list(cold.stream_sources(_read_dir(corpus)))
        for path in (cache / "v1").rglob("*.json"):
            path.write_text("{ torn write")
        warm = _service(SuggestionStore(cache))
        warm_results = list(warm.stream_sources(_read_dir(corpus)))
        assert [[s.render() for s in r.suggestions]
                for r in warm_results] == \
            [[s.render() for s in r.suggestions] for r in cold_results]

    def test_without_store_no_store_stats(self):
        service = _service(None)
        stats = service.cache_stats()
        assert "store" not in stats
        assert stats["forwards"] == {"calls": 0, "graphs": 0}

    def test_store_requires_model_fingerprints(self, tmp_path):
        class NoFingerprint:
            def predict_samples(self, samples):
                return np.zeros(len(samples), dtype=int)

        # fine without a store...
        SuggestionService(NoFingerprint(), {}, ServeConfig())
        # ...but a persistent cache must refuse to key on class names
        with pytest.raises(ValueError, match="fingerprint"):
            SuggestionService(NoFingerprint(), {}, ServeConfig(),
                              store=SuggestionStore(tmp_path))

    def test_schema_drift_recomputes_instead_of_crashing(self, tmp_path,
                                                         corpus):
        cache = tmp_path / "cache"
        cold = _service(SuggestionStore(cache))
        cold_results = list(cold.stream_sources(_read_dir(corpus)))
        # valid JSON dicts, but not the payload shape this version writes
        for path in (cache / "v1").rglob("*.json"):
            path.write_text('{"schema": "from-the-future"}')
        warm = _service(SuggestionStore(cache))
        warm_results = list(warm.stream_sources(_read_dir(corpus)))
        assert [[s.render() for s in r.suggestions]
                for r in warm_results] == \
            [[s.render() for s in r.suggestions] for r in cold_results]


class TestStoreMechanics:
    def test_content_key_is_content_only(self):
        assert content_key(SOURCE_A) == content_key(SOURCE_A)
        assert content_key(SOURCE_A) != content_key(SOURCE_B)


class TestVerdictLayer:
    """The persistent verdict cache: warm rewrites replay, not re-run."""

    def test_engine_replays_cached_verdicts(self, tmp_path):
        from repro.rewrite import rewrite_loop

        store = SuggestionStore(tmp_path)
        src = "for (i = 0; i < n; i++) { a[i] = a[i] + 1; }"
        cold_stats: dict = {}
        cold = rewrite_loop(src, store=store, stats=cold_stats)
        assert cold.code == "verified"
        assert cold_stats["simulations"] > 0
        warm_stats: dict = {}
        warm = rewrite_loop(src, store=store, stats=warm_stats)
        assert warm == cold
        assert warm_stats.get("simulations", 0) == 0
        assert warm_stats["cached_verdicts"] == 1

    def test_config_change_invalidates(self, tmp_path):
        from repro.rewrite import VerifyConfig, rewrite_loop

        store = SuggestionStore(tmp_path)
        src = "for (i = 0; i < n; i++) { a[i] = a[i] + 1; }"
        rewrite_loop(src, store=store)
        stats: dict = {}
        rewrite_loop(src, store=store,
                     config=VerifyConfig(max_trip=8), stats=stats)
        # a different budget is a different verdict key, so no replay
        assert stats.get("cached_verdicts", 0) == 0
        assert stats["simulations"] > 0

    def test_compiled_flag_shares_cache_entries(self, tmp_path):
        from repro.rewrite import VerifyConfig, rewrite_loop

        store = SuggestionStore(tmp_path)
        src = "for (i = 0; i < n; i++) { a[i] = a[i] * 3; }"
        rewrite_loop(src, store=store, config=VerifyConfig(compiled=True))
        stats: dict = {}
        rewrite_loop(src, store=store,
                     config=VerifyConfig(compiled=False), stats=stats)
        # execution strategy is excluded from the fingerprint: both
        # paths produce identical verdicts, so they share one entry
        assert stats["cached_verdicts"] == 1

    def test_torn_entry_degrades_to_recompute(self, tmp_path):
        from repro.rewrite import rewrite_loop

        store = SuggestionStore(tmp_path)
        src = "for (i = 0; i < n; i++) { a[i] = a[i] + 2; }"
        cold = rewrite_loop(src, store=store)
        for path in (store.root / "verdict").glob("*.json"):
            path.write_text('{"ok": "maybe"}')     # malformed shape
        stats: dict = {}
        again = rewrite_loop(src, store=store, stats=stats)
        assert again == cold
        assert stats["simulations"] > 0            # recomputed, not trusted


class TestStoreGC:
    """gc through the serving path; mechanics live in the conformance
    suite."""

    def test_gc_to_zero_then_recompute(self, tmp_path, corpus):
        cache = tmp_path / "cache"
        cold = _service(SuggestionStore(cache))
        cold_results = list(cold.stream_sources(_read_dir(corpus)))
        result = SuggestionStore(cache).gc(max_bytes=0)
        assert result["kept_files"] == 0
        # an emptied cache degrades to a cold run, never an error
        warm = _service(SuggestionStore(cache))
        warm_results = list(warm.stream_sources(_read_dir(corpus)))
        assert warm.cache_stats()["store"]["suggest_hits"] == 0
        assert [[s.render() for s in r.suggestions]
                for r in warm_results] == \
            [[s.render() for s in r.suggestions] for r in cold_results]

class TestFsck:
    """Fault-injected writes; fsck mechanics live in the conformance
    suite."""

    def test_injected_torn_write_is_caught_by_fsck(self, tmp_path):
        from repro.serve import Fault, FaultPlan, faults

        store = SuggestionStore(tmp_path)
        faults.activate(FaultPlan((Fault("tear-entry"),)))
        try:
            store.put_parse("victim", {"requests": [], "error": None})
        finally:
            faults.reset()
        # the torn entry degrades to a miss for readers...
        assert store.get_parse("victim") is None
        # ...and fsck removes it so it stops costing a recompute
        report = store.fsck()
        assert report["corrupt"] == 1
        assert store.describe()["parse"]["entries"] == 0

    def test_injected_abort_write_degrades_to_counter(self, tmp_path):
        from repro.serve import Fault, FaultPlan, faults

        store = SuggestionStore(tmp_path)
        faults.activate(FaultPlan((Fault("abort-write"),)))
        try:
            store.put_parse("k", {"requests": [], "error": None})
        finally:
            faults.reset()
        # the cache is an accelerator: a failed write is a counter,
        # never an exception on the serving path
        assert store.stats()["write_errors"] == 1
        assert store.get_parse("k") is None
