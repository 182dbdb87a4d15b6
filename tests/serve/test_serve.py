"""Tests for the batched suggestion service (repro.serve)."""

from pathlib import Path

import numpy as np
import pytest

from repro.cfront import parse_loop
from repro.graphs import EncodeCache, build_aug_ast, build_graph_vocab
from repro.serve import (
    REWRITE,
    SUGGEST,
    FileSuggestions,
    ServeConfig,
    SuggestionService,
    parse_one,
)
from repro.serve import pipeline
from repro.serve.pipeline import FIRST_ROUND_LOOPS
from repro.suggest import PragmaSuggester

GOOD_SOURCE = """
double a[100], b[100]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 100; i++) a[i] = b[i];
    for (i = 0; i < 100; i++) s += a[i];
}
"""

OTHER_SOURCE = """
double c[50];
void scale(void) {
    int j;
    for (j = 0; j < 50; j++) c[j] = c[j] * 2.0;
}
"""

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"

LOOPLESS_SOURCE = "double unused;\nvoid nothing(void) { unused = 1.0; }\n"


def _mixed_corpus(n: int = 40) -> list[tuple[str, str]]:
    """``n`` distinct files cycling through two-loop, one-loop,
    unparseable and loop-less sources, every loop distinct: 40 files
    span three rounds."""
    bases = [GOOD_SOURCE, OTHER_SOURCE, GOOD_SOURCE, BAD_SOURCE,
             LOOPLESS_SOURCE]
    return [(f"f{i}.c", bases[i % len(bases)]
             .replace("100", str(100 + i)).replace("50", str(50 + i))
             + f"/* variant {i} */\n")
            for i in range(n)]


def _read_dir(directory):
    """Every ``*.c`` file under ``directory`` as sorted ``(name, source)``
    pairs — the corpus ``repro suggest-dir`` reads."""
    return [(str(p), p.read_text()) for p in sorted(Path(directory).rglob("*.c"))]


class _StubModel:
    """predict_samples stub counting its calls."""

    def __init__(self, value: int) -> None:
        self.value = value
        self.calls: list[int] = []

    def predict_samples(self, samples):
        self.calls.append(len(samples))
        return np.full(len(samples), self.value, dtype=int)


def _vocab():
    graphs = [
        build_aug_ast(parse_loop(src))
        for src in ("for (i = 0; i < n; i++) s += a[i];",
                    "for (i = 0; i < n; i++) a[i] = b[i];")
    ]
    return build_graph_vocab(graphs)


class _FakeTrained:
    """Implements the TrainedGraphModel serving protocol over a stub."""

    representation = "aug"

    def __init__(self, value: int, vocab) -> None:
        self.value = value
        self.vocab = vocab
        self.encoded_calls: list[int] = []

    def predict_samples(self, samples, cache=None):
        return np.full(len(samples), self.value, dtype=int)

    def predict_encoded(self, graphs, batch_size=None):
        self.encoded_calls.append(len(graphs))
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


def _stub_models(parallel=1, **clauses):
    defaults = {"reduction": 0, "private": 0, "simd": 0, "target": 0}
    defaults.update(clauses)
    return _StubModel(parallel), {k: _StubModel(v)
                                  for k, v in defaults.items()}


class TestParseStage:
    def test_parse_one_extracts_requests(self):
        pf = parse_one(("kernel.c", GOOD_SOURCE))
        assert pf.error is None
        assert len(pf.requests) == 2

    def test_parse_one_reports_frontend_errors(self):
        pf = parse_one(("broken.c", BAD_SOURCE))
        assert pf.error is not None
        assert pf.requests == []


class TestServeConfig:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused(self, batch_size):
        with pytest.raises(ValueError, match="batch size"):
            ServeConfig(batch_size=batch_size)

    @pytest.mark.parametrize("cache_entries", [0, -1])
    def test_cache_entries_below_one_is_refused(self, cache_entries):
        # -1 used to build a service whose first pass popped an empty
        # encode cache (KeyError); the bound now covers the answer memo
        with pytest.raises(ValueError, match="cache_entries"):
            ServeConfig(cache_entries=cache_entries)


class TestRounds:
    """A pass runs in rounds of files, the first holding
    ``FIRST_ROUND_LOOPS`` loops and each later one twice as many up to
    ``batch_size``: a file is yielded once its round is done, never
    after the whole pass, and its result does not depend on the round
    it landed in."""

    @staticmethod
    def _count_parses(monkeypatch) -> list[str]:
        parsed: list[str] = []
        real = pipeline.parse_one

        def counting(item):
            parsed.append(item[0])
            return real(item)

        monkeypatch.setattr(pipeline, "parse_one", counting)
        return parsed

    @pytest.mark.parametrize("job", [SUGGEST, REWRITE],
                             ids=["suggest", "rewrite"])
    def test_rounds_match_each_file_served_alone(self, job):
        named = _mixed_corpus()
        parallel, clauses = _stub_models(parallel=1, reduction=1)
        whole = {i: result.to_payload() for i, result
                 in job.run(SuggestionService(parallel, clauses), named)}
        assert len(parallel.calls) >= 3          # three rounds at least
        for i, item in enumerate(named):
            solo = SuggestionService(*_stub_models(parallel=1, reduction=1))
            [(_, result)] = job.run(solo, [item])
            assert whole[i] == result.to_payload()

    def test_first_file_lands_after_one_round(self, monkeypatch):
        parsed = self._count_parses(monkeypatch)
        named = _mixed_corpus()
        parallel, clauses = _stub_models(parallel=1, reduction=1)
        stream = SuggestionService(parallel, clauses).iter_sources(named)
        assert next(stream)[0] == 0
        # one forward over one round: fewer than FIRST_ROUND_LOOPS loops
        # before the file that closed it, which holds at most two
        assert len(parallel.calls) == 1
        assert parallel.calls[0] < FIRST_ROUND_LOOPS + 2
        assert len(parsed) < len(named)
        stream.close()

    def test_loopless_files_do_not_hold_a_round_open(self, monkeypatch):
        parsed = self._count_parses(monkeypatch)
        named = ([(f"empty{i}.c", LOOPLESS_SOURCE) for i in range(30)]
                 + _mixed_corpus(10))
        parallel, clauses = _stub_models()
        stream = SuggestionService(parallel, clauses).iter_sources(named)
        first, fs = next(stream)
        assert (first, fs.suggestions, fs.error) == (0, [], None)
        # every file counts as one loop: the first round closes after
        # FIRST_ROUND_LOOPS loop-less files, with no forward to run
        assert len(parsed) == FIRST_ROUND_LOOPS < len(named)
        assert parallel.calls == []
        assert len(list(stream)) == len(named) - 1

    def test_rounds_double_up_to_batch_size(self):
        named = [(f"f{i}.c", OTHER_SOURCE.replace("50", str(50 + i)))
                 for i in range(100)]
        parallel, clauses = _stub_models()
        service = SuggestionService(parallel, clauses,
                                    ServeConfig(batch_size=40))
        assert len(list(service.iter_sources(named))) == 100
        assert parallel.calls == [16, 32, 40, 12]


class TestSuggestionService:
    def test_one_predict_call_per_model(self):
        parallel, clauses = _stub_models(parallel=1, reduction=1)
        service = SuggestionService(parallel, clauses)
        results = list(service.stream_sources(
            [("a.c", GOOD_SOURCE), ("b.c", OTHER_SOURCE)]
        ))
        assert [len(r.suggestions) for r in results] == [2, 1]
        # three loops across two files: exactly one batched call per model
        assert parallel.calls == [3]
        for model in clauses.values():
            assert model.calls == [3]

    def test_matches_per_loop_suggester(self):
        parallel, clauses = _stub_models(parallel=1, reduction=1, private=1)
        service = SuggestionService(parallel, clauses)
        batched = list(service.stream_sources([("a.c", GOOD_SOURCE)]))[0]
        baseline = PragmaSuggester(parallel, clauses).suggest_file(GOOD_SOURCE)
        assert [s.render() for s in batched.suggestions] == \
               [s.render() for s in baseline]

    def test_error_files_fan_out_empty(self):
        parallel, clauses = _stub_models()
        service = SuggestionService(parallel, clauses)
        results = list(service.stream_sources(
            [("a.c", GOOD_SOURCE), ("broken.c", BAD_SOURCE)]
        ))
        assert results[1].error is not None
        assert results[1].suggestions == []
        assert len(results[0].suggestions) == 2

    def test_trained_protocol_shares_one_cache(self):
        vocab = _vocab()
        parallel = _FakeTrained(1, vocab)
        clauses = {name: _FakeTrained(0, vocab)
                   for name in ("reduction", "private")}
        service = SuggestionService(parallel, clauses)
        # duplicated file: its requests dedupe before reaching the models
        results = list(service.stream_sources(
            [("a.c", GOOD_SOURCE), ("b.c", GOOD_SOURCE)]
        ))
        assert [len(r.suggestions) for r in results] == [2, 2]
        assert len(service._caches) == 1
        stats = next(iter(service.cache_stats().values()))
        assert stats["entries"] == 2          # two distinct loop sources
        assert stats["misses"] == 2
        assert stats["hits"] == 4             # 2 clause models × 2 loops
        # every model saw only the distinct loops, pre-encoded + batched
        assert parallel.encoded_calls == [2]
        for model in clauses.values():
            assert model.encoded_calls == [2]

    def test_suggest_dir_reads_files(self, tmp_path):
        (tmp_path / "k1.c").write_text(GOOD_SOURCE)
        (tmp_path / "k2.c").write_text(OTHER_SOURCE)
        (tmp_path / "notes.txt").write_text("not C")
        parallel, clauses = _stub_models(parallel=1)
        service = SuggestionService(parallel, clauses,
                                    ServeConfig())
        results = list(service.stream_sources(_read_dir(tmp_path)))
        assert [r.name.endswith(("k1.c", "k2.c")) for r in results] == \
               [True, True]
        assert sum(len(r.suggestions) for r in results) == 3

    def test_n_parallel_property(self):
        fs = FileSuggestions(name="x.c")
        assert fs.n_parallel == 0
