"""The answer memo: a service forwards each distinct loop once.

A service's models are fixed, so a loop's suggestion depends only on
its source and the scalars read after it.  Each case serves a corpus
on one service first, then serves edited copies on the same service:
a copy the store would miss (a salt comment, an appended loop) must
cost no forward for the loops the service already answered, and its
payloads must match what the models give it with nothing cached.  The
stub models vote by a hash of the loop source, so an answer handed to
the wrong loop changes a payload.
"""

import json
import zlib

import numpy as np
import pytest

from repro.dataset.corpus import CorpusGenerator
from repro.serve import REWRITE, ServeConfig, SuggestionService
from repro.suggest import PragmaSuggester

CLAUSES = ("reduction", "private", "simd", "target")

APPENDED = """
double memo_tail[9];
void memo_appended(void) {
    int k;
    for (k = 0; k < 9; k++) memo_tail[k] = 3.0 * memo_tail[k];
}
"""


def _keep(after: str) -> str:
    """One loop whose temporary ``t`` is privatizable; ``after`` may
    read it once the loop is done (which makes it ``lastprivate``)."""
    return ("double a[11], b[11]; double t, s;\n"
            "void keep(void) {\n"
            "    int i;\n"
            "    for (i = 0; i < 11; i++) { t = a[i] * 2.0; b[i] = t; }\n"
            f"    {after}\n"
            "}\n")


class _HashModel:
    """Picklable stub voting by a hash of each loop's source; records
    every source it forwards."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seen: list[str] = []

    def predict_samples(self, samples):
        self.seen += [s.source for s in samples]
        return np.array([zlib.crc32(f"{self.name}:{s.source}".encode()) % 3 > 0
                         for s in samples], dtype=int)

    def fingerprint(self) -> str:
        return f"hash:{self.name}"


def _models():
    return _HashModel("parallel"), {c: _HashModel(c) for c in CLAUSES}


def _service(**config) -> SuggestionService:
    return SuggestionService(*_models(), ServeConfig(**config))


@pytest.fixture(scope="module")
def corpus() -> list[tuple[str, str]]:
    _, files = CorpusGenerator(seed=23).generate(scale=0.002)
    return [(f"file_{f.file_id}.c", f.source) for f in files]


def _salted(named, tag: str = "salt"):
    return [(f"{tag}-{name}", f"/* {tag} {i} */\n{source}")
            for i, (name, source) in enumerate(named)]


def _payloads(results) -> str:
    """Every result's name and payload, as the bytes a client sees."""
    return json.dumps([(r.name, r.to_payload()) for r in results])


def _oracle(named) -> str:
    """Suggest payloads straight from :class:`PragmaSuggester`, which
    keeps no memo."""
    suggester = PragmaSuggester(*_models())
    return json.dumps([
        (name, {"error": None,
                "suggestions": [s.to_dict()
                                for s in suggester.suggest_file(source)]})
        for name, source in named])


class TestAnswerMemo:
    def test_salted_copies_cost_no_forward(self, corpus):
        service = _service()
        served = list(service.stream_sources(corpus))
        loops = sum(len(r.suggestions) for r in served)
        before = service.cache_stats()
        salted = _salted(corpus)
        warm = _payloads(service.stream_sources(salted))
        assert warm == _payloads(_service().stream_sources(salted))
        assert warm == _oracle(salted)
        after = service.cache_stats()
        assert after["forwards"] == before["forwards"]
        assert after["answers"] == {
            "hits": before["answers"]["hits"] + loops,
            "misses": before["answers"]["misses"]}

    def test_appended_loop_costs_one_graph_per_model_that_sees_it(self, corpus):
        parallel, clauses = _models()
        service = SuggestionService(parallel, clauses)
        list(service.stream_sources(corpus))
        models = {"parallel": parallel, **clauses}
        seen = {name: len(m.seen) for name, m in models.items()}
        before = service.cache_stats()
        name, source = corpus[0]
        edited = [(name, source + APPENDED)]
        [result] = service.stream_sources(edited)
        assert _payloads([result]) == _oracle(edited)
        new_loop = result.suggestions[-1].loop_source
        fresh = {n: m.seen[seen[n]:] for n, m in models.items()}
        assert fresh["parallel"] == [new_loop]
        assert all(s in ([], [new_loop]) for s in fresh.values()), fresh
        after = service.cache_stats()
        sees = sum(1 for s in fresh.values() if s)
        assert after["forwards"]["calls"] - before["forwards"]["calls"] == sees
        assert after["forwards"]["graphs"] - before["forwards"]["graphs"] == sees
        assert after["answers"]["misses"] - before["answers"]["misses"] == 1

    def test_live_out_is_part_of_the_key(self):
        named = [("read.c", _keep("s = t;")), ("unread.c", _keep("s = 1.0;"))]
        service = _service()
        list(service.stream_sources(named[:1]))
        results = list(service.stream_sources(named))
        assert _payloads(results) == _oracle(named)
        pragmas = [r.suggestions[0].pragma for r in results]
        assert "lastprivate(t)" in pragmas[0]
        assert "lastprivate" not in pragmas[1] and "private(t)" in pragmas[1]

    @pytest.mark.parametrize("cache_entries", [4096, 2, 1])
    def test_duplicates_and_small_bounds_keep_every_answer(self, corpus,
                                                           cache_entries):
        # each file beside its salted copy: duplicate loops inside one
        # round, and (for small bounds) more answers than the memo holds
        named = [item for pair in zip(corpus, _salted(corpus))
                 for item in pair]
        service = _service(cache_entries=cache_entries)
        list(service.stream_sources(corpus))
        results = list(service.stream_sources(named))
        assert _payloads(results) == _oracle(named)
        suggestions = [s for r in results for s in r.suggestions]
        # every answer is its own object: no two files share state
        assert len({id(s) for s in suggestions}) == len(suggestions)
        assert len({id(s.clause_families) for s in suggestions}) == \
            len(suggestions)
        assert len(service._answers) == \
            min(cache_entries, service.cache_stats()["answers"]["misses"])

    def test_shard_workers_fold_answer_counts(self, corpus):
        named = corpus + _salted(corpus)
        in_process = _service()
        want = _payloads(in_process.stream_sources(named))
        sharded = _service()
        assert _payloads(sharded.stream_sources(named, shards=2)) == want
        answers = sharded.cache_stats()["answers"]
        loops = json.loads(want)
        assert answers["hits"] + answers["misses"] == \
            sum(len(p["suggestions"]) for _, p in loops)
        assert answers["misses"] >= \
            in_process.cache_stats()["answers"]["misses"] > 0

    def test_rewrites_through_memo_hits_match_cold(self, corpus):
        named = corpus[:6]
        service = _service()
        list(service.stream_sources(named))
        before = service.cache_stats()
        salted = _salted(named)
        warm = _payloads(service.stream_sources(salted, job=REWRITE))
        assert warm == _payloads(_service().stream_sources(salted,
                                                          job=REWRITE))
        after = service.cache_stats()
        assert after["forwards"] == before["forwards"]
        assert after["answers"]["misses"] == before["answers"]["misses"]
