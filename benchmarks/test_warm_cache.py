"""Bench: cold vs warm suggesting through the persistent store.

A cold run pays the full pipeline per file — pure-python parse, graph
build, encode, batched forwards.  A warm run over an unchanged corpus
replays finished suggestions from the on-disk
:class:`~repro.serve.SuggestionStore` keyed by content hash + model
fingerprint: zero frontend work, zero model forwards.  The warm path
must be at least ``REQUIRED_SPEEDUP``× faster and byte-identical, and
an edited file must be recomputed without dragging the rest of the
corpus with it.

Results land in ``BENCH_warm_cache.json`` for the CI perf trajectory.
"""

import time

from conftest import read_dir, run_once, write_bench_artifact

from repro.dataset.corpus import CorpusGenerator
from repro.serve import ServeConfig, build_service

REQUIRED_SPEEDUP = 3.0
MIN_FILES = 12


def _write_corpus(directory) -> int:
    _, files = CorpusGenerator(seed=23).generate(scale=0.002)
    for f in files:
        (directory / f"file_{f.file_id}.c").write_text(f.source)
    return len(files)


def _cold_vs_warm(context, tmp_path) -> dict:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    n_files = _write_corpus(corpus)
    cache_dir = tmp_path / "cache"
    serve_config = ServeConfig(batch_size=512)

    # models come pre-trained from the shared context; only the serving
    # pipeline is measured on both sides
    cold_service = build_service(context, serve_config,
                                 cache_dir=cache_dir)
    start = time.perf_counter()
    cold_results = list(cold_service.stream_sources(read_dir(corpus)))
    cold_s = time.perf_counter() - start
    cold_stats = cold_service.cache_stats()

    # best-of-2: a single warm sample is too noisy for a CI ratio
    warm_s, warm_results, warm_stats = float("inf"), None, None
    for _ in range(2):
        warm_service = build_service(context, serve_config,
                                     cache_dir=cache_dir)
        start = time.perf_counter()
        results = list(warm_service.stream_sources(read_dir(corpus)))
        elapsed = time.perf_counter() - start
        if elapsed < warm_s:
            warm_s, warm_results = elapsed, results
        warm_stats = warm_service.cache_stats()

    identical = [
        [s.render() for s in fs.suggestions] for fs in cold_results
    ] == [
        [s.render() for s in fs.suggestions] for fs in warm_results
    ]

    # selective invalidation: touch one file, only it recomputes
    edited = corpus / "file_0.c"
    edited.write_text(edited.read_text() + "\n/* edited */\n")
    edit_service = build_service(context, serve_config,
                                 cache_dir=cache_dir)
    list(edit_service.stream_sources(read_dir(corpus)))
    edit_stats = edit_service.cache_stats()

    n_loops = sum(len(fs.suggestions) for fs in cold_results)
    return {
        "files": n_files,
        "loops": n_loops,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2) if warm_s else 0.0,
        "warm_forwards": warm_stats["forwards"],
        "warm_store": warm_stats["store"],
        "edit_recomputed": edit_stats["store"]["suggest_misses"],
        "edit_replayed": edit_stats["store"]["suggest_hits"],
        "identical": identical,
        "cold_store": cold_stats["store"],
    }


def test_warm_cache(benchmark, context, tmp_path):
    build_service(context)      # train once, outside the measured body
    result = run_once(benchmark, _cold_vs_warm, context, tmp_path)
    path = write_bench_artifact("warm_cache", result)
    print(f"\nwarm cache: {result['files']} files / {result['loops']} "
          f"loops, cold {result['cold_s']}s vs warm {result['warm_s']}s "
          f"({result['speedup']}x) -> {path}")

    assert result["files"] >= MIN_FILES
    assert result["identical"]
    # the whole point: an unchanged corpus costs zero model forwards
    assert result["warm_forwards"] == {"calls": 0, "graphs": 0}
    assert result["warm_store"]["suggest_hits"] == result["files"]
    # editing one file invalidates exactly that file
    assert result["edit_recomputed"] == 1
    assert result["edit_replayed"] == result["files"] - 1
    assert result["speedup"] >= REQUIRED_SPEEDUP
