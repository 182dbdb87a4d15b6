"""Bench: batched suggestion serving vs the per-loop baseline.

The per-loop path pays ``L×(C+1)`` single-graph encode+forward passes
for L loops and C clause families; ``repro.serve`` extracts every loop,
deduplicates repeated sources (crawled corpora are redundant — the
paper had to deduplicate its own crawl), encodes each distinct loop
once against the shared vocab, and runs one block-diagonal forward per
model per round of files.

The corpus is ≥50 distinct synthetic loops across generated files, with
a realistic duplication tail (the same files appearing under new names,
as forks/copies do).  Both paths consume identical extracted requests
and must produce byte-identical suggestions; the suggestion pipeline
(encode + predict + compose, what `suggest_loop` does per loop) must be
≥5× faster batched.  End-to-end wall time including the file-parse
stage is recorded alongside in ``BENCH_serve.json``.
"""

import time

from conftest import run_once, write_bench_artifact

from repro.dataset.corpus import CorpusGenerator
from repro.eval.generation import build_suggester
from repro.serve import ServeConfig, build_service
from repro.serve.parse import parse_one

MIN_DISTINCT_LOOPS = 50
#: fraction of files repeated under a second name (fork/copy redundancy)
DUPLICATED_FILES = 12
REQUIRED_SPEEDUP = 5.0


def _corpus() -> list[tuple[str, str]]:
    _, files = CorpusGenerator(seed=11).generate(scale=0.002)
    named = [(f"file_{f.file_id}.c", f.source) for f in files]
    named += [(f"copy_{f.file_id}.c", f.source)
              for f in files[:DUPLICATED_FILES]]
    return named


def _compare_paths(context) -> dict:
    named = _corpus()
    config = ServeConfig(batch_size=512)
    per_loop = build_suggester(context)

    # identical inputs for both paths: the serve parse stage's requests
    parsed = [parse_one(item) for item in named]
    requests = [req for pf in parsed for req in pf.requests]
    distinct = len({(r.source, r.live_out) for r in requests})

    # best-of-2 on each path: one timing sample per side is too noisy
    # for a ratio assertion on shared CI runners
    per_loop_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        baseline = [
            per_loop.suggest_loop(req.source, live_out=req.live_out)
            for req in requests
        ]
        per_loop_s = min(per_loop_s, time.perf_counter() - start)

    batched_s = float("inf")
    for _ in range(2):
        service = build_service(context, config)   # cold caches each round
        start = time.perf_counter()
        batched = service.suggester.suggest_batch(requests)
        batched_s = min(batched_s, time.perf_counter() - start)

    # end-to-end (includes the file-parse stage), for the trajectory
    e2e_service = build_service(context, config)
    start = time.perf_counter()
    served = list(e2e_service.stream_sources(named))
    e2e_s = time.perf_counter() - start

    flat_served = [s for fs in served for s in fs.suggestions]
    renders = [s.render() for s in batched]
    identical = (
        renders == [s.render() for s in baseline]
        and renders == [s.render() for s in flat_served]
    )
    return {
        "files": len(named),
        "loops": len(requests),
        "distinct_loops": distinct,
        "per_loop_s": round(per_loop_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(per_loop_s / batched_s, 2) if batched_s else 0.0,
        "end_to_end_s": round(e2e_s, 4),
        "end_to_end_speedup": round(per_loop_s / e2e_s, 2) if e2e_s else 0.0,
        "batched_loops_per_s": round(len(requests) / batched_s, 1)
        if batched_s else 0.0,
        "identical": identical,
        "cache": service.cache_stats(),
    }


def test_serve_throughput(benchmark, context):
    result = run_once(benchmark, _compare_paths, context)
    path = write_bench_artifact("serve", result)
    print(f"\nserve throughput: {result['loops']} loops "
          f"({result['distinct_loops']} distinct) in "
          f"{result['batched_s']}s batched vs {result['per_loop_s']}s "
          f"per-loop ({result['speedup']}x; end-to-end "
          f"{result['end_to_end_speedup']}x) -> {path}")

    assert result["distinct_loops"] >= MIN_DISTINCT_LOOPS
    # grounding: the batched pipeline must not change a single byte
    assert result["identical"]
    assert result["speedup"] >= REQUIRED_SPEEDUP
